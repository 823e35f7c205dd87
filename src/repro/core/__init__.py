"""The paper's primary contribution: seed agreement and local broadcast.

Modules
-------
* :mod:`repro.core.messages` / :mod:`repro.core.events` -- the message and
  input/output event vocabulary shared by algorithms, traces and spec
  checkers.
* :mod:`repro.core.constants` / :mod:`repro.core.params` -- the constant and
  parameter calculus of Appendices B.1 and C.1, in both literal *paper* form
  and scaled *simulation* form.
* :mod:`repro.core.seedbits` -- deterministic shared bit streams derived from
  committed seeds.
* :mod:`repro.core.seed_spec` / :mod:`repro.core.seed_agreement` -- the
  ``Seed(δ, ε)`` specification and the ``SeedAlg`` algorithm (Section 3).
* :mod:`repro.core.lb_spec` / :mod:`repro.core.local_broadcast` -- the
  ``LB(t_ack, t_prog, ε)`` specification and the ``LBAlg`` algorithm
  (Section 4).
* :mod:`repro.core.seed_groups` -- the batched stepping drivers that let the
  simulator advance whole LBAlg populations group-wise, bulk-decoding each
  ``(seed, cursor)`` cohort's body decisions, with byte-identical traces.
"""

from repro.core.messages import Message, make_message
from repro.core.events import (
    AckOutput,
    BcastInput,
    DecideOutput,
    Event,
    RecvOutput,
)
from repro.core.constants import ParamMode, SeedConstants, LBConstants
from repro.core.params import SeedParams, LBParams
from repro.core.seedbits import SeedBitStream
from repro.core.seed_agreement import SeedAgreementProcess
from repro.core.seed_spec import SeedSpecReport, check_seed_execution
from repro.core.local_broadcast import LocalBroadcastProcess
from repro.core.seed_groups import (
    LocalBroadcastBatchDriver,
    SeedAgreementCohort,
)
from repro.core.lb_spec import LBSpecReport, check_lb_execution

__all__ = [
    "Message",
    "make_message",
    "Event",
    "BcastInput",
    "AckOutput",
    "RecvOutput",
    "DecideOutput",
    "ParamMode",
    "SeedConstants",
    "LBConstants",
    "SeedParams",
    "LBParams",
    "SeedBitStream",
    "SeedAgreementProcess",
    "SeedSpecReport",
    "check_seed_execution",
    "LocalBroadcastProcess",
    "LocalBroadcastBatchDriver",
    "SeedAgreementCohort",
    "LBSpecReport",
    "check_lb_execution",
]
