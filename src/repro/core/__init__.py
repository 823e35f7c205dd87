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

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "Message": "repro.core.messages",
    "make_message": "repro.core.messages",
    "Event": "repro.core.events",
    "BcastInput": "repro.core.events",
    "AckOutput": "repro.core.events",
    "RecvOutput": "repro.core.events",
    "DecideOutput": "repro.core.events",
    "ParamMode": "repro.core.constants",
    "SeedConstants": "repro.core.constants",
    "LBConstants": "repro.core.constants",
    "SeedParams": "repro.core.params",
    "LBParams": "repro.core.params",
    "SeedBitStream": "repro.core.seedbits",
    "SeedAgreementProcess": "repro.core.seed_agreement",
    "SeedSpecReport": "repro.core.seed_spec",
    "check_seed_execution": "repro.core.seed_spec",
    "LocalBroadcastProcess": "repro.core.local_broadcast",
    "LocalBroadcastBatchDriver": "repro.core.seed_groups",
    "SeedAgreementCohort": "repro.core.seed_groups",
    "LBSpecReport": "repro.core.lb_spec",
    "check_lb_execution": "repro.core.lb_spec",
}

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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
