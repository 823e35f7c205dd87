"""The ``LB(t_ack, t_prog, ε)`` specification checker (Section 4.1).

Deterministic conditions (must hold in every execution):

1. **Timely acknowledgment** -- a ``bcast(m)_u`` input at round ``ρ`` is
   followed by exactly one ``ack(m)_u`` output in rounds ``[ρ, ρ + t_ack]``,
   and those are the only acks.
2. **Validity** -- a ``recv(m)_u`` output at round ``ρ`` requires some
   ``v ∈ N_G'(u)`` actively broadcasting ``m`` at ``ρ``.

Probabilistic conditions (per configuration, estimated empirically across
trials):

3. **Reliability** -- with probability at least 1 − ε, every reliable
   neighbor of the sender outputs ``recv(m)`` before the sender's ``ack(m)``.
4. **Progress** -- partition rounds into windows of ``t_prog``; whenever a
   receiver has a reliable neighbor that is active throughout a window, the
   receiver outputs some ``recv`` during the window with probability at
   least 1 − ε.

:func:`check_lb_execution` evaluates all four on a single trace, reporting the
hard violations of 1-2 and the per-message / per-window outcomes of 3-4 so a
multi-trial driver can estimate error rates.  :func:`check_lb_delivery` is the
same check without validity: the promise of the abstract MAC layer, which
:func:`repro.mac.spec.check_mac_guarantees` reads off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional

from repro.core.messages import Message
from repro.dualgraph.graph import DualGraph
from repro.simulation.metrics import (
    DeliveryRecord,
    ProgressReport,
    delivery_report,
    progress_report,
)
from repro.simulation.trace import ExecutionTrace


class AckViolation(NamedTuple):
    """One timely-acknowledgment breach: ``kind`` is ``duplicate``, ``missed``
    (no ack by the deadline), ``wrong_vertex``, ``early``, ``late`` or
    ``unknown`` (no bcast; ``bcast_round`` is ``None``)."""

    kind: str
    text: str
    message: Message
    bcast_round: Optional[int]
    ack_round: Optional[int]  # the message's first ack round


@dataclass
class LBSpecReport:
    """Result of checking one execution against ``LB(t_ack, t_prog, ε)``."""

    tack: int
    tprog: int
    ack_violations: List[AckViolation] = field(default_factory=list)
    validity_violations: List[str] = field(default_factory=list)
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    progress: Optional[ProgressReport] = None

    # ------------------------------------------------------------------
    # deterministic conditions
    # ------------------------------------------------------------------
    @property
    def timely_ack_violations(self) -> List[str]:
        """Human-readable descriptions of :attr:`ack_violations`."""
        return [v.text for v in self.ack_violations]

    @property
    def timely_ack_ok(self) -> bool:
        return not self.ack_violations

    @property
    def validity_ok(self) -> bool:
        return not self.validity_violations

    @property
    def deterministic_ok(self) -> bool:
        """Both always-true conditions (timely ack and validity) hold."""
        return self.timely_ack_ok and self.validity_ok

    # ------------------------------------------------------------------
    # probabilistic conditions (per-execution outcomes)
    # ------------------------------------------------------------------
    @property
    def completed_deliveries(self) -> List[DeliveryRecord]:
        """Deliveries whose broadcast was acknowledged within the trace."""
        return [d for d in self.deliveries if d.ack_round is not None]

    @property
    def reliability_failures(self) -> List[DeliveryRecord]:
        """Acknowledged broadcasts that missed at least one reliable neighbor."""
        return [d for d in self.completed_deliveries if not d.fully_delivered]

    @property
    def reliability_failure_rate(self) -> float:
        completed = self.completed_deliveries
        return len(self.reliability_failures) / len(completed) if completed else 0.0

    @property
    def progress_failure_rate(self) -> float:
        return 0.0 if self.progress is None else self.progress.failure_rate

    @property
    def num_progress_windows(self) -> int:
        return 0 if self.progress is None else self.progress.num_applicable

    @property
    def num_progress_failures(self) -> int:
        return 0 if self.progress is None else len(self.progress.failures)

    def summary(self) -> Dict[str, float]:
        """A compact dictionary used by benchmark result tables."""
        return {
            "timely_ack_violations": len(self.timely_ack_violations),
            "validity_violations": len(self.validity_violations),
            "completed_broadcasts": len(self.completed_deliveries),
            "reliability_failures": len(self.reliability_failures),
            "reliability_failure_rate": self.reliability_failure_rate,
            "progress_windows": self.num_progress_windows,
            "progress_failure_rate": self.progress_failure_rate,
        }


def check_lb_execution(
    trace: ExecutionTrace,
    graph: DualGraph,
    tack: int,
    tprog: int,
    check_progress: bool = True,
) -> LBSpecReport:
    """Check one execution trace against the local broadcast specification."""
    report = check_lb_delivery(trace, graph, tack, tprog, check_progress)
    report.validity_violations = _validity_violations(trace, graph)
    return report


def check_lb_delivery(
    trace: ExecutionTrace,
    graph: DualGraph,
    tack: int,
    tprog: int,
    check_progress: bool = True,
) -> LBSpecReport:
    """Conditions 1, 3 and 4 -- every one but validity, which
    :func:`check_lb_execution` adds.  ``check_progress=True`` evaluates the
    progress windows, which needs a ``TraceMode.FULL`` trace."""
    if tack < tprog or tprog < 1:
        raise ValueError("need t_ack >= t_prog >= 1")
    return LBSpecReport(
        tack=tack,
        tprog=tprog,
        ack_violations=_timely_ack_violations(trace, tack),
        deliveries=delivery_report(trace, graph),
        progress=progress_report(trace, graph, window=tprog) if check_progress else None,
    )


def _timely_ack_violations(trace: ExecutionTrace, tack: int) -> List[AckViolation]:
    acks_of: Dict[Hashable, list] = {}
    for ack in trace.ack_outputs:
        acks_of.setdefault(ack.message.message_id, []).append(ack)
    violations: List[AckViolation] = []
    for bcast in trace.bcast_inputs:
        mid, start = bcast.message.message_id, bcast.round_number
        acks = acks_of.get(mid, [])
        first = acks[0].round_number if acks else None
        deadline = start + tack
        found = []
        if len(acks) > 1:
            found.append(("duplicate", f"message {mid!r} was acknowledged {len(acks)} times"))
        if not acks:
            # Only a violation if the trace ran long enough to see the deadline.
            if trace.num_rounds >= deadline:
                found.append(("missed", f"message {mid!r} (bcast at round {start}) was never "
                               f"acknowledged although the deadline (round {deadline}) passed"))
        else:
            if acks[0].vertex != bcast.vertex:
                found.append(("wrong_vertex", f"message {mid!r} was acknowledged by "
                              f"{acks[0].vertex!r}, not by its origin {bcast.vertex!r}"))
            if not start <= first <= deadline:
                found.append(("early" if first < start else "late", f"message {mid!r} "
                              f"acknowledged at round {first}, outside [{start}, {deadline}]"))
        violations += [AckViolation(k, text, bcast.message, start, first) for k, text in found]
    submitted = {bcast.message.message_id for bcast in trace.bcast_inputs}
    for mid, acks in acks_of.items():
        if mid not in submitted:
            text = f"ack for message {mid!r} which was never submitted by the environment"
            first = acks[0].round_number
            violations.append(AckViolation("unknown", text, acks[0].message, None, first))
    return violations


def _validity_violations(trace: ExecutionTrace, graph: DualGraph) -> List[str]:
    return [
        f"vertex {recv.vertex!r} output recv({recv.message.message_id!r}) at round "
        f"{recv.round_number} but no G' neighbor was actively broadcasting it"
        for recv in trace.recv_outputs
        if not any(
            m.message_id == recv.message.message_id
            for neighbor in graph.potential_neighbors(recv.vertex)
            for m in trace.actively_broadcasting(neighbor, recv.round_number)
        )
    ]
