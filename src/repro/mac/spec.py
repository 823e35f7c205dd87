"""The client-facing abstract MAC layer interface.

A higher-level algorithm interacts with the layer only through events:

* it calls :meth:`MacApi.mac_bcast` to hand the layer a payload;
* the layer later calls :meth:`MacClient.on_mac_ack` when delivery to the
  reliable neighborhood is (probabilistically) complete;
* whenever a neighbor's payload arrives, the layer calls
  :meth:`MacClient.on_mac_recv`.

The quantitative guarantees are captured by :class:`MacLayerGuarantees`,
which for the LBAlg implementation are exactly the ``t_ack`` / ``t_prog`` / ε
of Theorem 4.1.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Protocol

from repro.core.params import LBParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.lb_spec import LBSpecReport
    from repro.dualgraph.graph import DualGraph
    from repro.simulation.trace import ExecutionTrace


@dataclass(frozen=True)
class MacLayerGuarantees:
    """The (probabilistic) timing guarantees a MAC layer implementation offers.

    Attributes
    ----------
    f_ack:
        Rounds within which a ``bcast`` is acknowledged (and, with probability
        at least ``1 - epsilon``, delivered to every reliable neighbor).
    f_prog:
        Window length such that a receiver with an actively broadcasting
        reliable neighbor hears *something* within the window, with
        probability at least ``1 - epsilon``.
    epsilon:
        The per-event error bound.
    """

    f_ack: int
    f_prog: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.f_prog < 1 or self.f_ack < self.f_prog:
            raise ValueError("need f_ack >= f_prog >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")

    @classmethod
    def from_lb_params(cls, params: LBParams) -> "MacLayerGuarantees":
        """The guarantees the LBAlg-backed layer provides (Theorem 4.1)."""
        return cls(
            f_ack=params.tack_rounds,
            f_prog=params.tprog_rounds,
            epsilon=params.epsilon,
        )


@dataclass
class MacGuaranteeReport:
    """One execution checked against a :class:`MacLayerGuarantees` promise.

    The deterministic half of the promise (every accepted payload is
    acknowledged within ``f_ack`` rounds) yields hard *violations*; the
    probabilistic half (delivery to the reliable neighborhood before the ack,
    progress within ``f_prog`` windows) yields per-event outcomes that a
    multi-trial driver pools into empirical failure rates to compare against
    ``epsilon``.  The scenario metric ``mac_guarantees`` (see
    :mod:`repro.scenarios.metrics`) is exactly this report as a flat row.
    """

    guarantees: MacLayerGuarantees
    ack_deadline_violations: List[str] = field(default_factory=list)
    acked_broadcasts: int = 0
    pending_broadcasts: int = 0
    reliability_failures: int = 0
    progress_windows: int = 0
    progress_failures: int = 0

    @classmethod
    def from_lb(cls, guarantees: MacLayerGuarantees, lb: "LBSpecReport") -> "MacGuaranteeReport":
        """The report read off ``lb``, the LB clause results at ``(f_ack, f_prog)``
        (:func:`repro.core.lb_spec.check_lb_delivery`): the deadline violations
        are its timely-ack violations of kinds ``missed`` (never acknowledged by
        the deadline) and ``late`` (acknowledged after it)."""
        f_ack = guarantees.f_ack
        return cls(
            guarantees=guarantees,
            ack_deadline_violations=[
                f"payload {v.message.payload!r} (bcast at round {v.bcast_round}) missed its "
                f"ack deadline (round {v.bcast_round + f_ack})"
                if v.kind == "missed"
                else f"payload {v.message.payload!r} acknowledged after "
                f"{v.ack_round - v.bcast_round} rounds (bound {f_ack})"
                for v in lb.ack_violations
                if v.kind in ("missed", "late")
            ],
            acked_broadcasts=len(lb.completed_deliveries),
            pending_broadcasts=len(lb.deliveries) - len(lb.completed_deliveries),
            reliability_failures=len(lb.reliability_failures),
            progress_windows=lb.num_progress_windows,
            progress_failures=lb.num_progress_failures,
        )

    @property
    def ack_ok(self) -> bool:
        """No acknowledged-too-late / never-acknowledged violations observed."""
        return not self.ack_deadline_violations

    @property
    def reliability_failure_rate(self) -> float:
        if not self.acked_broadcasts:
            return 0.0
        return self.reliability_failures / self.acked_broadcasts

    @property
    def progress_failure_rate(self) -> float:
        if not self.progress_windows:
            return 0.0
        return self.progress_failures / self.progress_windows

    @property
    def within_epsilon(self) -> bool:
        """Both empirical failure rates sit within the promised ``epsilon``."""
        return (
            self.reliability_failure_rate <= self.guarantees.epsilon
            and self.progress_failure_rate <= self.guarantees.epsilon
        )

    def summary(self) -> Dict[str, float]:
        """The flat record benchmark tables and metric rows consume."""
        return {
            "ack_deadline_violations": len(self.ack_deadline_violations),
            "acked_broadcasts": self.acked_broadcasts,
            "pending_broadcasts": self.pending_broadcasts,
            "reliability_failures": self.reliability_failures,
            "reliability_failure_rate": self.reliability_failure_rate,
            "progress_windows": self.progress_windows,
            "progress_failures": self.progress_failures,
            "progress_failure_rate": self.progress_failure_rate,
        }


def check_mac_guarantees(
    trace: "ExecutionTrace",
    graph: "DualGraph",
    guarantees: MacLayerGuarantees,
    check_progress: bool = True,
) -> MacGuaranteeReport:
    """Check one execution trace against a MAC layer's advertised guarantees.

    This is the abstract-layer counterpart of
    :func:`repro.core.lb_spec.check_lb_execution`: it knows nothing about
    LBAlg's internals, only the ``f_ack`` / ``f_prog`` / ``epsilon`` the layer
    promised, which it checks as the LB clauses they are
    (:func:`repro.core.lb_spec.check_lb_delivery`).  ``check_progress=True``
    evaluates the progress windows, which needs a ``TraceMode.FULL`` trace;
    pass ``False`` for events-only traces.
    """
    from repro.core.lb_spec import check_lb_delivery

    lb = check_lb_delivery(trace, graph, guarantees.f_ack, guarantees.f_prog, check_progress)
    return MacGuaranteeReport.from_lb(guarantees, lb)


class MacApi(Protocol):
    """The handle a client uses to talk to its node's MAC layer."""

    @property
    def vertex(self) -> Hashable:
        """The vertex this client is running at."""

    def mac_bcast(self, payload: Any) -> bool:
        """Hand a payload to the layer.

        Returns True if the layer takes it up at the next round; False if it
        waits behind a previous payload (the
        :class:`~repro.mac.adapter.MacEnvironment` queues it and submits it
        once every earlier one is acknowledged).
        """


class MacClient(ABC):
    """Base class for algorithms written on top of the abstract MAC layer.

    Subclasses override the event hooks they care about.  A client never sees
    rounds, frames, collisions, or link schedules -- only MAC events -- which
    is the whole point of the abstraction.
    """

    def on_mac_start(self, api: MacApi) -> None:
        """Called once before the first round with the node's API handle."""

    def on_mac_recv(self, payload: Any, round_number: int) -> None:
        """A neighbor's payload was delivered at this node."""

    def on_mac_ack(self, payload: Any, round_number: int) -> None:
        """The layer finished broadcasting this node's payload."""
