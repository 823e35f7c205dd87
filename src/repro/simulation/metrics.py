"""Metrics computed from execution traces.

These helpers turn a raw :class:`~repro.simulation.trace.ExecutionTrace` plus
its :class:`~repro.dualgraph.graph.DualGraph` into the quantities the paper's
guarantees speak about:

* **acknowledgment delays** -- rounds between a ``bcast(m)_u`` input and the
  matching ``ack(m)_u`` output (Timely Acknowledgment / t_ack),
* **delivery reports** -- which reliable neighbors of the sender produced
  ``recv(m)`` before the ack (Reliability),
* **progress reports** -- for a receiver and a window length t_prog, whether
  the receiver heard *something* in every window during which it had an
  actively-broadcasting reliable neighbor (Progress),
* **seed owner counts** -- for seed agreement runs, the number of unique seed
  owners committed in each closed G' neighborhood (the δ of the Seed spec).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.events import DecideOutput
from repro.core.messages import Message
from repro.dualgraph.graph import DualGraph
from repro.simulation.trace import ExecutionTrace

Vertex = Hashable


# ----------------------------------------------------------------------
# acknowledgment latency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AckRecord:
    """One bcast input and what became of it."""

    vertex: Vertex
    message: Message
    bcast_round: int
    ack_round: Optional[int]

    @property
    def delay(self) -> Optional[int]:
        """Rounds from bcast to ack, inclusive of the ack round (None if pending)."""
        if self.ack_round is None:
            return None
        return self.ack_round - self.bcast_round


def ack_delays(trace: ExecutionTrace) -> List[AckRecord]:
    """One :class:`AckRecord` per bcast input in the trace."""
    records = []
    for ev in trace.bcast_inputs:
        records.append(
            AckRecord(
                vertex=ev.vertex,
                message=ev.message,
                bcast_round=ev.round_number,
                ack_round=trace.ack_round_for(ev.message),
            )
        )
    return records


# ----------------------------------------------------------------------
# reliability (delivery to reliable neighbors before the ack)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeliveryRecord:
    """Delivery outcome of one broadcast message."""

    message: Message
    sender: Vertex
    bcast_round: int
    ack_round: Optional[int]
    reliable_neighbors: Tuple[Vertex, ...]
    delivered_before_ack: Tuple[Vertex, ...]
    delivered_ever: Tuple[Vertex, ...]

    @property
    def fully_delivered(self) -> bool:
        """True iff every reliable neighbor got the message before the ack."""
        return set(self.delivered_before_ack) == set(self.reliable_neighbors)

    @property
    def delivery_fraction(self) -> float:
        """Fraction of reliable neighbors reached before the ack."""
        if not self.reliable_neighbors:
            return 1.0
        return len(self.delivered_before_ack) / len(self.reliable_neighbors)


def delivery_report(trace: ExecutionTrace, graph: DualGraph) -> List[DeliveryRecord]:
    """One :class:`DeliveryRecord` per acknowledged or pending broadcast."""
    records = []
    for ev in trace.bcast_inputs:
        message = ev.message
        sender = ev.vertex
        neighbors = tuple(sorted(graph.reliable_neighbors(sender), key=repr))
        ack_round = trace.ack_round_for(message)
        receivers = trace.receivers_of(message)
        before_ack = tuple(
            sorted(
                (
                    v
                    for v, rnd in receivers.items()
                    if v in neighbors and (ack_round is None or rnd <= ack_round)
                ),
                key=repr,
            )
        )
        ever = tuple(sorted((v for v in receivers if v in neighbors), key=repr))
        records.append(
            DeliveryRecord(
                message=message,
                sender=sender,
                bcast_round=ev.round_number,
                ack_round=ack_round,
                reliable_neighbors=neighbors,
                delivered_before_ack=before_ack,
                delivered_ever=ever,
            )
        )
    return records


# ----------------------------------------------------------------------
# progress (hearing something while a reliable neighbor is active)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProgressWindow:
    """One (receiver, window) pair relevant to the progress property."""

    vertex: Vertex
    phase_index: int
    start_round: int
    end_round: int
    had_active_neighbor: bool
    received_something: bool

    @property
    def progress_satisfied(self) -> Optional[bool]:
        """True/False when the premise held; None when it did not apply."""
        if not self.had_active_neighbor:
            return None
        return self.received_something


@dataclass
class ProgressReport:
    """Aggregate progress outcomes over a whole trace."""

    windows: List[ProgressWindow] = field(default_factory=list)

    @property
    def applicable(self) -> List[ProgressWindow]:
        return [w for w in self.windows if w.had_active_neighbor]

    @property
    def failures(self) -> List[ProgressWindow]:
        return [w for w in self.applicable if not w.received_something]

    @property
    def failure_rate(self) -> float:
        applicable = self.applicable
        if not applicable:
            return 0.0
        return len(self.failures) / len(applicable)

    @property
    def num_applicable(self) -> int:
        return len(self.applicable)


def progress_report(
    trace: ExecutionTrace,
    graph: DualGraph,
    window: int,
    receivers: Optional[Sequence[Vertex]] = None,
    use_frames: bool = True,
) -> ProgressReport:
    """Evaluate the progress property over fixed windows of ``window`` rounds.

    For each receiver and each window ``[k*window + 1, (k+1)*window]`` fully
    contained in the trace, the window *applies* when the receiver has at
    least one reliable neighbor that is actively broadcasting throughout every
    round of the window; it is *satisfied* when the receiver physically
    received at least one broadcast message during the window.

    Parameters
    ----------
    use_frames:
        When true (default), "received something" means a data frame reception
        was recorded in the trace for that round -- the paper's ``B_u``
        event.  This requires the simulation to run with
        ``TraceMode.FULL``.  When false, the check falls back to ``recv``
        outputs, which undercounts because the service deduplicates repeated
        deliveries of the same message.
    """
    if window < 1:
        raise ValueError("the progress window must be at least one round")
    if receivers is None:
        receivers = sorted(graph.vertices, key=repr)
    num_phases = trace.num_rounds // window
    # Window index k holds rounds k*window + 1 .. (k+1)*window.
    heard_windows: Dict[Vertex, Set[int]] = {}
    if use_frames:
        for v, rounds in data_reception_round_sets(trace).items():
            heard_windows[v] = {(rnd - 1) // window for rnd in rounds}
    else:
        for ev in trace.recv_outputs:
            heard_windows.setdefault(ev.vertex, set()).add((ev.round_number - 1) // window)
    covered = {
        v: _covered_windows(
            [(ev.round_number, trace.ack_round_for(ev.message)) for ev in evs], window, num_phases
        )
        for v, evs in trace.bcasts_by_vertex().items()
    }
    report = ProgressReport()
    for vertex in receivers:
        active = set().union(*(covered.get(n, ()) for n in graph.reliable_neighbors(vertex)))
        heard = heard_windows.get(vertex, ())
        for phase in range(num_phases):
            report.windows.append(
                ProgressWindow(
                    vertex=vertex,
                    phase_index=phase + 1,
                    start_round=phase * window + 1,
                    end_round=(phase + 1) * window,
                    had_active_neighbor=phase in active,
                    received_something=phase in heard,
                )
            )
    return report


def _covered_windows(intervals, window: int, num_phases: int) -> Set[int]:
    """Indices ``k < num_phases`` of the windows that the union of one
    vertex's active ``[s, e]`` intervals covers (``e is None``: never acked).

    The premise is that *some single neighbor* is active throughout the
    window, possibly with different messages (ack then immediately bcast
    again), hence the union: sorted once and merged into maximal runs of
    rounds, a window is covered iff it lies inside one run.
    """
    last = num_phases * window
    runs: List[List[int]] = []
    for s, e in sorted(intervals, key=lambda it: it[0]):
        top = last if e is None else min(e, last)
        if top < s:
            continue
        if runs and s <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], top)
        else:
            runs.append([s, top])
    covered: Set[int] = set()
    for s, top in runs:
        # window k starts at or after s and ends at or before top
        covered.update(range(max(0, -(-(s - 1) // window)), top // window))
    return covered


def iter_data_reception_rounds(trace: ExecutionTrace, vertex: Vertex) -> Iterator[int]:
    """The rounds in which ``vertex`` physically received a data frame,
    ascending, read lazily off the recorded receptions (so a caller that
    needs only the first stops there).  Data frames are those
    :func:`data_reception_round_sets` counts."""
    for rnd, received in trace.receptions_by_round():
        frame = received.get(vertex)
        if frame is not None and getattr(frame, "message", None) is not None:
            yield rnd


def data_reception_rounds(trace: ExecutionTrace, vertex: Vertex) -> List[int]:
    """:func:`data_reception_round_sets` for one ``vertex``, as a sorted list
    (one pass that looks only at ``vertex``)."""
    return list(iter_data_reception_rounds(trace, vertex))


def data_reception_round_sets(trace: ExecutionTrace) -> Dict[Vertex, set]:
    """Vertex -> rounds in which it physically received a data (message) frame.

    Frames are duck-typed: anything with a ``message`` attribute counts as a
    data frame (LBAlg's and the baselines' ``DataFrame``), while control
    frames such as SeedAlg's ``(id, seed)`` pairs do not.  One pass over the
    recorded receptions (requires ``TraceMode.FULL``); vertices that never
    received a data frame are absent from the result.
    """
    result: Dict[Vertex, set] = {}
    for rnd, received in trace.receptions_by_round():
        for vertex, frame in received.items():
            if frame is not None and getattr(frame, "message", None) is not None:
                result.setdefault(vertex, set()).add(rnd)
    return result


# ----------------------------------------------------------------------
# seed agreement owner counts
# ----------------------------------------------------------------------
def unique_seed_owner_counts(
    trace: ExecutionTrace, graph: DualGraph
) -> Dict[Vertex, int]:
    """For each vertex ``u``, the number of distinct owners decided in ``N_G'(u) ∪ {u}``.

    This is exactly the quantity bounded by δ in the Seed(δ, ε) agreement
    property.  Vertices with no decide output in their neighborhood map to 0.
    """
    owner_of: Dict[Vertex, List[Hashable]] = {}
    for ev in trace.decide_outputs:
        owner_of.setdefault(ev.vertex, []).append(ev.owner)
    counts: Dict[Vertex, int] = {}
    for u in graph.vertices:
        owners = set()
        for v in graph.closed_potential_neighborhood(u):
            owners.update(owner_of.get(v, ()))
        counts[u] = len(owners)
    return counts


def receive_rates(
    trace: ExecutionTrace, start_round: int, end_round: int
) -> Dict[Vertex, int]:
    """Per-vertex counts of rounds in [start_round, end_round] with a reception.

    One pass over the recorded per-round receptions (requires
    ``TraceMode.FULL``); dividing a count by the window length estimates the
    per-round receive probability of Lemma 4.2.  Vertices that never received
    anything are absent from the result.
    """
    if end_round < start_round:
        raise ValueError("end_round must be at least start_round")
    counts: Dict[Vertex, int] = {}
    for rnd, received in trace.receptions_by_round():
        if rnd > end_round:
            break
        if rnd >= start_round:
            for vertex in received:
                counts[vertex] = counts.get(vertex, 0) + 1
    return counts
