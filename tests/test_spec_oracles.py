"""Oracle tests: each Seed/LB/MAC clause against the code it replaced.

The MAC guarantee report is read off the LB clause results
(:func:`repro.core.lb_spec.check_lb_delivery`), the Seed agreement counts come
from :func:`repro.simulation.metrics.unique_seed_owner_counts`, and
:func:`repro.simulation.metrics.progress_report` buckets heard rounds by
window.  The functions below keep the earlier, independent implementations
of the same quantities -- the MAC checker's own loops, the agreement-count
loop, the per-window progress scan and the timely-ack checker -- and
Hypothesis compares the two on hand-built traces with duplicate, early,
late, missing, wrong-vertex and unknown-message acks, pending broadcasts,
repeated decides, and random windows, receivers and ``use_frames``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AckOutput, BcastInput, DecideOutput, RecvOutput
from repro.core.lb_spec import check_lb_execution
from repro.core.messages import Message
from repro.core.seed_spec import check_seed_execution
from repro.dualgraph.graph import DualGraph
from repro.mac.spec import MacLayerGuarantees, check_mac_guarantees
from repro.simulation.metrics import (
    ProgressReport,
    ProgressWindow,
    ack_delays,
    data_reception_round_sets,
    delivery_report,
    progress_report,
)
from repro.simulation.trace import ExecutionTrace

#: A data frame as the progress check sees it: anything with a ``message``.
Frame = namedtuple("Frame", "message")


# ----------------------------------------------------------------------
# oracles: the earlier implementations, kept verbatim in spirit
# ----------------------------------------------------------------------
def _intervals_cover(intervals, start, end):
    if not intervals:
        return False
    needed = start
    for s, e in sorted(intervals, key=lambda it: it[0]):
        if s > needed:
            return False
        top = float("inf") if e is None else e
        if top >= needed:
            needed = int(top) + 1 if top != float("inf") else end + 1
        if needed > end:
            return True
    return needed > end


def progress_oracle(trace, graph, window, receivers=None, use_frames=True):
    """The per-window scan: every heard round rescanned for every window."""
    if receivers is None:
        receivers = sorted(graph.vertices, key=repr)
    report = ProgressReport()
    num_phases = trace.num_rounds // window
    if use_frames:
        heard_rounds = data_reception_round_sets(trace)
    else:
        heard_rounds = {}
        for ev in trace.recv_outputs:
            heard_rounds.setdefault(ev.vertex, set()).add(ev.round_number)
    intervals = {
        v: [(ev.round_number, trace.ack_round_for(ev.message)) for ev in evs]
        for v, evs in trace.bcasts_by_vertex().items()
    }
    for vertex in receivers:
        neighbors = graph.reliable_neighbors(vertex)
        heard_by_vertex = heard_rounds.get(vertex, ())
        for phase in range(num_phases):
            start = phase * window + 1
            end = (phase + 1) * window
            active = any(_intervals_cover(intervals.get(n, ()), start, end) for n in neighbors)
            heard = any(start <= rnd <= end for rnd in heard_by_vertex)
            report.windows.append(
                ProgressWindow(vertex, phase + 1, start, end, active, heard)
            )
    return report


def mac_oracle(trace, graph, guarantees, check_progress=True):
    """The MAC checker's own loops over ack delays, deliveries and progress."""
    report = {
        "ack_deadline_violations": [],
        "acked_broadcasts": 0,
        "pending_broadcasts": 0,
        "reliability_failures": 0,
        "progress_windows": 0,
        "progress_failures": 0,
    }
    for record in ack_delays(trace):
        if record.delay is None:
            report["pending_broadcasts"] += 1
            deadline = record.bcast_round + guarantees.f_ack
            if trace.num_rounds >= deadline:
                report["ack_deadline_violations"].append(
                    f"payload {record.message.payload!r} (bcast at round "
                    f"{record.bcast_round}) missed its ack deadline (round {deadline})"
                )
        elif record.delay > guarantees.f_ack:
            report["ack_deadline_violations"].append(
                f"payload {record.message.payload!r} acknowledged after "
                f"{record.delay} rounds (bound {guarantees.f_ack})"
            )
    for record in delivery_report(trace, graph):
        if record.ack_round is None:
            continue
        report["acked_broadcasts"] += 1
        if not record.fully_delivered:
            report["reliability_failures"] += 1
    if check_progress:
        progress = progress_oracle(trace, graph, window=guarantees.f_prog)
        report["progress_windows"] = progress.num_applicable
        report["progress_failures"] = len(progress.failures)
    return report


def agreement_oracle(trace, graph, delta_bound, vertices):
    """The Seed checker's own closed-neighborhood owner count."""
    owners_at = {v: {ev.owner for ev in evs} for v, evs in trace.decides_by_vertex().items()}
    counts: Dict = {}
    violations: List = []
    for u in vertices:
        owners = set()
        for v in graph.closed_potential_neighborhood(u):
            owners |= owners_at.get(v, set())
        counts[u] = len(owners)
        if len(owners) > delta_bound:
            violations.append(u)
    return counts, violations


def timely_ack_oracle(trace, tack):
    """The LB timely-ack checker as it read before violations had kinds."""
    violations = []
    acked_ids: Dict = {}
    for ack in trace.ack_outputs:
        acked_ids.setdefault(ack.message.message_id, []).append(ack)
    bcast_ids = set()
    for bcast in trace.bcast_inputs:
        mid = bcast.message.message_id
        bcast_ids.add(mid)
        acks = acked_ids.get(mid, [])
        if len(acks) > 1:
            violations.append(f"message {mid!r} was acknowledged {len(acks)} times")
        deadline = bcast.round_number + tack
        if not acks:
            if trace.num_rounds >= deadline:
                violations.append(
                    f"message {mid!r} (bcast at round {bcast.round_number}) was never "
                    f"acknowledged although the deadline (round {deadline}) passed"
                )
        else:
            ack = acks[0]
            if ack.vertex != bcast.vertex:
                violations.append(
                    f"message {mid!r} was acknowledged by {ack.vertex!r}, not by its "
                    f"origin {bcast.vertex!r}"
                )
            if not bcast.round_number <= ack.round_number <= deadline:
                violations.append(
                    f"message {mid!r} acknowledged at round {ack.round_number}, outside "
                    f"[{bcast.round_number}, {deadline}]"
                )
    for mid in acked_ids:
        if mid not in bcast_ids:
            violations.append(
                f"ack for message {mid!r} which was never submitted by the environment"
            )
    return violations


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from("-RU"), min_size=len(pairs), max_size=len(pairs)))
    return DualGraph(
        vertices=range(n),
        reliable_edges=[p for p, k in zip(pairs, kinds) if k == "R"],
        unreliable_edges=[p for p, k in zip(pairs, kinds) if k == "U"],
    )


@st.composite
def traces(draw, graph):
    """A FULL trace of bcasts with acks of every kind, recvs, data and
    control receptions, and (repeated) decides, appended in random order."""
    vertices = sorted(graph.vertices)
    num_rounds = draw(st.integers(0, 30))
    rounds = st.integers(0, num_rounds + 4)
    events = []
    messages = []
    for seq in range(draw(st.integers(0, 6))):
        origin = draw(st.sampled_from(vertices))
        message = Message(origin=origin, sequence=seq, payload=f"p{seq}")
        messages.append(message)
        bcast_round = draw(st.integers(1, num_rounds + 1))
        events.append(BcastInput(vertex=origin, message=message, round_number=bcast_round))
        # none (pending), one, or duplicate acks; early / late / on time;
        # mostly at the origin, sometimes at another vertex.
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            ack_vertex = draw(st.sampled_from([origin, origin, origin, *vertices]))
            ack_round = draw(
                st.integers(max(bcast_round - 2, 0), bcast_round + 12) | rounds
            )
            events.append(AckOutput(vertex=ack_vertex, message=message, round_number=ack_round))
    for seq in range(draw(st.integers(0, 2))):  # acks of messages never submitted
        message = Message(origin=draw(st.sampled_from(vertices)), sequence=100 + seq)
        events.append(
            AckOutput(vertex=message.origin, message=message, round_number=draw(rounds))
        )
    if messages:
        for _ in range(draw(st.integers(0, 10))):
            events.append(
                RecvOutput(
                    vertex=draw(st.sampled_from(vertices)),
                    message=draw(st.sampled_from(messages)),
                    round_number=draw(rounds),
                )
            )
    for _ in range(draw(st.integers(0, 8))):  # repeated decides allowed
        events.append(
            DecideOutput(
                vertex=draw(st.sampled_from(vertices)),
                owner=draw(st.sampled_from(vertices)),
                seed=draw(st.integers(0, 3)),
                round_number=draw(rounds),
            )
        )
    trace = ExecutionTrace()
    trace.note_round(num_rounds)
    for event in draw(st.permutations(events)):
        trace.record_event(event)
    receptions: Dict[int, Dict] = {}
    for _ in range(draw(st.integers(0, 15))):
        rnd = draw(st.integers(1, max(num_rounds, 1)))
        message = draw(st.sampled_from(messages)) if messages else None
        frame = Frame(message) if draw(st.booleans()) else ("control", rnd)
        receptions.setdefault(rnd, {})[draw(st.sampled_from(vertices))] = frame
    for rnd, frames in receptions.items():
        trace.record_receptions(rnd, frames)
    return trace


@st.composite
def cases(draw):
    graph = draw(graphs())
    return graph, draw(traces(graph))


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
@given(cases(), st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_progress_report_matches_per_window_scan(case, window, data):
    graph, trace = case
    receivers = data.draw(
        st.none() | st.lists(st.sampled_from(sorted(graph.vertices)), max_size=4)
    )
    use_frames = data.draw(st.booleans())
    new = progress_report(trace, graph, window, receivers=receivers, use_frames=use_frames)
    old = progress_oracle(trace, graph, window, receivers=receivers, use_frames=use_frames)
    assert new.windows == old.windows


@given(cases(), st.integers(1, 6), st.integers(0, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_mac_report_matches_its_own_loops(case, f_prog, extra, check_progress):
    graph, trace = case
    guarantees = MacLayerGuarantees(f_ack=f_prog + extra, f_prog=f_prog, epsilon=0.2)
    report = check_mac_guarantees(trace, graph, guarantees, check_progress=check_progress)
    expected = mac_oracle(trace, graph, guarantees, check_progress=check_progress)
    assert {key: getattr(report, key) for key in expected} == expected
    summary = report.summary()
    assert summary["ack_deadline_violations"] == len(expected["ack_deadline_violations"])
    assert report.ack_ok == (not expected["ack_deadline_violations"])


@given(cases(), st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_lb_timely_ack_matches_untyped_checker(case, tprog, extra):
    graph, trace = case
    report = check_lb_execution(trace, graph, tprog + extra, tprog)
    assert report.timely_ack_violations == timely_ack_oracle(trace, tprog + extra)
    assert report.progress.windows == progress_oracle(trace, graph, tprog).windows


@given(cases(), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_seed_agreement_counts_match_neighborhood_loop(case, delta_bound, data):
    graph, trace = case
    restrict_to = data.draw(
        st.none() | st.lists(st.sampled_from(sorted(graph.vertices)), max_size=4)
    )
    report = check_seed_execution(trace, graph, delta_bound, restrict_to=restrict_to)
    vertices = sorted(graph.vertices) if restrict_to is None else restrict_to
    counts, violations = agreement_oracle(trace, graph, delta_bound, vertices)
    assert list(report.agreement_counts.items()) == list(counts.items())
    assert report.agreement_violations == violations


def test_back_to_back_broadcasts_cover_a_window():
    # Vertex 0 is active in [1, 3] with one message and in [4, 8] with the
    # next (ack, then bcast again the round after): together they cover both
    # 4-round windows, which neither interval covers alone.
    graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)], unreliable_edges=[])
    first, second = Message(origin=0, sequence=0), Message(origin=0, sequence=1)
    trace = ExecutionTrace()
    trace.note_round(8)
    for event in (
        BcastInput(vertex=0, message=first, round_number=1),
        AckOutput(vertex=0, message=first, round_number=3),
        BcastInput(vertex=0, message=second, round_number=4),
        AckOutput(vertex=0, message=second, round_number=8),
    ):
        trace.record_event(event)
    report = progress_report(trace, graph, 4, receivers=[1])
    assert [w.had_active_neighbor for w in report.windows] == [True, True]
    assert report.windows == progress_oracle(trace, graph, 4, receivers=[1]).windows
