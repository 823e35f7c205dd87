"""Unit tests for execution traces and their derived views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AckOutput, BcastInput, DecideOutput, RecvOutput
from repro.core.messages import Message
from repro.simulation.trace import ExecutionTrace, TraceMode


@pytest.fixture
def message():
    return Message(origin=0, sequence=0, payload="hello")


@pytest.fixture
def other_message():
    return Message(origin=1, sequence=0, payload="other")


def build_trace(message, other_message):
    """A small hand-built trace: bcast at 2, recvs at 5 and 7, ack at 9."""
    trace = ExecutionTrace()
    trace.note_round(12)
    trace.record_event(BcastInput(vertex=0, message=message, round_number=2))
    trace.record_event(RecvOutput(vertex=1, message=message, round_number=5))
    trace.record_event(RecvOutput(vertex=2, message=message, round_number=7))
    trace.record_event(AckOutput(vertex=0, message=message, round_number=9))
    trace.record_event(BcastInput(vertex=1, message=other_message, round_number=10))
    trace.record_event(DecideOutput(vertex=3, owner=4, seed=17, round_number=1))
    return trace


class TestEventAccessors:
    def test_counts_by_kind(self, message, other_message):
        trace = build_trace(message, other_message)
        assert len(trace.bcast_inputs) == 2
        assert len(trace.ack_outputs) == 1
        assert len(trace.recv_outputs) == 2
        assert len(trace.decide_outputs) == 1
        assert len(trace.events) == 6

    def test_by_vertex_views(self, message, other_message):
        trace = build_trace(message, other_message)
        assert set(trace.bcasts_by_vertex()) == {0, 1}
        assert set(trace.acks_by_vertex()) == {0}
        assert set(trace.recvs_by_vertex()) == {1, 2}
        assert set(trace.decides_by_vertex()) == {3}

    def test_num_rounds(self, message, other_message):
        trace = build_trace(message, other_message)
        assert trace.num_rounds == 12

    def test_repr_is_informative(self, message, other_message):
        text = repr(build_trace(message, other_message))
        assert "rounds=12" in text and "bcasts=2" in text


class TestMessageLifecycles:
    def test_bcast_and_ack_rounds(self, message, other_message):
        trace = build_trace(message, other_message)
        assert trace.bcast_round_for(message) == 2
        assert trace.ack_round_for(message) == 9
        assert trace.ack_round_for(other_message) is None

    def test_active_interval(self, message, other_message):
        trace = build_trace(message, other_message)
        assert trace.active_interval(message) == (2, 9)
        assert trace.active_interval(other_message) == (10, None)
        unknown = Message(origin=9, sequence=0)
        assert trace.active_interval(unknown) is None

    def test_actively_broadcasting(self, message, other_message):
        trace = build_trace(message, other_message)
        # Before the bcast: not active.
        assert trace.actively_broadcasting(0, 1) == []
        # Between bcast and ack (inclusive): active.
        assert trace.actively_broadcasting(0, 2) == [message]
        assert trace.actively_broadcasting(0, 9) == [message]
        # After the ack: no longer active.
        assert trace.actively_broadcasting(0, 10) == []
        # The unacknowledged message stays active forever.
        assert trace.actively_broadcasting(1, 11) == [other_message]

    def test_is_active(self, message, other_message):
        trace = build_trace(message, other_message)
        assert trace.is_active(0, 5)
        assert not trace.is_active(0, 1)
        assert not trace.is_active(2, 5)

    def test_receivers_of(self, message, other_message):
        trace = build_trace(message, other_message)
        assert trace.receivers_of(message) == {1: 5, 2: 7}
        assert trace.receivers_of(other_message) == {}

    def test_receivers_of_keeps_earliest_round(self, message):
        trace = ExecutionTrace()
        trace.record_event(RecvOutput(vertex=1, message=message, round_number=8))
        trace.record_event(RecvOutput(vertex=1, message=message, round_number=4))
        assert trace.receivers_of(message) == {1: 4}


class TestFrameRecording:
    def test_transmissions_and_receptions(self):
        trace = ExecutionTrace()
        trace.note_round(1)
        trace.record_transmissions(1, {0: "frame-a"})
        trace.record_receptions(1, {1: "frame-a", 2: None})
        assert trace.transmissions_in_round(1) == {0: "frame-a"}
        # Null receptions are not stored.
        assert trace.receptions_in_round(1) == {1: "frame-a"}
        assert trace.receptions_in_round(2) == {}

    def test_events_mode_drops_frames(self, message, other_message):
        trace = ExecutionTrace(mode=TraceMode.EVENTS)
        trace.note_round(1)
        trace.record_transmissions(1, {0: "frame"})
        trace.record_receptions(1, {1: "frame"})
        assert trace.transmissions_in_round(1) == {}
        assert trace.receptions_in_round(1) == {}
        # Events are still recorded.
        trace.record_event(BcastInput(vertex=0, message=message, round_number=1))
        assert len(trace.bcast_inputs) == 1

    def test_empty_transmissions_are_not_stored(self):
        trace = ExecutionTrace()
        trace.record_transmissions(1, {})
        assert trace.transmissions_in_round(1) == {}


# ----------------------------------------------------------------------
# The per-message ledger against the scan-based definitions it replaced
# ----------------------------------------------------------------------
def scan_ack_round_for(trace, message):
    for ev in trace.ack_outputs:
        if ev.message.message_id == message.message_id:
            return ev.round_number
    return None


def scan_bcast_round_for(trace, message):
    for ev in trace.bcast_inputs:
        if ev.message.message_id == message.message_id:
            return ev.round_number
    return None


def scan_receivers_of(trace, message):
    result = {}
    for ev in trace.recv_outputs:
        if ev.message.message_id == message.message_id:
            if ev.vertex not in result or ev.round_number < result[ev.vertex]:
                result[ev.vertex] = ev.round_number
    return result


def scan_actively_broadcasting(trace, vertex, round_number):
    result = []
    for ev in trace.bcast_inputs:
        if ev.vertex != vertex or ev.round_number > round_number:
            continue
        ack_round = scan_ack_round_for(trace, ev.message)
        if ack_round is None or ack_round >= round_number:
            result.append(ev.message)
    return result


VERTICES = (0, 1, 2)
ROUNDS = 8
# Two payloads per id: a repeated message id need not be an equal Message.
MESSAGES = tuple(
    Message(origin=origin, sequence=seq, payload=payload)
    for origin in VERTICES
    for seq in (0, 1)
    for payload in ("a", "b")
)
EVENT_KINDS = {"bcast": BcastInput, "ack": AckOutput, "recv": RecvOutput}

# Draws repeat message ids freely, so they cover re-bcasts, double acks, acks
# by a vertex other than the origin, recvs before the bcast, repeated recvs
# and rounds that go backwards in append order.
event_sequences = st.lists(
    st.tuples(
        st.sampled_from(sorted(EVENT_KINDS)),
        st.sampled_from(VERTICES),
        st.sampled_from(MESSAGES),
        st.integers(1, ROUNDS),
    ),
    max_size=30,
)


class TestLedgerMatchesScans:
    @pytest.mark.parametrize("mode", list(TraceMode))
    @settings(max_examples=150, deadline=None)
    @given(events=event_sequences)
    def test_ledger_matches_scans(self, mode, events):
        trace = ExecutionTrace(mode=mode)
        for kind, vertex, message, rnd in events:
            trace.record_event(
                EVENT_KINDS[kind](vertex=vertex, message=message, round_number=rnd)
            )
        for message in MESSAGES:
            bcast_round = scan_bcast_round_for(trace, message)
            ack_round = scan_ack_round_for(trace, message)
            assert trace.bcast_round_for(message) == bcast_round
            assert trace.ack_round_for(message) == ack_round
            assert trace.receivers_of(message) == scan_receivers_of(trace, message)
            expected = None if bcast_round is None else (bcast_round, ack_round)
            assert trace.active_interval(message) == expected
        for vertex in VERTICES:
            for rnd in range(ROUNDS + 2):
                expected = scan_actively_broadcasting(trace, vertex, rnd)
                assert trace.actively_broadcasting(vertex, rnd) == expected
                assert trace.is_active(vertex, rnd) == bool(expected)
        by_vertex = {}
        for ev in trace.bcast_inputs:
            by_vertex.setdefault(ev.vertex, []).append(ev)
        assert trace.bcasts_by_vertex() == by_vertex
        if mode is TraceMode.COUNTERS:
            assert trace.bcasts_by_vertex() == {}
            assert all(trace.receivers_of(m) == {} for m in MESSAGES)
