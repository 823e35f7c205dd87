"""Unit tests for trace metrics (acks, deliveries, progress, seed owners)."""

import pytest

from repro.core.events import AckOutput, BcastInput, DecideOutput, RecvOutput
from repro.core.local_broadcast import DataFrame
from repro.core.messages import Message
from repro.dualgraph.graph import DualGraph
from repro.simulation.metrics import (
    ack_delays,
    data_reception_rounds,
    delivery_report,
    progress_report,
    receive_rates,
    unique_seed_owner_counts,
)
from repro.simulation.trace import ExecutionTrace


@pytest.fixture
def star():
    """Vertex 0 with reliable neighbors 1, 2 and a potential neighbor 3."""
    return DualGraph(
        vertices=[0, 1, 2, 3],
        reliable_edges=[(0, 1), (0, 2)],
        unreliable_edges=[(0, 3)],
    )


def make_trace(num_rounds=20):
    trace = ExecutionTrace()
    trace.note_round(num_rounds)
    return trace


class TestAckDelays:
    def test_delay_computation(self):
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=3))
        trace.record_event(AckOutput(vertex=0, message=m, round_number=10))
        records = ack_delays(trace)
        assert len(records) == 1
        assert records[0].delay == 7

    def test_unacknowledged_message_has_no_delay(self):
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=3))
        records = ack_delays(trace)
        assert records[0].ack_round is None
        assert records[0].delay is None


class TestDeliveryReport:
    def test_full_delivery_before_ack(self, star):
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=1))
        trace.record_event(RecvOutput(vertex=1, message=m, round_number=4))
        trace.record_event(RecvOutput(vertex=2, message=m, round_number=6))
        trace.record_event(AckOutput(vertex=0, message=m, round_number=9))
        records = delivery_report(trace, star)
        assert len(records) == 1
        record = records[0]
        assert record.fully_delivered
        assert record.delivery_fraction == 1.0
        assert set(record.reliable_neighbors) == {1, 2}

    def test_late_delivery_does_not_count(self, star):
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=1))
        trace.record_event(RecvOutput(vertex=1, message=m, round_number=4))
        trace.record_event(AckOutput(vertex=0, message=m, round_number=9))
        trace.record_event(RecvOutput(vertex=2, message=m, round_number=12))
        record = delivery_report(trace, star)[0]
        assert not record.fully_delivered
        assert record.delivery_fraction == 0.5
        assert set(record.delivered_ever) == {1, 2}

    def test_non_neighbor_receptions_are_ignored(self, star):
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=1))
        trace.record_event(RecvOutput(vertex=3, message=m, round_number=4))
        trace.record_event(AckOutput(vertex=0, message=m, round_number=9))
        record = delivery_report(trace, star)[0]
        assert record.delivered_before_ack == ()

    def test_sender_with_no_neighbors_is_trivially_delivered(self):
        graph = DualGraph(vertices=[0])
        trace = make_trace()
        m = Message(origin=0, sequence=0)
        trace.record_event(BcastInput(vertex=0, message=m, round_number=1))
        trace.record_event(AckOutput(vertex=0, message=m, round_number=5))
        record = delivery_report(trace, graph)[0]
        assert record.fully_delivered
        assert record.delivery_fraction == 1.0


class TestProgressReport:
    def _active_sender_trace(self, num_rounds=20, bcast_round=1, ack_round=None):
        trace = make_trace(num_rounds)
        m = Message(origin=1, sequence=0)
        trace.record_event(BcastInput(vertex=1, message=m, round_number=bcast_round))
        if ack_round is not None:
            trace.record_event(AckOutput(vertex=1, message=m, round_number=ack_round))
        return trace, m

    def test_window_applies_when_neighbor_active_throughout(self, star):
        trace, m = self._active_sender_trace(num_rounds=20)
        # Vertex 0 hears a data frame in round 12 (window 2: rounds 11-20).
        trace.record_receptions(12, {0: DataFrame(message=m)})
        report = progress_report(trace, star, window=10, receivers=[0])
        assert len(report.windows) == 2
        first, second = report.windows
        assert first.had_active_neighbor and second.had_active_neighbor
        assert not first.received_something and second.received_something
        assert report.failure_rate == 0.5

    def test_window_does_not_apply_without_active_neighbor(self, star):
        trace = make_trace(10)
        report = progress_report(trace, star, window=5, receivers=[0])
        assert report.num_applicable == 0
        assert report.failure_rate == 0.0

    def test_partially_active_window_does_not_apply(self, star):
        # Sender becomes active at round 6: the first 10-round window is not
        # fully covered, the second is.
        trace, _ = self._active_sender_trace(num_rounds=20, bcast_round=6)
        report = progress_report(trace, star, window=10, receivers=[0])
        assert [w.had_active_neighbor for w in report.windows] == [False, True]

    def test_ack_mid_window_ends_applicability(self, star):
        trace, _ = self._active_sender_trace(num_rounds=20, bcast_round=1, ack_round=15)
        report = progress_report(trace, star, window=10, receivers=[0])
        assert [w.had_active_neighbor for w in report.windows] == [True, False]

    def test_back_to_back_messages_keep_neighbor_active(self, star):
        trace = make_trace(20)
        m1 = Message(origin=1, sequence=0)
        m2 = Message(origin=1, sequence=1)
        trace.record_event(BcastInput(vertex=1, message=m1, round_number=1))
        trace.record_event(AckOutput(vertex=1, message=m1, round_number=8))
        trace.record_event(BcastInput(vertex=1, message=m2, round_number=9))
        report = progress_report(trace, star, window=10, receivers=[0])
        assert report.windows[0].had_active_neighbor

    def test_seed_frames_do_not_count_as_progress(self, star):
        from repro.core.seed_agreement import SeedFrame

        trace, _ = self._active_sender_trace(num_rounds=10)
        trace.record_receptions(3, {0: SeedFrame(owner=1, seed=5)})
        report = progress_report(trace, star, window=10, receivers=[0])
        assert report.windows[0].progress_satisfied is False

    def test_use_frames_false_falls_back_to_recv_outputs(self, star):
        trace, m = self._active_sender_trace(num_rounds=10)
        trace.record_event(RecvOutput(vertex=0, message=m, round_number=4))
        report = progress_report(trace, star, window=10, receivers=[0], use_frames=False)
        assert report.windows[0].progress_satisfied is True

    def test_invalid_window_rejected(self, star):
        trace = make_trace(10)
        with pytest.raises(ValueError):
            progress_report(trace, star, window=0)


class TestSeedOwnerCounts:
    def test_counts_distinct_owners_in_closed_gprime_neighborhood(self, star):
        trace = make_trace(5)
        trace.record_event(DecideOutput(vertex=0, owner=0, seed=1, round_number=2))
        trace.record_event(DecideOutput(vertex=1, owner=0, seed=1, round_number=2))
        trace.record_event(DecideOutput(vertex=2, owner=2, seed=9, round_number=3))
        trace.record_event(DecideOutput(vertex=3, owner=3, seed=4, round_number=3))
        counts = unique_seed_owner_counts(trace, star)
        # Vertex 0 sees owners {0, 2, 3} (its G' neighborhood is everyone).
        assert counts[0] == 3
        # Vertex 1's closed neighborhood is {0, 1}: owners {0}.
        assert counts[1] == 1
        # Vertex 3's closed neighborhood is {0, 3}: owners {0, 3}.
        assert counts[3] == 2

    def test_vertices_without_decides_count_zero(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        trace = make_trace(5)
        counts = unique_seed_owner_counts(trace, graph)
        assert counts == {0: 0, 1: 0}


class TestReceptionHelpers:
    def test_data_reception_rounds_filters_control_frames(self):
        from repro.core.seed_agreement import SeedFrame

        trace = make_trace(6)
        m = Message(origin=0, sequence=0)
        trace.record_receptions(2, {1: DataFrame(message=m)})
        trace.record_receptions(4, {1: SeedFrame(owner=0, seed=3)})
        trace.record_receptions(5, {1: DataFrame(message=m)})
        assert data_reception_rounds(trace, 1) == [2, 5]

    def test_receive_rates(self):
        trace = make_trace(10)
        m = Message(origin=0, sequence=0)
        for rnd in (2, 4, 6):
            trace.record_receptions(rnd, {1: DataFrame(message=m)})
        assert receive_rates(trace, 1, 10)[1] / 10 == pytest.approx(0.3)
        assert receive_rates(trace, 3, 10) == {1: 2}
        with pytest.raises(ValueError):
            receive_rates(trace, 5, 4)
