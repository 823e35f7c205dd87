"""Unit tests for the round engine and its radio collision rules."""

from typing import Optional

import pytest

from repro.core.messages import Message
from repro.dualgraph.adversary import NoUnreliableScheduler, TraceScheduler
from repro.dualgraph.graph import DualGraph
from repro.simulation.engine import Simulator
from repro.simulation.environment import NullEnvironment, SingleShotEnvironment
from repro.simulation.process import Process, ProcessContext, SilentProcess


class AlwaysTransmit(Process):
    """Transmits a fixed frame every round; used to stage collisions."""

    def __init__(self, ctx, frame="beep"):
        super().__init__(ctx)
        self.frame = frame
        self.received = []

    def transmit(self, round_number: int):
        return self.frame

    def on_receive(self, round_number: int, frame):
        self.received.append((round_number, frame))


class Listener(Process):
    """Never transmits; records everything it hears."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.received = []

    def transmit(self, round_number: int):
        return None

    def on_receive(self, round_number: int, frame):
        self.received.append((round_number, frame))


def _ctx(vertex):
    return ProcessContext(vertex=vertex, delta=8, delta_prime=8)


def build(graph, processes, scheduler=None, environment=None):
    return Simulator(graph, processes, scheduler=scheduler, environment=environment)


class TestConstruction:
    def test_missing_process_rejected(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        with pytest.raises(ValueError):
            Simulator(graph, {0: SilentProcess(_ctx(0))})

    def test_extra_process_rejected(self):
        graph = DualGraph(vertices=[0], reliable_edges=[])
        with pytest.raises(ValueError):
            Simulator(graph, {0: SilentProcess(_ctx(0)), 1: SilentProcess(_ctx(1))})

    def test_negative_rounds_rejected(self):
        graph = DualGraph(vertices=[0])
        sim = Simulator(graph, {0: SilentProcess(_ctx(0))})
        with pytest.raises(ValueError):
            sim.run(-1)


class TestCollisionRules:
    def test_single_transmitter_is_heard_by_reliable_neighbor(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        sender = AlwaysTransmit(_ctx(0))
        listener = Listener(_ctx(1))
        sim = build(graph, {0: sender, 1: listener})
        sim.run(3)
        assert listener.received == [(1, "beep"), (2, "beep"), (3, "beep")]

    def test_two_transmitting_neighbors_collide(self):
        graph = DualGraph(vertices=[0, 1, 2], reliable_edges=[(0, 2), (1, 2)])
        a = AlwaysTransmit(_ctx(0), frame="A")
        b = AlwaysTransmit(_ctx(1), frame="B")
        listener = Listener(_ctx(2))
        sim = build(graph, {0: a, 1: b, 2: listener})
        sim.run(2)
        # Both neighbors transmit every round: the listener hears nothing.
        assert listener.received == [(1, None), (2, None)]

    def test_no_collision_detection_silence_equals_collision(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        listener = Listener(_ctx(1))
        silent = SilentProcess(_ctx(0))
        sim = build(graph, {0: silent, 1: listener})
        sim.run(1)
        assert listener.received == [(1, None)]

    def test_transmitter_does_not_hear_anything(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        a = AlwaysTransmit(_ctx(0), frame="A")
        b = AlwaysTransmit(_ctx(1), frame="B")
        sim = build(graph, {0: a, 1: b})
        sim.run(1)
        assert a.received == [(1, None)]
        assert b.received == [(1, None)]

    def test_non_neighbor_transmissions_are_not_heard(self):
        graph = DualGraph(vertices=[0, 1, 2], reliable_edges=[(0, 1)])
        sender = AlwaysTransmit(_ctx(0))
        near = Listener(_ctx(1))
        far = Listener(_ctx(2))
        sim = build(graph, {0: sender, 1: near, 2: far})
        sim.run(1)
        assert near.received == [(1, "beep")]
        assert far.received == [(1, None)]

    def test_unreliable_edge_only_delivers_when_scheduled(self):
        graph = DualGraph(vertices=[0, 1], unreliable_edges=[(0, 1)])
        sender = AlwaysTransmit(_ctx(0))
        listener = Listener(_ctx(1))
        scheduler = TraceScheduler(graph, schedule=[[(0, 1)], []], cycle=True)
        sim = build(graph, {0: sender, 1: listener}, scheduler=scheduler)
        sim.run(4)
        assert listener.received == [(1, "beep"), (2, None), (3, "beep"), (4, None)]

    def test_unreliable_edge_can_cause_collisions(self):
        # Vertex 2 reliably hears 0; when the scheduler adds edge (1,2), the
        # second transmitter collides with the first.
        graph = DualGraph(
            vertices=[0, 1, 2], reliable_edges=[(0, 2)], unreliable_edges=[(1, 2)]
        )
        a = AlwaysTransmit(_ctx(0), frame="A")
        b = AlwaysTransmit(_ctx(1), frame="B")
        listener = Listener(_ctx(2))
        scheduler = TraceScheduler(graph, schedule=[[], [(1, 2)]], cycle=True)
        sim = build(graph, {0: a, 1: b, 2: listener}, scheduler=scheduler)
        sim.run(4)
        assert listener.received == [(1, "A"), (2, None), (3, "A"), (4, None)]


class TestEngineBookkeeping:
    def test_trace_records_transmissions_and_receptions(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        sim = build(graph, {0: AlwaysTransmit(_ctx(0)), 1: Listener(_ctx(1))})
        trace = sim.run(2)
        assert trace.transmissions_in_round(1) == {0: "beep"}
        assert trace.receptions_in_round(1) == {1: "beep"}
        assert trace.num_rounds == 2

    def test_current_round_advances(self):
        graph = DualGraph(vertices=[0])
        sim = build(graph, {0: SilentProcess(_ctx(0))})
        assert sim.current_round == 0
        sim.run(3)
        assert sim.current_round == 3
        sim.run(2)
        assert sim.current_round == 5

    def test_environment_inputs_reach_processes_and_trace(self):
        received_inputs = []

        class Recorder(SilentProcess):
            def on_input(self, round_number, inp):
                received_inputs.append((round_number, inp))

        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        env = SingleShotEnvironment(senders=[0])
        sim = build(graph, {0: Recorder(_ctx(0)), 1: SilentProcess(_ctx(1))}, environment=env)
        trace = sim.run(1)
        assert len(received_inputs) == 1
        assert isinstance(received_inputs[0][1], Message)
        assert len(trace.bcast_inputs) == 1

    def test_invalid_environment_input_type_raises(self):
        class BadEnvironment(NullEnvironment):
            def inputs_for_round(self, round_number):
                return {0: ["not a message"]}

        graph = DualGraph(vertices=[0])
        sim = build(graph, {0: SilentProcess(_ctx(0))}, environment=BadEnvironment())
        with pytest.raises(TypeError):
            sim.run(1)

    def test_run_until_stops_at_predicate(self):
        graph = DualGraph(vertices=[0, 1], reliable_edges=[(0, 1)])
        listener = Listener(_ctx(1))
        sim = build(graph, {0: AlwaysTransmit(_ctx(0)), 1: listener})
        sim.run_until(lambda trace: trace.num_rounds >= 5, max_rounds=50, check_every=1)
        assert sim.current_round == 5

    def test_run_until_respects_max_rounds(self):
        graph = DualGraph(vertices=[0])
        sim = build(graph, {0: SilentProcess(_ctx(0))})
        sim.run_until(lambda trace: False, max_rounds=7, check_every=3)
        assert sim.current_round == 7

    @pytest.mark.parametrize("check_every", [0, -2])
    def test_run_until_rejects_non_positive_check_every(self, check_every):
        # run(0) makes no progress, so check_every=0 used to loop forever.
        graph = DualGraph(vertices=[0])
        sim = build(graph, {0: SilentProcess(_ctx(0))})
        with pytest.raises(ValueError, match="check_every must be at least 1"):
            sim.run_until(lambda trace: False, max_rounds=7, check_every=check_every)
        assert sim.current_round == 0

    def test_outputs_are_recorded_in_trace(self):
        from repro.core.events import RecvOutput
        from repro.core.messages import make_message

        class Emitter(SilentProcess):
            def on_receive(self, round_number, frame):
                if round_number == 2:
                    self.emit(RecvOutput(vertex=self.vertex, message=make_message(9), round_number=2))

        graph = DualGraph(vertices=[0])
        sim = build(graph, {0: Emitter(_ctx(0))})
        trace = sim.run(3)
        assert len(trace.recv_outputs) == 1
        assert trace.recv_outputs[0].round_number == 2
