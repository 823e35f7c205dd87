"""Unit tests for the abstract MAC layer interface and adapter."""

import random

import pytest

from repro.core.events import AckOutput, BcastInput, RecvOutput
from repro.core.local_broadcast import make_lb_processes
from repro.core.params import LBParams
from repro.dualgraph.generators import line_network
from repro.mac.adapter import MacEnvironment
from repro.mac.spec import MacClient, MacLayerGuarantees
from repro.simulation.engine import Simulator


@pytest.fixture
def params():
    return LBParams.small_for_testing(delta=4, delta_prime=8, tprog=10, tack_phases=2,
                                      seed_phase_length=4)


class RecordingClient(MacClient):
    """A MAC client that records every callback it receives."""

    def __init__(self):
        self.started_with = None
        self.recvs = []
        self.acks = []

    def on_mac_start(self, api):
        self.started_with = api

    def on_mac_recv(self, payload, round_number):
        self.recvs.append((payload, round_number))

    def on_mac_ack(self, payload, round_number):
        self.acks.append((payload, round_number))


class EagerClient(RecordingClient):
    """Submits one payload at start-up."""

    def __init__(self, payload="hello"):
        super().__init__()
        self.payload = payload

    def on_mac_start(self, api):
        super().on_mac_start(api)
        api.mac_bcast(self.payload)


class TestMacLayerGuarantees:
    def test_from_lb_params(self, params):
        guarantees = MacLayerGuarantees.from_lb_params(params)
        assert guarantees.f_prog == params.tprog_rounds
        assert guarantees.f_ack == params.tack_rounds
        assert guarantees.epsilon == params.epsilon

    def test_validation(self):
        with pytest.raises(ValueError):
            MacLayerGuarantees(f_ack=5, f_prog=10, epsilon=0.1)
        with pytest.raises(ValueError):
            MacLayerGuarantees(f_ack=10, f_prog=5, epsilon=0.0)


class TestMacClientDefaults:
    def test_default_hooks_are_noops(self):
        client = MacClient()
        client.on_mac_start(api=None)
        client.on_mac_recv("payload", 1)
        client.on_mac_ack("payload", 1)


def build_network(params, clients, graph=None):
    if graph is None:
        graph, _ = line_network(len(clients), spacing=0.9)
    environment = MacEnvironment(clients)
    simulator = Simulator(
        graph, make_lb_processes(graph, params, random.Random(0)), environment=environment
    )
    return graph, simulator


class TestMacEnvironment:
    def test_clients_get_started_with_their_handle(self, params):
        clients = {0: RecordingClient(), 1: RecordingClient()}
        build_network(params, clients)
        for vertex, client in clients.items():
            assert client.started_with is not None
            assert client.started_with.vertex == vertex
            assert callable(client.started_with.mac_bcast)

    def test_submission_becomes_a_bcast_event(self, params):
        clients = {0: EagerClient(), 1: RecordingClient()}
        _, sim = build_network(params, clients)
        trace = sim.run(1)
        assert len(trace.bcast_inputs) == 1
        assert trace.bcast_inputs[0].vertex == 0
        assert trace.bcast_inputs[0].message.payload == "hello"
        assert trace.bcast_inputs[0].round_number == 1

    def test_ack_callback_fires_after_tack_phases(self, params):
        clients = {0: EagerClient(), 1: RecordingClient()}
        _, sim = build_network(params, clients)
        sim.run(params.tack_phases * params.phase_length + params.phase_length)
        assert clients[0].acks, "the submitting client must eventually see its ack"
        payload, round_number = clients[0].acks[0]
        assert payload == "hello"
        assert sim.trace.acks_by_vertex()[0][0].round_number == round_number

    def test_recv_callback_fires_at_neighbors(self, params):
        clients = {0: EagerClient(), 1: RecordingClient()}
        _, sim = build_network(params, clients)
        sim.run(params.tack_phases * params.phase_length + params.phase_length)
        assert clients[1].recvs, "the reliable neighbor should hear the payload"
        assert clients[1].recvs[0][0] == "hello"

    def test_queueing_while_busy(self, params):
        class DoubleSubmit(RecordingClient):
            def on_mac_start(self, api):
                super().on_mac_start(api)
                assert api.mac_bcast("first") is True
                assert api.mac_bcast("second") is False  # queued

        clients = {0: DoubleSubmit(), 1: RecordingClient()}
        _, sim = build_network(params, clients)
        environment = sim.environment
        sim.run(1)
        assert environment.outstanding_message(0).payload == "first"
        # After enough rounds the first is acked and the second goes out.
        sim.run(2 * (params.tack_phases + 1) * params.phase_length)
        payloads = [p for p, _ in clients[0].acks]
        assert payloads[:2] == ["first", "second"]
        assert [m.payload for m in environment.submitted_messages] == ["first", "second"]
        # The second bcast follows the first's ack by one round.
        first_ack = clients[0].acks[0][1]
        assert sim.trace.bcast_inputs[1].round_number == first_ack + 1

    def test_mac_trace_is_checkable_by_lb_spec(self, params):
        from repro.core.lb_spec import check_lb_execution

        clients = {0: EagerClient(), 1: RecordingClient(), 2: RecordingClient()}
        graph, sim = build_network(params, clients)
        trace = sim.run((params.tack_phases + 1) * params.phase_length)
        report = check_lb_execution(trace, graph, params.tack_rounds, params.tprog_rounds,
                                    check_progress=False)
        assert report.deterministic_ok

    def test_lbalg_population_is_batched_and_skips_silent_rounds(self, params):
        clients = {0: EagerClient(), 1: RecordingClient(), 2: RecordingClient()}
        _, sim = build_network(params, clients)
        sim.run(2 * (params.tack_phases + 1) * params.phase_length)
        assert sim.lane == "kernel"
        assert sim.uses_batch_stepping
        assert sim.perf_stats["rounds_skipped"] > 0
        assert clients[0].acks


class TestOtherBroadcastPopulations:
    @staticmethod
    def _decay_run(batch_path):
        from repro.baselines.factory import make_baseline_processes

        graph, _ = line_network(4, spacing=0.9)
        clients = {v: EagerClient(payload=f"p{v}") for v in graph.vertices}
        sim = Simulator(
            graph,
            make_baseline_processes(graph, "decay", random.Random(0), num_cycles=2),
            environment=MacEnvironment(clients),
            batch_path=batch_path,
        )
        sim.run(200)
        return sim, clients

    def test_batched_decay_population_backs_the_layer(self):
        from repro.baselines.base import BaselineBatchDriver

        sim, clients = self._decay_run(batch_path=True)
        reference, reference_clients = self._decay_run(batch_path=False)
        assert [type(d) for d in sim.batch_drivers] == [BaselineBatchDriver]
        assert sim.perf_stats["rounds_skipped"] > 0
        assert reference.perf_stats["rounds_skipped"] == 0
        for vertex, client in clients.items():
            assert [p for p, _ in client.acks] == [f"p{vertex}"]
            assert client.acks == reference_clients[vertex].acks
            assert client.recvs == reference_clients[vertex].recvs
        assert sim.trace.events == reference.trace.events


def _flood_clients(graph):
    from repro.mac.applications.flood import FloodClient

    source = min(graph.vertices)
    return {v: FloodClient(v, is_source=(v == source)) for v in graph.vertices}


def _discovery_clients(graph):
    from repro.mac.applications.neighbor_discovery import NeighborDiscoveryClient

    return {v: NeighborDiscoveryClient(v) for v in graph.vertices}


def _multi_message_clients(graph):
    from repro.mac.applications.multi_message import MultiMessageClient, Token

    sources = sorted(graph.vertices)[:2]
    return {
        v: MultiMessageClient(
            v, own_tokens=[Token(f"token-{v}", v)] if v in sources else ()
        )
        for v in graph.vertices
    }


MAC_POPULATIONS = {
    "flood": _flood_clients,
    "neighbor_discovery": _discovery_clients,
    "multi_message": _multi_message_clients,
}


class TestKernelMatchesReference:
    """A MAC-hosting LBAlg population on the production lane (kernel
    resolver, batched cohorts, silent-round skipping) observes exactly the
    reference execution, also when its runs end inside LBAlg bodies."""

    @staticmethod
    def _run(make_clients, reference, steps):
        from repro.dualgraph.adversary import IIDScheduler
        from repro.dualgraph.generators import random_geographic_network

        graph = random_geographic_network(12, side=2.6, rng=5, require_connected=True)[0]
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree,
            delta_prime=graph.max_potential_degree,
            tack_phases=2,
        )
        clients = make_clients(graph)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(13)),
            scheduler=IIDScheduler(graph, probability=0.5, seed=7),
            environment=MacEnvironment(clients),
            fast_path=not reference,
            batch_path=not reference,
        )
        rng_states = []
        for step in steps(params):
            simulator.run(step)
            rng_states.append(
                [simulator.process_at(v).rng.getstate() for v in sorted(graph.vertices)]
            )
        client_states = {
            v: {k: val for k, val in vars(c).items() if k != "_api"}
            for v, c in clients.items()
        }
        return simulator, rng_states, client_states

    @pytest.mark.parametrize("population", sorted(MAC_POPULATIONS))
    @pytest.mark.parametrize("split", ["whole", "mid_body"])
    def test_production_lane_observes_the_reference_execution(self, population, split):
        def steps(params):
            rounds = 5 * params.phase_length
            if split == "whole":
                return [rounds]
            # Boundaries land inside seed phases and bodies alike.
            chunks, done = [], 0
            for step in [5, params.ts + 3, params.phase_length - 2, 17] * rounds:
                step = min(step, rounds - done)
                chunks.append(step)
                done += step
                if done == rounds:
                    return chunks

        make_clients = MAC_POPULATIONS[population]
        kernel, kernel_rngs, kernel_clients = self._run(make_clients, False, steps)
        reference, reference_rngs, reference_clients = self._run(make_clients, True, steps)
        assert kernel.lane == "kernel" and kernel.uses_batch_stepping
        assert reference.lane == "reference" and not reference.uses_batch_stepping
        assert kernel.perf_stats["rounds_skipped"] > 0
        assert reference.perf_stats["rounds_skipped"] == 0

        trace, reference_trace = kernel.trace, reference.trace
        assert trace.num_rounds == reference_trace.num_rounds
        assert trace.events == reference_trace.events
        assert trace.event_counts["ack"] > 0 and trace.event_counts["recv"] > 0
        for round_number in range(1, trace.num_rounds + 1):
            assert trace.transmissions_in_round(
                round_number
            ) == reference_trace.transmissions_in_round(round_number)
            assert trace.receptions_in_round(
                round_number
            ) == reference_trace.receptions_in_round(round_number)
        assert kernel_rngs == reference_rngs
        assert kernel_clients == reference_clients
