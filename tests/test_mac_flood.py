"""Unit tests for the flooding application on the abstract MAC layer."""

import random

import pytest

from repro.core.params import LBParams
from repro.dualgraph.adversary import IIDScheduler
from repro.dualgraph.generators import line_network
from repro.mac.applications.flood import FloodClient, FloodResult, FloodToken, run_flood


@pytest.fixture
def params():
    # Generous body length so a hop-by-hop relay across a short line is
    # near-certain to complete within the run_flood default phase budget.
    return LBParams.small_for_testing(delta=4, delta_prime=8, tprog=120, tack_phases=2,
                                      seed_phase_length=4)


class FakeApi:
    def __init__(self, vertex=0):
        self.vertex = vertex
        self.submitted = []

    def mac_bcast(self, payload):
        self.submitted.append(payload)
        return True


class TestFloodClient:
    def test_source_submits_at_start(self):
        client = FloodClient(vertex=0, is_source=True)
        api = FakeApi()
        client.on_mac_start(api)
        assert client.received_round == 0
        assert client.relayed
        assert len(api.submitted) == 1
        assert api.submitted[0].hops == 0

    def test_non_source_waits_for_the_token(self):
        client = FloodClient(vertex=1, is_source=False)
        api = FakeApi(vertex=1)
        client.on_mac_start(api)
        assert client.received_round is None
        assert api.submitted == []

    def test_first_reception_triggers_relay(self):
        client = FloodClient(vertex=1, is_source=False)
        api = FakeApi(vertex=1)
        client.on_mac_start(api)
        client.on_mac_recv(FloodToken(flood_id="flood", hops=2), round_number=17)
        assert client.received_round == 17
        assert client.received_hops == 2
        assert len(api.submitted) == 1
        assert api.submitted[0].hops == 3

    def test_second_reception_does_not_relay_again(self):
        client = FloodClient(vertex=1, is_source=False)
        api = FakeApi(vertex=1)
        client.on_mac_start(api)
        client.on_mac_recv(FloodToken(flood_id="flood", hops=1), round_number=5)
        client.on_mac_recv(FloodToken(flood_id="flood", hops=4), round_number=9)
        assert len(api.submitted) == 1
        assert client.received_round == 5

    def test_foreign_payloads_are_ignored(self):
        client = FloodClient(vertex=1, is_source=False)
        api = FakeApi(vertex=1)
        client.on_mac_start(api)
        client.on_mac_recv("unrelated payload", round_number=3)
        client.on_mac_recv(FloodToken(flood_id="other", hops=0), round_number=4)
        assert client.received_round is None
        assert api.submitted == []

    def test_ack_is_recorded(self):
        client = FloodClient(vertex=0, is_source=True)
        api = FakeApi()
        client.on_mac_start(api)
        client.on_mac_ack(FloodToken(flood_id="flood", hops=0), round_number=40)
        assert client.relay_ack_round == 40


class TestFloodResult:
    def test_coverage_and_completion(self):
        result = FloodResult(source=0, rounds_run=100,
                             receive_rounds={0: 0, 1: 30, 2: 60},
                             receive_hops={0: 0, 1: 1, 2: 2})
        assert result.covered == 3
        assert result.coverage == 1.0
        assert result.complete
        assert result.completion_round == 60

    def test_incomplete_flood(self):
        result = FloodResult(source=0, rounds_run=100,
                             receive_rounds={0: 0, 1: 30, 2: None})
        assert result.covered == 2
        assert result.coverage == pytest.approx(2 / 3)
        assert not result.complete
        assert result.completion_round is None


class TestRunFlood:
    def test_flood_covers_a_short_line(self, params):
        graph, _ = line_network(3, spacing=0.9)
        result = run_flood(graph, params, source=0, rng=random.Random(1))
        assert result.complete
        assert result.receive_rounds[0] == 0
        assert result.receive_rounds[2] is not None
        # The far end needs at least one relay, so it is reached strictly
        # later than the middle vertex.
        assert result.receive_rounds[2] >= result.receive_rounds[1]

    def test_flood_with_unreliable_links(self, params):
        graph, _ = line_network(3, spacing=0.9)
        scheduler = IIDScheduler(graph, probability=0.5, seed=2)
        result = run_flood(graph, params, source=0, scheduler=scheduler, rng=random.Random(3))
        assert result.coverage == 1.0

    def test_hop_counts_grow_along_the_line(self, params):
        graph, _ = line_network(4, spacing=0.9)
        result = run_flood(graph, params, source=0, rng=random.Random(5))
        assert result.complete
        assert result.receive_hops[0] == 0
        assert result.receive_hops[3] >= 1

    def test_unknown_source_rejected(self, params):
        graph, _ = line_network(3)
        with pytest.raises(KeyError):
            run_flood(graph, params, source=99)

    def test_max_phase_cap_limits_the_run(self, params):
        graph, _ = line_network(5, spacing=0.9)
        result = run_flood(graph, params, source=0, rng=random.Random(7), max_phases=1)
        assert result.rounds_run <= params.phase_length


class TestFloodScenario:
    def _spec(self, environment):
        from repro.scenarios import (
            AlgorithmSpec,
            EnvironmentSpec,
            RunPolicy,
            ScenarioSpec,
            SchedulerSpec,
            TopologySpec,
        )

        return ScenarioSpec(
            name="flood-scenario",
            topology=TopologySpec("line", {"n": 4}),
            algorithm=AlgorithmSpec("flood", {"epsilon": 0.2, "compact_tack": True}),
            scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": 1}),
            environment=environment,
            run=RunPolicy(rounds=1, rounds_unit="algorithm", master_seed=1, seed_policy="fixed"),
        )

    def test_the_mac_environment_drives_the_population(self):
        from repro.mac.adapter import MacEnvironment
        from repro.scenarios import EnvironmentSpec, materialize

        built = materialize(self._spec(EnvironmentSpec("null", {})))
        assert isinstance(built.environment, MacEnvironment)
        assert built.simulator.environment is built.environment
        built.simulator.run(built.total_rounds)
        clients = built.algorithm_build.extras["flood_clients"]
        assert all(c.received_round is not None for c in clients.values())
        assert built.simulator.perf_stats["rounds_skipped"] > 0

    def test_a_spec_environment_is_rejected(self):
        from repro.scenarios import EnvironmentSpec, materialize

        spec = self._spec(EnvironmentSpec("saturating", {"senders": [0]}))
        with pytest.raises(ValueError, match="'flood'.*'saturating'"):
            materialize(spec)
