"""Tests for the traffic subsystem (repro.traffic + its scenario wiring).

Covers the arrival processes (determinism, sequential-consumption contract,
rate calibration), the queue-backed environment's delivery accounting, the
traffic-aware scheduler family (routing tree, slot disjointness, delta-cache
signatures), the ``TrafficSpec`` serialization contract (JSON round-trip,
cross-process fingerprint stability, byte-identical serialization for
traffic-free specs), engine-lane parity for queued workloads, and the
serial-vs-parallel row identity of traffic runs.

Lane note: :class:`~repro.traffic.environment.QueuedEnvironment` overrides
``_on_recv`` for delivery tracking; the engine materializes recv events under
every trace mode, so queued workloads take the kernel lane like any other
oblivious-scheduler run.  The parity tests below cover the kernel and the
reference lanes, and the lane report is asserted explicitly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import AckOutput
from repro.core.seedbits import SeedBitStream
from repro.dualgraph.generators import two_clusters_network
from repro.dualgraph.graph import DualGraph, normalize_edge
from repro.scenarios.components import network_with_target_degree
from repro.scenarios.registry import ENVIRONMENTS, SCHEDULERS
from repro.scenarios.runtime import materialize, run, run_many, run_trial
from repro.scenarios.spec import (
    AlgorithmSpec,
    ArrivalSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.traffic import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    ConvergecastArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    QueuedEnvironment,
    TrafficAwareScheduler,
    build_arrival_process,
    build_routing_tree,
    derive_stream_seed,
    subtree_loads,
)
from repro.traffic.arrivals import _WINDOW


def _traffic_spec(scheduler="tasa", scheduler_args=None, rate=0.05, trials=2, **over):
    base = dict(
        name=f"traffic-test-{scheduler}-{rate}",
        topology=TopologySpec("target_degree", {"target_delta": 8, "seed": 11}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        scheduler=SchedulerSpec(scheduler, dict(scheduler_args or {})),
        environment=EnvironmentSpec("queued", {}),
        run=RunPolicy(rounds=1, rounds_unit="tack", trials=trials, master_seed=7),
        metrics=(MetricSpec("queue"),),
        traffic=TrafficSpec(arrival=ArrivalSpec("poisson", {"rate": rate}), sinks=(0,)),
    )
    base.update(over)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_streams_are_deterministic_and_seed_sensitive(self):
        rounds = 200
        realizations = []
        for seed in (3, 3, 4):
            p = PoissonArrivals(sources=range(6), sinks=(), seed=seed, rate=0.3)
            realizations.append(
                [tuple(p.arrivals_for_round(r)) for r in range(1, rounds + 1)]
            )
        assert realizations[0] == realizations[1]
        assert realizations[0] != realizations[2]

    def test_sequential_consumption_is_enforced(self):
        p = PoissonArrivals(sources=[0], sinks=(), seed=1, rate=0.5)
        p.arrivals_for_round(1)
        with pytest.raises(ValueError, match="in order"):
            p.arrivals_for_round(3)
        with pytest.raises(ValueError, match="in order"):
            p.arrivals_for_round(1)  # no replays either

    def test_poisson_rate_is_calibrated(self):
        # The stream seed fills the full kappa bits; a narrower seed would
        # leave leading zeros and inflate every early draw (regression: the
        # empirical rate at 0.002 once came out 4x high).
        for rate in (0.002, 0.1):
            p = PoissonArrivals(sources=range(10), sinks=(), seed=5, rate=rate)
            total = sum(len(p.arrivals_for_round(r)) for r in range(1, 4001))
            assert total / 40000 == pytest.approx(rate, rel=0.25)

    def test_stream_seed_derivation_is_stable_and_wide(self):
        value = derive_stream_seed(7, 3)
        assert value == derive_stream_seed(7, 3)
        assert value != derive_stream_seed(7, 4)
        assert value != derive_stream_seed(8, 3)
        assert value != derive_stream_seed(7, 3, salt="offset")
        # full 256-bit digests: at least one of these has high bits set
        assert max(derive_stream_seed(7, v).bit_length() for v in range(8)) > 200

    def test_periodic_and_bursty_emit_on_schedule(self):
        periodic = PeriodicArrivals(sources=[0, 1], sinks=(), seed=2, period=4)
        bursty = BurstyArrivals(sources=[0], sinks=(), seed=2, burst=3, period=5)
        periodic_counts = {0: 0, 1: 0}
        burst_sizes = set()
        for r in range(1, 21):
            for v, count in periodic.arrivals_for_round(r):
                periodic_counts[v] += count
            for _v, count in bursty.arrivals_for_round(r):
                burst_sizes.add(count)
        assert periodic_counts == {0: 5, 1: 5}  # once per period each
        assert burst_sizes == {3}
        assert periodic.expected_rate(0) == 0.25
        assert bursty.expected_rate(0) == pytest.approx(3 / 5)

    def test_convergecast_excludes_sinks_and_requires_them(self):
        p = ConvergecastArrivals(sources=range(5), sinks=(0,), seed=1, rate=1.0)
        arrivals = p.arrivals_for_round(1)
        assert {v for v, _ in arrivals} == {1, 2, 3, 4}
        assert p.expected_rate(0) == 0.0
        with pytest.raises(ValueError, match="sink"):
            ConvergecastArrivals(sources=range(5), sinks=(), seed=1)

    def test_builder_covers_every_kind_and_rejects_unknown(self):
        for kind in ARRIVAL_KINDS:
            sinks = (0,) if kind == "convergecast" else ()
            process = build_arrival_process(
                kind, {}, sources=range(4), sinks=sinks, seed=9
            )
            process.arrivals_for_round(1)
        with pytest.raises(KeyError, match="unknown arrival kind"):
            build_arrival_process("nope", {}, sources=[0], sinks=(), seed=0)


class TestDecodedArrivals:
    """Streamed processes decode windows of rounds ahead; the realization
    and the ``next_arrival`` peeks must match one 16-bit draw per source per
    round."""

    @staticmethod
    def _shadow(sources, seed, rate, rounds):
        streams = [
            (v, SeedBitStream(derive_stream_seed(seed, v), 256)) for v in sources
        ]
        cut = int(round(rate * 2**16))
        return [
            [(v, 1) for v, stream in streams if stream.consume_int(16) < cut]
            for _ in range(rounds)
        ]

    @given(
        seed=st.integers(0, 2**32),
        rate=st.sampled_from((0.0, 0.004, 0.05, 0.3, 1.0)),
        sources=st.lists(st.integers(0, 30), unique=True, max_size=8),
        convergecast=st.booleans(),
        rounds=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_realization_and_peeks_match_per_round_draws(
        self, seed, rate, sources, convergecast, rounds, data
    ):
        if convergecast:
            sinks = sources[:1] or [0]
            process = ConvergecastArrivals(sources, sinks, seed, rate=rate)
            sources = [v for v in sources if v not in sinks]
        else:
            process = PoissonArrivals(sources, (), seed, rate=rate)
        # Enough shadow rounds to cover a peek past the last decoded window.
        horizon = rounds + 200
        shadow = self._shadow(sources, seed, rate, horizon)
        for round_number in range(1, rounds + 1):
            if data.draw(st.booleans()):
                busy = set(data.draw(st.lists(st.sampled_from(sources)))) if sources else set()
                answer = process.next_arrival(round_number, busy)
                first = next(
                    (
                        t
                        for t in range(round_number, horizon + 1)
                        if any(v not in busy for v, _ in shadow[t - 1])
                    ),
                    None,
                )
                if rate == 0.0:
                    assert answer is None
                else:
                    assert answer is not None and answer >= round_number
                    if first is not None:
                        assert answer <= first
                    # Exact, or the first round past a decoded window.
                    assert answer == first or (answer - 1) % _WINDOW == 0
            assert process.arrivals_for_round(round_number) == shadow[round_number - 1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PeriodicArrivals(sources=range(5), sinks=(), seed=4, period=7),
            lambda: BurstyArrivals(sources=range(3), sinks=(), seed=4, burst=2, period=9),
        ],
        ids=["periodic", "bursty"],
    )
    def test_phased_processes_answer_their_next_arrival(self, make):
        process, twin = make(), make()
        realization = [twin.arrivals_for_round(r) for r in range(1, 61)]
        for round_number in range(1, 41):
            busy = {round_number % len(process.sources)}
            expected = next(
                t
                for t in range(round_number, 61)
                if any(v not in busy for v, _ in realization[t - 1])
            )
            assert process.next_arrival(round_number, busy) == expected
            assert process.arrivals_for_round(round_number) == realization[round_number - 1]
        assert process.next_arrival(41, set(process.sources)) is None


# ----------------------------------------------------------------------
# queued environment
# ----------------------------------------------------------------------
class TestQueuedEnvironment:
    def _graph(self):
        graph, _ = network_with_target_degree(8, seed=11)
        return graph

    def test_head_of_line_submission_and_backlog(self):
        graph = self._graph()
        arrival = BurstyArrivals(
            sources=sorted(graph.vertices)[:2], sinks=(), seed=1, burst=3, period=1000,
            stagger=False,
        )
        env = QueuedEnvironment(graph, arrival)
        inputs = env.inputs_for_round(1)
        # one head-of-line message per source; the rest stays queued
        assert sum(len(msgs) for msgs in inputs.values()) == 2
        assert env.total_backlog() == 4
        # busy nodes (unacked message outstanding) submit nothing more but
        # keep their backlog
        inputs2 = env.inputs_for_round(2)
        assert inputs2 == {}
        assert env.total_backlog() == 4

    def test_capacity_drops_excess_arrivals(self):
        graph = self._graph()
        arrival = BurstyArrivals(
            sources=sorted(graph.vertices)[:1], sinks=(), seed=1, burst=5, period=1000,
            stagger=False,
        )
        env = QueuedEnvironment(graph, arrival, capacity=2)
        env.inputs_for_round(1)
        assert env.offered == 5
        assert env.enqueued == 2
        assert env.dropped == 3

    def test_running_backlog_matches_the_queues(self):
        """The running backlog count equals the summed queue lengths in every
        round, under arrivals, capacity drops and ack-freed dequeues."""
        graph = self._graph()
        arrival = PoissonArrivals(
            sources=sorted(graph.vertices)[:6], sinks=(), seed=3, rate=0.6
        )
        env = QueuedEnvironment(graph, arrival, capacity=3)
        for round_number in range(1, 61):
            inputs = env.inputs_for_round(round_number)
            queued = sum(env.backlog(v) for v in graph.vertices)
            assert env.total_backlog() == queued
            assert env.backlog_samples[-1] == queued
            if round_number % 3 == 0:  # free every busy node now and then
                acks = [
                    AckOutput(vertex, env.outstanding_message(vertex), round_number)
                    for vertex in sorted(graph.vertices)
                    if env.is_busy(vertex)
                ]
                env.observe_outputs(round_number, acks)
            assert all(len(messages) == 1 for messages in inputs.values())
        assert env.dropped > 0 and env.acked > 0
        assert len(env.backlog_samples) == 60

    def test_delivery_requires_every_reliable_neighbor(self):
        graph, _ = two_clusters_network(cluster_size=3, gap=1.5, rng=1)
        source = 0
        neighbors = sorted(graph.reliable_neighbors(source))
        arrival = PeriodicArrivals(
            sources=[source], sinks=(), seed=1, period=1000, stagger=False
        )
        env = QueuedEnvironment(graph, arrival)
        inputs = env.inputs_for_round(1)
        (message,) = inputs[source]

        class _Recv:
            def __init__(self, vertex, message):
                self.vertex = vertex
                self.message = message

        for i, neighbor in enumerate(neighbors):
            assert env.delivered == 0  # not delivered until the last one
            env._on_recv(5 + i, _Recv(neighbor, message))
        assert env.delivered == 1
        # delivered at the round the last neighbor heard it (enqueued round 1)
        assert env.delivery_latencies == [5 + len(neighbors) - 1 - 1]

    def test_queued_environment_takes_the_kernel_lane(self):
        # QueuedEnvironment's _on_recv hook reads recv events, which every
        # trace mode materializes, so even a COUNTERS run stays on the
        # kernel lane; the lane report travels through RunResult.perf_stats.
        spec = _traffic_spec(
            scheduler="iid",
            scheduler_args={"probability": 0.5},
            trials=1,
            engine=EngineConfig(trace_mode="counters"),
        )
        built = materialize(spec, 0)
        assert isinstance(built.environment, QueuedEnvironment)
        assert built.simulator.lane == "kernel"
        assert built.simulator.lane_fallback is None

        result = run(spec, keep=False)
        assert result.perf_stats["lane"] == "kernel"
        assert result.perf_stats["lane_fallback"] is None


# ----------------------------------------------------------------------
# traffic-aware schedulers
# ----------------------------------------------------------------------
class TestTrafficAwareScheduler:
    def _graph(self):
        graph, _ = network_with_target_degree(8, seed=11)
        return graph

    def test_routing_tree_reaches_reliable_component(self):
        graph = self._graph()
        sink = min(graph.vertices)
        parents = build_routing_tree(graph, [sink])
        assert parents[sink] is None
        reachable = [v for v, p in parents.items() if p is not None]
        assert reachable  # something besides the sink is attached
        for vertex, parent in parents.items():
            if parent is not None:
                assert parent in graph.reliable_neighbors(vertex)
        with pytest.raises(ValueError, match="sink"):
            build_routing_tree(graph, [])

    def test_subtree_loads_aggregate_toward_sink(self):
        parents = {0: None, 1: 0, 2: 1, 3: 1}
        loads = subtree_loads(parents, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0})
        assert loads[2] == 2.0
        assert loads[3] == 3.0
        assert loads[1] == 6.0
        assert loads[0] == 6.0

    def test_slots_are_endpoint_disjoint(self):
        graph = self._graph()
        scheduler = TrafficAwareScheduler(graph)
        for slot in range(scheduler.frame):
            edges = scheduler.unreliable_edges_for_round(slot + 1)
            endpoints = [v for e in edges for v in e]
            assert len(endpoints) == len(set(endpoints))
        # every unreliable edge is assigned exactly one slot
        assigned = set()
        for slot in range(scheduler.frame):
            assigned |= set(scheduler.unreliable_edges_for_round(slot + 1))
        assert assigned == set(graph.unreliable_edges)

    def test_schedule_is_periodic_and_seed_independent(self):
        graph = self._graph()
        a = TrafficAwareScheduler(graph, rates={v: 1.0 for v in graph.vertices})
        b = TrafficAwareScheduler(graph, rates={v: 1.0 for v in graph.vertices})
        assert a.unreliable_edges_for_round(1) == b.unreliable_edges_for_round(1)
        assert a.unreliable_edges_for_round(1) == a.unreliable_edges_for_round(
            1 + a.frame
        )

    @staticmethod
    def _star_graph():
        """Four unreliable edges sharing vertex 0: the conflict-free frame
        needs four slots."""
        return DualGraph(
            [0, 1, 2, 3, 4],
            reliable_edges=[(1, 2), (2, 3), (3, 4)],
            unreliable_edges=[(0, 1), (0, 2), (0, 3), (0, 4)],
        )

    def test_frame_of_one_puts_every_edge_in_slot_zero(self):
        graph = self._star_graph()
        assert TrafficAwareScheduler(graph).frame == 4
        scheduler = TrafficAwareScheduler(graph, frame=1)
        assert scheduler.frame == 1
        assert {scheduler.slot_of(e) for e in graph.unreliable_edges} == {0}
        for round_number in (1, 2, 3):
            assert scheduler.unreliable_edges_for_round(round_number) == graph.unreliable_edges

    def test_short_frame_sends_overflow_edges_to_the_last_slot(self):
        graph = self._star_graph()
        scheduler = TrafficAwareScheduler(graph, frame=3, variant="longest_queue")
        # Uniform forecast: edges are placed in repr order, first fit; the
        # two that find slots 0 and 1 taken both land in slot 2.
        assert [scheduler.unreliable_edges_for_round(t) for t in (1, 2, 3, 4)] == [
            {normalize_edge(0, 1)},
            {normalize_edge(0, 2)},
            {normalize_edge(0, 3), normalize_edge(0, 4)},
            {normalize_edge(0, 1)},
        ]

    def test_variants_and_signatures_differ_with_forecast(self):
        graph = self._graph()
        vertices = sorted(graph.vertices)
        skewed = {v: (10.0 if i < 3 else 0.01) for i, v in enumerate(vertices)}
        tasa = TrafficAwareScheduler(graph, rates=skewed, variant="tasa")
        lqf = TrafficAwareScheduler(graph, rates=skewed, variant="longest_queue")
        assert tasa._delta_cache_signature() != lqf._delta_cache_signature()
        uniform = TrafficAwareScheduler(graph, variant="tasa")
        assert tasa._delta_cache_signature()[:2] == uniform._delta_cache_signature()[:2]
        with pytest.raises(ValueError, match="variant"):
            TrafficAwareScheduler(graph, variant="mystery")

    def test_registry_metadata(self):
        for name in ("tasa", "longest_queue"):
            assert SCHEDULERS.accepts(name, "traffic")
            assert not SCHEDULERS.is_trial_seeded(name)
        assert not SCHEDULERS.accepts("iid", "traffic")
        assert ENVIRONMENTS.accepts("queued", "traffic")
        assert ENVIRONMENTS.accepts("queued", "trial_seed")


# ----------------------------------------------------------------------
# spec serialization
# ----------------------------------------------------------------------
class TestTrafficSpecSerialization:
    def test_round_trip(self):
        spec = _traffic_spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()

    def test_traffic_free_specs_serialize_identically_to_before(self):
        spec = _traffic_spec()
        plain = replace(spec, traffic=None)
        data = plain.to_dict()
        assert "traffic" not in data
        # and a queued-free spec neither mentions traffic nor changes shape
        legacy = ScenarioSpec(
            name="legacy",
            topology=TopologySpec("line", {"n": 4}),
            algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        )
        assert "traffic" not in legacy.to_dict()

    def test_traffic_spec_validation(self):
        with pytest.raises(TypeError, match="ArrivalSpec"):
            TrafficSpec(arrival={"name": "poisson"})
        with pytest.raises(ValueError, match="capacity"):
            TrafficSpec(arrival=ArrivalSpec("poisson"), capacity=-1)
        with pytest.raises(TypeError, match="TrafficSpec"):
            _traffic_spec(traffic={"arrival": {"name": "poisson"}})

    @pytest.mark.parametrize("capacity", [2.5, True, "3", None])
    def test_traffic_capacity_must_be_an_integer(self, capacity):
        data = {"arrival": {"name": "poisson", "args": {}}, "capacity": capacity}
        with pytest.raises(TypeError, match="traffic capacity must be an integer"):
            TrafficSpec.from_dict(data)

    def test_fingerprint_stable_across_processes(self):
        spec = _traffic_spec()
        code = (
            "import json, sys\n"
            "from repro.scenarios.spec import ScenarioSpec\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.stdin.read()))\n"
            "print(spec.fingerprint())\n"
        )
        prints = [
            subprocess.run(
                [sys.executable, "-c", code],
                input=json.dumps(spec.to_dict()),
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert prints[0] == prints[1] == spec.fingerprint()


# ----------------------------------------------------------------------
# execution: lane parity and serial/parallel identity
# ----------------------------------------------------------------------
class TestTrafficExecution:
    def _events(self, engine: EngineConfig, scheduler="tasa", scheduler_args=None):
        spec = _traffic_spec(
            scheduler=scheduler, scheduler_args=scheduler_args, trials=1, engine=engine
        )
        trial = run_trial(spec, 0)
        return trial.trace.events, trial.metric_row

    @pytest.mark.parametrize(
        "scheduler,scheduler_args",
        [("tasa", None), ("longest_queue", None), ("iid", {"probability": 0.5})],
    )
    def test_engine_lane_parity_for_queued_workloads(self, scheduler, scheduler_args):
        reference = self._events(
            EngineConfig(fast_path=False, batch_path=False),
            scheduler,
            scheduler_args,
        )
        per_process = self._events(
            EngineConfig(fast_path=True, batch_path=False),
            scheduler,
            scheduler_args,
        )
        production = self._events(EngineConfig(), scheduler, scheduler_args)
        for other in (per_process, production):
            assert other[0] == reference[0]
            assert other[1] == reference[1]

    def test_serial_and_parallel_run_many_rows_match(self):
        def strip_timing(rows):
            return [
                {k: v for k, v in row.items() if k not in ("elapsed_s", "rounds_per_s")}
                for row in rows
            ]

        spec = _traffic_spec(trials=2)
        serial = run_many(spec, jobs=1, prebuild=False)
        parallel = run_many(spec, jobs=2, prebuild=False)
        assert strip_timing(serial.rows) == strip_timing(parallel.rows)

    def test_delta_identity_includes_traffic_only_for_aware_schedulers(self):
        from repro.scenarios.runtime import _delta_identity

        aware = _traffic_spec()
        oblivious = _traffic_spec(scheduler="iid", scheduler_args={"probability": 0.5})
        heavier = replace(
            aware,
            traffic=TrafficSpec(
                arrival=ArrivalSpec("poisson", {"rate": 0.4}), sinks=(0,)
            ),
        )
        assert _delta_identity(aware) != _delta_identity(heavier)
        oblivious_heavier = replace(heavier, scheduler=oblivious.scheduler)
        assert _delta_identity(oblivious) == _delta_identity(oblivious_heavier)

    def test_trials_draw_independent_arrivals_unless_seed_pinned(self):
        spec = _traffic_spec(trials=2, rate=0.2)
        result = run(spec)
        rows = result.metric_rows
        assert rows[0]["queue.enqueued"] != rows[1]["queue.enqueued"] or (
            rows[0] != rows[1]
        )
        pinned = replace(
            spec,
            traffic=TrafficSpec(
                arrival=ArrivalSpec("poisson", {"rate": 0.2}), sinks=(0,), seed=99
            ),
        )
        pinned_result = run(pinned)
        pinned_rows = pinned_result.metric_rows
        assert pinned_rows[0]["queue.enqueued"] == pinned_rows[1]["queue.enqueued"]

    def test_queue_metric_reports_wilson_intervals(self):
        result = run(_traffic_spec(trials=2))
        delivery = result.metric_summaries["queue.delivery_rate"]
        assert {"value", "wilson_low", "wilson_high"} <= set(delivery)
        assert 0.0 <= delivery["wilson_low"] <= delivery["value"] or delivery[
            "value"
        ] == 0.0
        latency = result.metric_summaries["queue.delivery_latency_mean"]
        assert latency["denominator"] > 0
