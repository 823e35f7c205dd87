"""Determinism regression tests for the production round engine.

The engine has two reception resolvers -- the generic edge-set path (the
Section-2 reference, also used for adaptive schedulers) and the indexed
bitmask kernel -- and two process stepping modes -- per-process and batched
cohort drivers.  These tests pin the contract that made the optimizations
safe to ship: for any fixed seed every resolver/stepping combination, and
every :class:`TraceMode`, observes exactly the same execution.  The
randomized counterpart over registry-built scenarios lives in
``tests/test_property_differential.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    AntiScheduleAdversary,
    CollisionAdaptiveAdversary,
    DualGraph,
    FullInclusionScheduler,
    IIDScheduler,
    LBParams,
    NoUnreliableScheduler,
    PeriodicScheduler,
    Simulator,
    TraceMode,
    TraceScheduler,
    cluster_network,
    make_lb_processes,
    random_geographic_network,
)
from repro.core.local_broadcast import LocalBroadcastProcess
from repro.simulation.environment import SaturatingEnvironment, SingleShotEnvironment
from repro.simulation.process import ProcessContext, SilentProcess

SCHEDULER_FACTORIES = {
    "none": lambda g: NoUnreliableScheduler(g),
    "full": lambda g: FullInclusionScheduler(g),
    "iid": lambda g: IIDScheduler(g, probability=0.4, seed=13),
    "periodic": lambda g: PeriodicScheduler(g, on_rounds=3, off_rounds=2, stagger=True, seed=5),
    "anti": lambda g: AntiScheduleAdversary(g, [0.5, 0.02, 0.25]),
}


def _make_network():
    graph, _ = random_geographic_network(22, side=3.2, rng=41, require_connected=True)
    return graph


def _build_simulator(graph, fast_path, scheduler_key, trace_mode=TraceMode.FULL):
    params = LBParams.small_for_testing(
        delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
    )
    rng = random.Random(99)
    senders = sorted(graph.vertices)[:3]
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, rng),
        scheduler=SCHEDULER_FACTORIES[scheduler_key](graph),
        environment=SingleShotEnvironment(senders=senders),
        trace_mode=trace_mode,
        fast_path=fast_path,
    )
    return simulator, params


class TestKernelMatchesReference:
    @pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_FACTORIES))
    def test_identical_traces_for_fixed_seed(self, scheduler_key):
        graph = _make_network()
        fast_sim, params = _build_simulator(graph, True, scheduler_key)
        legacy_sim, _ = _build_simulator(graph, False, scheduler_key)
        assert fast_sim.uses_fast_path and fast_sim.lane == "kernel"
        assert not legacy_sim.uses_fast_path and legacy_sim.lane == "reference"

        rounds = 2 * params.phase_length
        fast_trace = fast_sim.run(rounds)
        legacy_trace = legacy_sim.run(rounds)

        assert fast_trace.events == legacy_trace.events
        for round_number in range(1, rounds + 1):
            assert fast_trace.transmissions_in_round(
                round_number
            ) == legacy_trace.transmissions_in_round(round_number)
            assert fast_trace.receptions_in_round(
                round_number
            ) == legacy_trace.receptions_in_round(round_number)

    def test_adaptive_scheduler_falls_back_to_generic_path(self):
        graph = _make_network()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(1)),
            scheduler=CollisionAdaptiveAdversary(graph),
        )
        # fast_path defaults to True, but an adaptive scheduler needs the
        # round's transmitters, which only the generic resolver passes on.
        assert not simulator.uses_fast_path
        assert simulator.lane == "reference"
        simulator.run(params.phase_length)  # runs without error

    def test_keyless_schedulers_bypass_the_process_mask_memo(self):
        """Schedulers with no delta cache key (here ``full`` on a star whose
        leaf-leaf links are unreliable) decode their own per-round mask: the
        kernel matches the reference and never writes the shared memo."""
        from repro.simulation import engine

        def build(fast_path):
            graph = DualGraph(
                list(range(6)),
                reliable_edges=[(0, leaf) for leaf in range(1, 6)],
                unreliable_edges=[(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
            )
            params = LBParams.small_for_testing(delta=5, delta_prime=5)
            simulator = Simulator(
                graph,
                make_lb_processes(graph, params, random.Random(4)),
                scheduler=FullInclusionScheduler(graph),
                environment=SaturatingEnvironment(senders=[1, 2, 3, 4]),
                fast_path=fast_path,
            )
            return simulator, params

        kernel_sim, params = build(True)
        reference_sim, _ = build(False)
        assert kernel_sim.scheduler.delta_cache_key() is None
        rounds = 2 * params.phase_length
        memo_before = len(engine._SCHED_MASK_CACHE)
        kernel_trace = kernel_sim.run(rounds)
        assert len(engine._SCHED_MASK_CACHE) == memo_before
        assert kernel_trace.num_receptions > 0
        _assert_identical_traces(kernel_trace, reference_sim.run(rounds), rounds)

    def test_graph_mutation_between_runs_rebinds_index(self):
        graph = DualGraph([0, 1, 2, 3], reliable_edges=[(0, 1), (1, 2)])
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(5)),
            scheduler=FullInclusionScheduler(graph),
            environment=SaturatingEnvironment(senders=[0]),
        )
        simulator.run(3)
        graph.add_unreliable_edge(2, 3)
        simulator.run(3)  # must pick up the new edge without error
        assert simulator.trace.num_rounds == 6

    def test_graph_mutation_mid_run_stays_identical_to_generic(self):
        class MutatingEnvironment(SaturatingEnvironment):
            """Adds an unreliable edge partway through a single run() call."""

            def __init__(self, graph, senders):
                super().__init__(senders=senders)
                self._graph_ref = graph

            def inputs_for_round(self, round_number):
                if round_number == 5:
                    self._graph_ref.add_unreliable_edge(0, 3)
                return super().inputs_for_round(round_number)

        def run_one(fast_path):
            graph = DualGraph(
                [0, 1, 2, 3],
                reliable_edges=[(0, 1), (1, 2)],
                unreliable_edges=[(2, 3)],
            )
            params = LBParams.small_for_testing(delta=4, delta_prime=4)
            simulator = Simulator(
                graph,
                make_lb_processes(graph, params, random.Random(17)),
                scheduler=IIDScheduler(graph, probability=0.6, seed=3),
                environment=MutatingEnvironment(graph, senders=[0, 2]),
                fast_path=fast_path,
            )
            return simulator.run(2 * params.phase_length)

        fast_trace = run_one(True)
        legacy_trace = run_one(False)
        _assert_identical_traces(fast_trace, legacy_trace, fast_trace.num_rounds)


class TestTraceModes:
    def _run(self, trace_mode, fast_path=True):
        graph = _make_network()
        simulator, params = _build_simulator(graph, fast_path, "iid", trace_mode)
        trace = simulator.run(2 * params.phase_length)
        return trace

    def test_events_mode_keeps_events_drops_frames(self):
        full = self._run(TraceMode.FULL)
        events_only = self._run(TraceMode.EVENTS)
        assert events_only.events == full.events
        assert events_only.transmissions_in_round(1) == {}
        assert events_only.num_transmissions == full.num_transmissions
        assert events_only.num_receptions == full.num_receptions

    def test_counters_mode_keeps_only_counters(self):
        full = self._run(TraceMode.FULL)
        counters = self._run(TraceMode.COUNTERS)
        assert counters.events == ()
        assert counters.event_counts == full.event_counts
        assert counters.num_transmissions == full.num_transmissions
        assert counters.num_receptions == full.num_receptions
        assert counters.num_rounds == full.num_rounds

    def test_counters_agree_between_paths(self):
        fast = self._run(TraceMode.COUNTERS, fast_path=True)
        legacy = self._run(TraceMode.COUNTERS, fast_path=False)
        assert fast.event_counts == legacy.event_counts
        assert fast.num_transmissions == legacy.num_transmissions
        assert fast.num_receptions == legacy.num_receptions


class TestSchedulerDeltaInterface:
    @pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_FACTORIES))
    def test_edge_ids_match_edge_sets(self, scheduler_key):
        graph = _make_network()
        scheduler = SCHEDULER_FACTORIES[scheduler_key](graph)
        index = graph.topology_index()
        for round_number in range(1, 25):
            ids = scheduler.unreliable_edge_ids_for_round(round_number)
            via_ids = frozenset(index.unreliable_edge_list[eid] for eid in ids)
            reference = (
                scheduler.unreliable_edges_for_round(round_number) & graph.unreliable_edges
            )
            assert via_ids == reference
            for eid in range(index.num_unreliable_edges):
                assert scheduler.unreliable_edge_included(eid, round_number) == (
                    eid in set(ids)
                )

    def test_trace_scheduler_ids(self):
        graph = DualGraph(
            [0, 1, 2, 3],
            reliable_edges=[(0, 1)],
            unreliable_edges=[(1, 2), (2, 3)],
        )
        scheduler = TraceScheduler(graph, [[(1, 2)], []], cycle=True)
        index = graph.topology_index()
        assert [
            frozenset(index.unreliable_edge_list[eid] for eid in scheduler.unreliable_edge_ids_for_round(t))
            for t in (1, 2, 3)
        ] == [
            scheduler.unreliable_edges_for_round(t) for t in (1, 2, 3)
        ]

    def test_memoization_tracks_graph_mutation(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)], unreliable_edges=[(1, 2)])
        scheduler = FullInclusionScheduler(graph)
        assert len(scheduler.unreliable_edge_ids_for_round(1)) == 1
        graph.add_unreliable_edge(0, 2)
        assert len(scheduler.unreliable_edge_ids_for_round(1)) == 2

    @pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_FACTORIES))
    def test_id_set_view_matches_id_tuple(self, scheduler_key):
        graph = _make_network()
        scheduler = SCHEDULER_FACTORIES[scheduler_key](graph)
        for round_number in (1, 2, 7, 19):
            assert scheduler.unreliable_edge_id_set_for_round(round_number) == frozenset(
                scheduler.unreliable_edge_ids_for_round(round_number)
            )


def _cache_probe_graph():
    """A fixed small dual graph, rebuilt per call (distinct objects, equal
    structure -- exactly the cross-trial sharing scenario)."""
    return DualGraph(
        [0, 1, 2, 3, 4],
        reliable_edges=[(0, 1), (1, 2), (3, 4)],
        unreliable_edges=[(0, 2), (1, 3), (2, 4), (0, 4)],
    )


class TestSchedulerDeltaCache:
    def _schedulers(self):
        return (
            IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21),
            IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21),
        )

    def test_structurally_equal_trials_share_deltas(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(cache)
        for round_number in range(1, 11):
            ids = first.unreliable_edge_ids_for_round(round_number)
            assert second.unreliable_edge_ids_for_round(round_number) is ids
        assert cache.hits == 10 and cache.misses == 10

    def test_set_views_are_shared_too(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(cache)
        view = first.unreliable_edge_id_set_for_round(5)
        assert second.unreliable_edge_id_set_for_round(5) is view

    def test_cache_keys_distinguish_configurations(self):
        graph = _cache_probe_graph()
        base = IIDScheduler(graph, probability=0.4, seed=21)
        assert base.delta_cache_key() is not None
        assert base.delta_cache_key() == IIDScheduler(
            _cache_probe_graph(), probability=0.4, seed=21
        ).delta_cache_key()
        for other in (
            IIDScheduler(graph, probability=0.4, seed=22),
            IIDScheduler(graph, probability=0.5, seed=21),
            PeriodicScheduler(graph, on_rounds=3, off_rounds=2),
        ):
            assert other.delta_cache_key() != base.delta_cache_key()
        # A structurally different topology must not share keys either.
        mutated = _cache_probe_graph()
        mutated.add_unreliable_edge(3, 0)
        assert (
            IIDScheduler(mutated, probability=0.4, seed=21).delta_cache_key()
            != base.delta_cache_key()
        )

    def test_adaptive_and_unknown_schedulers_are_not_cacheable(self):
        graph = _cache_probe_graph()
        assert CollisionAdaptiveAdversary(graph).delta_cache_key() is None
        assert TraceScheduler(graph, [[(0, 2)]]).delta_cache_key() is None
        with pytest.raises(ValueError):
            from repro.dualgraph import prebuild_scheduler_deltas

            prebuild_scheduler_deltas(CollisionAdaptiveAdversary(graph), 5)

    def test_cache_key_tracks_graph_mutation(self):
        graph = _cache_probe_graph()
        scheduler = IIDScheduler(graph, probability=0.4, seed=21)
        before = scheduler.delta_cache_key()
        graph.add_unreliable_edge(3, 0)
        after = scheduler.delta_cache_key()
        assert before != after

    def test_fifo_bound_evicts_but_stays_correct(self):
        from repro import SchedulerDeltaCache

        scheduler, _ = self._schedulers()
        cache = SchedulerDeltaCache(maxsize=4)
        scheduler.attach_delta_cache(cache)
        reference = {
            t: scheduler.unreliable_edge_ids_for_round(t) for t in range(1, 13)
        }
        assert len(cache) <= 4
        # Evicted rounds are recomputed, not wrong.
        fresh = IIDScheduler(_cache_probe_graph(), probability=0.4, seed=21)
        fresh.attach_delta_cache(cache)
        for t, ids in reference.items():
            assert fresh.unreliable_edge_ids_for_round(t) == ids

    def test_detached_cache_disables_sharing(self):
        from repro import SchedulerDeltaCache

        first, second = self._schedulers()
        cache = SchedulerDeltaCache()
        first.attach_delta_cache(cache)
        second.attach_delta_cache(None)
        ids = first.unreliable_edge_ids_for_round(3)
        assert second.unreliable_edge_ids_for_round(3) == ids
        assert cache.hits == 0  # second never consulted the cache

    def test_prebuilt_table_roundtrip(self):
        from repro import SchedulerDeltaCache
        from repro.dualgraph import prebuild_scheduler_deltas

        scheduler, fresh = self._schedulers()
        scheduler.attach_delta_cache(None)
        table = prebuild_scheduler_deltas(scheduler, 8)
        assert len(table) == 8
        fresh.attach_delta_cache(SchedulerDeltaCache(table))
        for t in range(1, 9):
            assert fresh.unreliable_edge_ids_for_round(t) == table[
                (scheduler.delta_cache_key(), t)
            ]


class TestTopologyIndex:
    def test_csr_matches_adjacency(self):
        graph = _make_network()
        index = graph.topology_index()
        assert index.n == graph.n
        for i, vertex in enumerate(index.vertices):
            assert index.index_of[vertex] == i
            row = index.g_indices[index.g_indptr[i] : index.g_indptr[i + 1]]
            assert tuple(row) == index.g_neighbors[i]
            neighbors = frozenset(index.vertices[j] for j in row)
            assert neighbors == graph.reliable_neighbors(vertex)
        seen = set()
        for eid, edge in enumerate(index.unreliable_edge_list):
            assert index.unreliable_id_of[edge] == eid
            endpoints = frozenset(
                (index.vertices[index.unreliable_u[eid]], index.vertices[index.unreliable_v[eid]])
            )
            assert frozenset(endpoints) == edge
            seen.add(edge)
        assert seen == set(graph.unreliable_edges)

    def test_index_is_cached_and_invalidated(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)])
        first = graph.topology_index()
        assert graph.topology_index() is first
        graph.add_reliable_edge(1, 2)
        second = graph.topology_index()
        assert second is not first
        assert second.g_neighbors[1] != first.g_neighbors[1]


# ----------------------------------------------------------------------
# batched cohort stepping
# ----------------------------------------------------------------------
def _assert_identical_traces(trace_a, trace_b, rounds):
    assert trace_a.events == trace_b.events
    for round_number in range(1, rounds + 1):
        assert trace_a.transmissions_in_round(
            round_number
        ) == trace_b.transmissions_in_round(round_number)
        assert trace_a.receptions_in_round(round_number) == trace_b.receptions_in_round(
            round_number
        )


GRAPH_FACTORIES = {
    "geometric": lambda: random_geographic_network(
        26, side=3.4, rng=23, require_connected=True
    )[0],
    "regions": lambda: cluster_network(
        clusters=3, cluster_size=7, cluster_spacing=1.4, rng=31
    )[0],
}


class TestBatchedStepping:
    def _build(self, graph, batch_path, reuse=1, fast_path=None):
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(
                graph, params, random.Random(71), seed_reuse_phases=reuse
            ),
            scheduler=IIDScheduler(graph, probability=0.5, seed=7),
            environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
            fast_path=batch_path if fast_path is None else fast_path,
            batch_path=batch_path,
        )
        return simulator, params

    @pytest.mark.parametrize("graph_kind", sorted(GRAPH_FACTORIES))
    @pytest.mark.parametrize("reuse", [1, 2, 3])
    def test_batched_identical_to_generic_path(self, graph_kind, reuse):
        """Batched engine vs the seed engine, incl. seed_reuse_phases > 1."""
        graph = GRAPH_FACTORIES[graph_kind]()
        batched_sim, params = self._build(graph, True, reuse=reuse)
        generic_sim, _ = self._build(graph, False, reuse=reuse)
        assert batched_sim.uses_batch_stepping
        assert not generic_sim.uses_batch_stepping and not generic_sim.uses_fast_path

        rounds = 3 * params.phase_length
        _assert_identical_traces(
            batched_sim.run(rounds), generic_sim.run(rounds), rounds
        )

    def test_batched_identical_to_per_process_fast_path(self):
        graph = GRAPH_FACTORIES["geometric"]()
        batched_sim, params = self._build(graph, True)
        fast_sim, _ = self._build(graph, False, fast_path=True)
        assert fast_sim.uses_fast_path and not fast_sim.uses_batch_stepping

        rounds = 3 * params.phase_length
        _assert_identical_traces(batched_sim.run(rounds), fast_sim.run(rounds), rounds)

    def test_cohort_decisions_are_shared(self):
        graph = GRAPH_FACTORIES["geometric"]()
        simulator, params = self._build(graph, True)
        simulator.run(3 * params.phase_length)
        (driver,) = simulator.batch_drivers
        tracker = driver.tracker
        assert tracker.computed_decisions > 0
        # Saturating senders on a connected network commit overlapping seeds,
        # so at least some body-round decisions must have been cohort-shared.
        assert tracker.shared_decisions > 0

    def test_mixed_population_batches_only_groupable_processes(self):
        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )

        def build(batch_path):
            rng = random.Random(5)
            processes = {}
            silent = sorted(graph.vertices)[-3:]
            for vertex in sorted(graph.vertices, key=repr):
                ctx = ProcessContext(
                    vertex=vertex,
                    delta=max(graph.max_reliable_degree, params.delta),
                    delta_prime=max(graph.max_potential_degree, params.delta_prime),
                    rng=random.Random(rng.getrandbits(64)),
                )
                if vertex in silent:
                    processes[vertex] = SilentProcess(ctx)
                else:
                    processes[vertex] = LocalBroadcastProcess(ctx, params)
            return Simulator(
                graph,
                processes,
                scheduler=IIDScheduler(graph, probability=0.5, seed=11),
                environment=SingleShotEnvironment(senders=sorted(graph.vertices)[:3]),
                batch_path=batch_path,
                fast_path=batch_path,
            )

        batched_sim = build(True)
        generic_sim = build(False)
        assert batched_sim.uses_batch_stepping
        (driver,) = batched_sim.batch_drivers
        assert len(driver.members) == graph.n - 3

        rounds = 3 * params.phase_length
        _assert_identical_traces(
            batched_sim.run(rounds), generic_sim.run(rounds), rounds
        )

    def test_subclasses_are_never_batched(self):
        class TweakedLB(LocalBroadcastProcess):
            pass

        ctx = ProcessContext(vertex=0, delta=4, delta_prime=4)
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        assert TweakedLB(ctx, params).batch_group_key() is None
        assert LocalBroadcastProcess(ctx.child(), params).batch_group_key() is not None

    @pytest.mark.parametrize("trace_mode", list(TraceMode))
    def test_trace_modes_under_batching(self, trace_mode):
        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )

        def build(batch_path, mode):
            return Simulator(
                graph,
                make_lb_processes(graph, params, random.Random(9)),
                scheduler=IIDScheduler(graph, probability=0.4, seed=9),
                environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:4]),
                trace_mode=mode,
                batch_path=batch_path,
            )

        rounds = 2 * params.phase_length
        batched = build(True, trace_mode).run(rounds)
        reference = build(False, TraceMode.FULL).run(rounds)
        assert batched.event_counts == reference.event_counts
        assert batched.num_transmissions == reference.num_transmissions
        assert batched.num_receptions == reference.num_receptions


class TestKernelLane:
    """The kernel lane (bitmask resolver + bulk cohort stepping) and the
    counters-only loop: byte-identity with the reference, fallback, and
    run-boundary flushing."""

    def _build(
        self,
        graph,
        reuse=1,
        trace_mode=TraceMode.FULL,
        fast_path=True,
        scheduler=None,
    ):
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(
                graph, params, random.Random(71), seed_reuse_phases=reuse
            ),
            scheduler=(
                IIDScheduler(graph, probability=0.5, seed=7)
                if scheduler is None
                else scheduler
            ),
            environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
            trace_mode=trace_mode,
            fast_path=fast_path,
            batch_path=fast_path,
        )
        return simulator, params

    @pytest.mark.parametrize("graph_kind", sorted(GRAPH_FACTORIES))
    @pytest.mark.parametrize("reuse", [1, 2, 3])
    def test_kernel_identical_to_reference_engine(self, graph_kind, reuse):
        """The production default vs the reference engine (generic resolver,
        per-process stepping) over geometric and region topologies and every
        seed reuse factor."""
        graph = GRAPH_FACTORIES[graph_kind]()
        kernel_sim, params = self._build(graph, reuse=reuse)
        reference_sim, _ = self._build(graph, reuse=reuse, fast_path=False)
        assert kernel_sim.lane == "kernel" and kernel_sim.uses_batch_stepping
        assert reference_sim.lane == "reference"
        assert not reference_sim.uses_batch_stepping

        rounds = 3 * params.phase_length
        _assert_identical_traces(
            kernel_sim.run(rounds), reference_sim.run(rounds), rounds
        )

    def test_adaptive_scheduler_disengages_kernel(self):
        """An adaptive adversary disables the kernel resolver (and with it
        kernel cohort stepping); the execution must equal the reference
        engine's."""
        graph = GRAPH_FACTORIES["geometric"]()
        kernel_sim, params = self._build(
            graph, scheduler=CollisionAdaptiveAdversary(graph)
        )
        generic_sim, _ = self._build(
            graph, fast_path=False, scheduler=CollisionAdaptiveAdversary(graph)
        )
        assert kernel_sim.lane == "reference"
        assert not kernel_sim.uses_counters_lane

        rounds = 2 * params.phase_length
        _assert_identical_traces(
            kernel_sim.run(rounds), generic_sim.run(rounds), rounds
        )

    def test_counters_lane_engages_and_matches_full_reduction(self):
        """The counters-only lane must produce exactly the counters a full
        event trace reduces to (same event kinds, transmissions, receptions)."""
        graph = GRAPH_FACTORIES["geometric"]()
        counters_sim, params = self._build(graph, trace_mode=TraceMode.COUNTERS)
        full_sim, _ = self._build(graph, trace_mode=TraceMode.FULL, fast_path=False)
        assert counters_sim.uses_counters_lane
        assert counters_sim.lane == "counters-kernel"

        rounds = 3 * params.phase_length
        counters_trace = counters_sim.run(rounds)
        full_trace = full_sim.run(rounds)
        assert counters_trace.num_rounds == full_trace.num_rounds
        assert counters_trace.event_counts == full_trace.event_counts
        assert counters_trace.num_transmissions == full_trace.num_transmissions
        assert counters_trace.num_receptions == full_trace.num_receptions

    def test_full_trace_mode_keeps_counters_lane_off(self):
        graph = GRAPH_FACTORIES["geometric"]()
        simulator, _ = self._build(graph, trace_mode=TraceMode.FULL)
        assert simulator.lane == "kernel"
        assert not simulator.uses_counters_lane
        assert simulator.lane_fallback == (
            "trace mode is 'full' (the counters lane needs 'counters')"
        )

    @pytest.mark.parametrize("trace_mode", [TraceMode.FULL, TraceMode.COUNTERS])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_section_timers_are_always_on(self, trace_mode, fast_path):
        graph = GRAPH_FACTORIES["geometric"]()
        simulator, params = self._build(
            graph, trace_mode=trace_mode, fast_path=fast_path
        )
        assert simulator.perf_stats == dict.fromkeys(
            ("inputs", "transmit", "resolve", "deliver", "outputs"), 0.0
        )
        simulator.run(params.phase_length)
        assert set(simulator.perf_stats) == {
            "inputs", "transmit", "resolve", "deliver", "outputs"
        }
        assert simulator.perf_stats["resolve"] > 0.0

    def test_chunked_runs_resume_identically(self):
        """Kernel state (cohort buffers, deferred skips) must flush at run()
        boundaries so split runs equal one continuous run."""
        graph = GRAPH_FACTORIES["geometric"]()
        whole_sim, params = self._build(graph)
        split_sim, _ = self._build(graph)
        rounds = 3 * params.phase_length
        whole_trace = whole_sim.run(rounds)
        chunk = params.phase_length // 2
        done = 0
        while done < rounds:
            step = min(chunk, rounds - done)
            split_trace = split_sim.run(step)
            done += step
        _assert_identical_traces(whole_trace, split_trace, rounds)


class TestRoundHookSkipping:
    class HookCountingProcess(SilentProcess):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.starts = 0
            self.ends = 0

        def on_round_start(self, round_number):
            self.starts += 1

        def on_round_end(self, round_number):
            self.ends += 1

    def _simulator(self, with_hooks):
        graph = DualGraph([0, 1], reliable_edges=[(0, 1)])
        cls = self.HookCountingProcess if with_hooks else SilentProcess
        processes = {
            v: cls(ProcessContext(vertex=v, delta=2, delta_prime=2)) for v in (0, 1)
        }
        return Simulator(graph, processes), processes

    def test_overriding_processes_still_get_hooks(self):
        simulator, processes = self._simulator(with_hooks=True)
        simulator.run(7)
        assert all(p.starts == 7 and p.ends == 7 for p in processes.values())

    def test_hookless_population_skips_the_loops(self):
        simulator, _ = self._simulator(with_hooks=False)
        assert simulator._round_start_hooks == []
        assert simulator._round_end_hooks == []
        simulator.run(3)  # runs without error
        assert simulator.trace.num_rounds == 3
