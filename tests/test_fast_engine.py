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
    clique_network,
    cluster_network,
    make_lb_processes,
    random_geographic_network,
)
from repro.baselines.base import BaselineBatchDriver
from repro.baselines.decay import DecayProcess
from repro.baselines.factory import make_baseline_processes
from repro.core.local_broadcast import LocalBroadcastProcess
from repro.dualgraph.graph import normalize_edge
from repro.simulation.environment import (
    NullEnvironment,
    SaturatingEnvironment,
    ScriptedEnvironment,
    SingleShotEnvironment,
)
from repro.simulation.process import ProcessContext, SilentProcess
from repro.traffic.schedulers import TrafficAwareScheduler
from tests.helpers import assert_frozen


def _trace_scheduler(graph):
    """A keyless explicit schedule cycling through halves of E' \\ E."""
    edges = sorted(tuple(sorted(edge)) for edge in graph.unreliable_edges)
    return TraceScheduler(graph, [edges[0::2], edges[1::2], edges, []])


SCHEDULER_FACTORIES = {
    "none": lambda g: NoUnreliableScheduler(g),
    "full": lambda g: FullInclusionScheduler(g),
    "iid": lambda g: IIDScheduler(g, probability=0.4, seed=13),
    "periodic": lambda g: PeriodicScheduler(g, on_rounds=3, off_rounds=2, stagger=True, seed=5),
    "anti": lambda g: AntiScheduleAdversary(g, [0.5, 0.02, 0.25]),
    "trace": _trace_scheduler,
    "tasa": lambda g: TrafficAwareScheduler(g, variant="tasa"),
    "longest_queue": lambda g: TrafficAwareScheduler(
        g, rates={v: float(v % 4) for v in g.vertices}, variant="longest_queue"
    ),
}


def _anti_oracle(scheduler, graph, round_number):
    if scheduler.victim_probability_for_round(round_number) >= scheduler.threshold:
        return graph.unreliable_edges
    return frozenset()


def _trace_oracle(scheduler, graph, round_number):
    if not scheduler._schedule:
        return frozenset()
    index = round_number - 1
    if index >= len(scheduler._schedule):
        if not scheduler._cycle:
            return frozenset()
        index %= len(scheduler._schedule)
    return scheduler._schedule[index]


def _slot_frame_oracle(scheduler, graph, round_number):
    slot = (round_number - 1) % scheduler.frame
    return frozenset(e for e in graph.unreliable_edges if scheduler.slot_of(e) == slot)


#: Each scheduler's round edge set, computed without its id view, so
#: ``test_edge_ids_match_edge_sets`` compares two implementations.  IID and
#: periodic define their own frozenset view, so it is their oracle.
EDGE_SET_ORACLES = {
    "none": lambda scheduler, graph, t: frozenset(),
    "full": lambda scheduler, graph, t: graph.unreliable_edges,
    "iid": lambda scheduler, graph, t: scheduler.unreliable_edges_for_round(t),
    "periodic": lambda scheduler, graph, t: scheduler.unreliable_edges_for_round(t),
    "anti": _anti_oracle,
    "trace": _trace_oracle,
    "tasa": _slot_frame_oracle,
    "longest_queue": _slot_frame_oracle,
}

#: Schedulers whose unreliable edges must carry a lone transmitter's frame in
#: the identity test: one keyed (the kernel reads the process-wide mask memo)
#: and two keyless (the kernel decodes the scheduler's own mask).
LONE_UNRELIABLE_DELIVERY = ("iid", "full", "trace")


def _make_network():
    graph, _ = random_geographic_network(22, side=3.2, rng=41, require_connected=True)
    return graph


def _build_simulator(
    graph, fast_path, scheduler_key, trace_mode=TraceMode.FULL, sender_count=3
):
    params = LBParams.small_for_testing(
        delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
    )
    rng = random.Random(99)
    senders = sorted(graph.vertices)[:sender_count]
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
    @pytest.mark.parametrize(
        "scheduler_key, sender_count",
        [
            pytest.param(key, count, id=key if count == 3 else f"{key}-one-sender")
            for key in sorted(SCHEDULER_FACTORIES)
            for count in (3, 1)
        ],
    )
    def test_identical_traces_for_fixed_seed(self, scheduler_key, sender_count):
        graph = _make_network()
        fast_sim, params = _build_simulator(
            graph, True, scheduler_key, sender_count=sender_count
        )
        legacy_sim, _ = _build_simulator(
            graph, False, scheduler_key, sender_count=sender_count
        )
        assert fast_sim.uses_fast_path and fast_sim.lane == "kernel"
        assert not legacy_sim.uses_fast_path and legacy_sim.lane == "reference"

        rounds = 2 * params.phase_length
        fast_trace = fast_sim.run(rounds)
        legacy_trace = legacy_sim.run(rounds)

        assert fast_trace.events == legacy_trace.events
        lone_unreliable_rounds = 0
        for round_number in range(1, rounds + 1):
            transmissions = fast_trace.transmissions_in_round(round_number)
            receptions = fast_trace.receptions_in_round(round_number)
            assert transmissions == legacy_trace.transmissions_in_round(round_number)
            assert receptions == legacy_trace.receptions_in_round(round_number)
            if len(transmissions) == 1:
                (sender,) = transmissions
                reliable = graph.reliable_neighbors(sender)
                if any(receiver not in reliable for receiver in receptions):
                    lone_unreliable_rounds += 1
        if scheduler_key in LONE_UNRELIABLE_DELIVERY:
            # The kernel's lone-transmitter branch delivered over a scheduled
            # unreliable edge at least once, so the identity above covers it.
            assert lone_unreliable_rounds > 0

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

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_simulator_freezes_graph(self, fast_path):
        class MutatingEnvironment(SaturatingEnvironment):
            """Tries to add an unreliable edge partway through a run."""

            def inputs_for_round(self, round_number):
                if round_number == 5:
                    graph.add_unreliable_edge(0, 3)
                return super().inputs_for_round(round_number)

        graph = DualGraph(
            [0, 1, 2, 3], reliable_edges=[(0, 1), (1, 2)], unreliable_edges=[(2, 3)]
        )
        params = LBParams.small_for_testing(delta=4, delta_prime=4)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(17)),
            scheduler=IIDScheduler(graph, probability=0.6, seed=3),
            environment=MutatingEnvironment(senders=[0, 2]),
            fast_path=fast_path,
        )
        assert_frozen(graph)
        with pytest.raises(RuntimeError, match="frozen"):
            simulator.run(2 * params.phase_length)
        assert not graph.has_any_edge(0, 3)


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
        oracle = EDGE_SET_ORACLES[scheduler_key]
        index = graph.topology_index()
        included = set()
        for round_number in range(1, 25):
            ids = scheduler.unreliable_edge_ids_for_round(round_number)
            via_ids = frozenset(index.unreliable_edge_list[eid] for eid in ids)
            expected = oracle(scheduler, graph, round_number) & graph.unreliable_edges
            assert via_ids == expected
            assert scheduler.unreliable_edges_for_round(round_number) == expected
            included |= expected
        if scheduler_key != "none":
            assert included  # the comparison saw a non-empty schedule

    def test_trace_scheduler_ids(self):
        graph = DualGraph(
            [0, 1, 2, 3],
            reliable_edges=[(0, 1)],
            unreliable_edges=[(1, 2), (2, 3)],
        )
        index = graph.topology_index()
        a, b = normalize_edge(1, 2), normalize_edge(2, 3)
        schedule = [[(2, 1)], [], [(1, 2), (3, 2)]]
        for cycle, fourth in ((True, {a}), (False, set())):
            scheduler = TraceScheduler(graph, schedule, cycle=cycle)
            expected = [{a}, set(), {a, b}, fourth]
            rounds = range(1, len(expected) + 1)
            assert [
                {index.unreliable_edge_list[eid] for eid in scheduler.unreliable_edge_ids_for_round(t)}
                for t in rounds
            ] == expected
            assert [scheduler.unreliable_edges_for_round(t) for t in rounds] == expected

    def test_edges_added_before_indexing_are_scheduled(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)], unreliable_edges=[(1, 2)])
        scheduler = PeriodicScheduler(graph, on_rounds=1, off_rounds=1)
        graph.add_unreliable_edge(0, 2)  # the scheduler has not indexed yet
        assert len(scheduler.unreliable_edge_ids_for_round(1)) == 2
        assert scheduler.unreliable_edge_ids_for_round(3) is (
            scheduler.unreliable_edge_ids_for_round(1)
        )
        assert_frozen(graph)


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

    def test_cache_key_freezes_graph(self):
        graph = _cache_probe_graph()
        scheduler = IIDScheduler(graph, probability=0.4, seed=21)
        key = scheduler.delta_cache_key()
        assert_frozen(graph)
        assert scheduler.delta_cache_key() is key

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
        cache = SchedulerDeltaCache()
        cache.preload(table)
        fresh.attach_delta_cache(cache)
        for t in range(1, 9):
            assert fresh.unreliable_edge_ids_for_round(t) == table[
                (scheduler.delta_cache_key(), t)
            ]


class TestTopologyIndex:
    def test_index_views_match_adjacency(self):
        graph = _make_network()
        index = graph.topology_index()
        assert index.n == graph.n
        for i, vertex in enumerate(index.vertices):
            assert index.index_of[vertex] == i
            row = index.g_neighbors[i]
            assert list(row) == sorted(row)
            neighbors = frozenset(index.vertices[j] for j in row)
            assert neighbors == graph.reliable_neighbors(vertex)
        seen = set()
        for eid, edge in enumerate(index.unreliable_edge_list):
            assert index.unreliable_id_of[edge] == eid
            a, b = sorted(index.index_of[v] for v in edge)
            assert index.unreliable_neighbor_by_eid[a][eid] == b
            assert index.unreliable_neighbor_by_eid[b][eid] == a
            seen.add(edge)
        assert seen == set(graph.unreliable_edges)
        assert sum(map(len, index.unreliable_neighbor_by_eid)) == 2 * len(seen)

    def test_index_is_cached_and_freezes_graph(self):
        graph = DualGraph([0, 1, 2], reliable_edges=[(0, 1)], unreliable_edges=[(1, 2)])
        graph.add_reliable_edge(1, 2)  # promotion before indexing is allowed
        index = graph.topology_index()
        assert graph.topology_index() is index
        assert index.g_neighbors[1] == (0, 2)
        assert index.num_unreliable_edges == 0
        assert_frozen(graph)
        assert graph.topology_index() is index

    def test_fingerprint_is_structural(self):
        def index(unreliable):
            return DualGraph([0, 1, 2, 3], [(0, 1), (1, 2)], unreliable).topology_index()

        assert index([(2, 3)]).fingerprint == index([(3, 2)]).fingerprint
        assert index([(2, 3)]).fingerprint != index([(0, 3)]).fingerprint
        assert index([(2, 3)]).fingerprint != index([]).fingerprint
        other_reliable = DualGraph([0, 1, 2, 3], [(0, 1), (2, 3)], [])
        assert other_reliable.topology_index().fingerprint != index([]).fingerprint


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

    def test_cohort_decisions_are_shared(self, monkeypatch):
        """Body decisions are decoded once per ``(seed, cursor)`` cohort, not
        once per sending member."""
        from repro.core.seed_groups import _SeedCohort

        cohort_sizes = []
        bulk_decode = _SeedCohort.bulk_decode

        def spy(cohort, params, rounds):
            cohort_sizes.append(len(cohort.members))
            return bulk_decode(cohort, params, rounds)

        monkeypatch.setattr(_SeedCohort, "bulk_decode", spy)
        graph = GRAPH_FACTORIES["geometric"]()
        simulator, params = self._build(graph, True)
        simulator.run(3 * params.phase_length)
        assert cohort_sizes
        # Saturating senders on a connected network commit overlapping seeds,
        # so some cohort must group several sending members.
        assert len(cohort_sizes) < sum(cohort_sizes)

    @pytest.mark.parametrize("graph_kind", ["clique", "geometric"])
    @pytest.mark.parametrize("reuse", [2, 3])
    def test_same_seed_cohorts_at_different_cursors(self, monkeypatch, graph_kind, reuse):
        """Staggered senders under seed reuse: a node that starts sending in
        a reused-seed phase joins its seed group at cursor 0 while earlier
        senders have consumed bits, so one body holds two cohorts of one
        seed at different cursors.  Both are bulk-decoded independently and
        the trace must still equal the reference engine's."""
        from repro.core.seed_groups import LocalBroadcastBatchDriver

        mixed_bodies = []
        build_cohorts = LocalBroadcastBatchDriver._build_kernel_cohorts

        def spy(driver, rounds_remaining):
            build_cohorts(driver, rounds_remaining)
            cursors = {}
            for cohort in driver._cohorts:
                cursors.setdefault(cohort.seed, set()).add(cohort.start_cursor)
            if any(len(starts) > 1 for starts in cursors.values()):
                mixed_bodies.append(rounds_remaining)

        monkeypatch.setattr(LocalBroadcastBatchDriver, "_build_kernel_cohorts", spy)
        graph = (
            clique_network(8)[0] if graph_kind == "clique" else GRAPH_FACTORIES[graph_kind]()
        )
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        vertices = sorted(graph.vertices)
        # A new submission every half phase: senders overlap (tack_phases > 1)
        # and keep starting inside reused-seed phases.
        script = {
            1 + k * (params.phase_length // 2): {vertices[k]: f"m{k}"} for k in range(6)
        }

        def build(batched):
            return Simulator(
                graph,
                make_lb_processes(
                    graph, params, random.Random(71), seed_reuse_phases=reuse
                ),
                scheduler=IIDScheduler(graph, probability=0.5, seed=7),
                environment=ScriptedEnvironment(script),
                fast_path=batched,
                batch_path=batched,
            )

        rounds = 6 * params.phase_length
        batched_trace = build(True).run(rounds)
        assert mixed_bodies, "no body held two cohorts of one seed at different cursors"
        _assert_identical_traces(batched_trace, build(False).run(rounds), rounds)

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
    """The kernel lane (bitmask resolver + bulk cohort stepping):
    byte-identity with the reference under every trace mode, the recorded
    fallback reason, and run-boundary flushing."""

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

    def test_adaptive_scheduler_disengages_kernel(self, monkeypatch):
        """An adaptive adversary disables the kernel resolver, but not cohort
        stepping: the batch drivers still serve body rounds from bulk-decoded
        cohort buffers, and the execution must equal the reference
        engine's."""
        from repro.core.seed_groups import _SeedCohort

        decodes = []
        bulk_decode = _SeedCohort.bulk_decode

        def spy(cohort, params, rounds):
            decodes.append(rounds)
            return bulk_decode(cohort, params, rounds)

        monkeypatch.setattr(_SeedCohort, "bulk_decode", spy)
        graph = GRAPH_FACTORIES["geometric"]()
        kernel_sim, params = self._build(
            graph, scheduler=CollisionAdaptiveAdversary(graph)
        )
        generic_sim, _ = self._build(
            graph, fast_path=False, scheduler=CollisionAdaptiveAdversary(graph)
        )
        assert kernel_sim.lane == "reference"
        assert kernel_sim.uses_batch_stepping

        rounds = 2 * params.phase_length
        kernel_trace = kernel_sim.run(rounds)
        assert decodes, "cohort stepping did not run under the adaptive scheduler"
        _assert_identical_traces(kernel_trace, generic_sim.run(rounds), rounds)

    def test_counters_trace_on_kernel_matches_full_reference(self):
        """A COUNTERS trace runs the same kernel round loop as a FULL one and
        keeps exactly the counters the FULL reference trace reduces to (same
        event kinds, transmissions, receptions)."""
        graph = GRAPH_FACTORIES["geometric"]()
        counters_sim, params = self._build(graph, trace_mode=TraceMode.COUNTERS)
        full_sim, _ = self._build(graph, trace_mode=TraceMode.FULL, fast_path=False)
        assert counters_sim.lane == "kernel"
        assert counters_sim.lane_fallback is None

        rounds = 3 * params.phase_length
        counters_trace = counters_sim.run(rounds)
        full_trace = full_sim.run(rounds)
        assert counters_trace.events == ()
        assert counters_trace.num_rounds == full_trace.num_rounds
        assert counters_trace.event_counts == full_trace.event_counts
        assert counters_trace.num_transmissions == full_trace.num_transmissions
        assert counters_trace.num_receptions == full_trace.num_receptions

    @pytest.mark.parametrize(
        "case",
        [
            "kernel_full",
            "kernel_counters",
            "fast_path_off",
            "adaptive",
            "custom_topology",
            "other_graph",
        ],
    )
    def test_lane_fallback_names_the_reason(self, case):
        """``lane_fallback`` says why the kernel lane did not run, first
        reason first, and is ``None`` exactly when it did."""

        class _CustomTopology(IIDScheduler):
            def resolve_topology(self, round_number, transmitters):
                return super().resolve_topology(round_number, transmitters)

        graph = GRAPH_FACTORIES["geometric"]()
        kwargs, reason = {
            "kernel_full": ({}, None),
            "kernel_counters": ({"trace_mode": TraceMode.COUNTERS}, None),
            "fast_path_off": ({"fast_path": False}, "fast_path is off"),
            "adaptive": (
                {"scheduler": CollisionAdaptiveAdversary(graph)},
                "scheduler CollisionAdaptiveAdversary is adaptive",
            ),
            "custom_topology": (
                {"scheduler": _CustomTopology(graph, probability=0.5, seed=7)},
                "scheduler _CustomTopology overrides resolve_topology",
            ),
            # An equal graph that is a different object: the scheduler's
            # edge ids need not match this graph's topology index.
            "other_graph": (
                {
                    "scheduler": IIDScheduler(
                        GRAPH_FACTORIES["geometric"](), probability=0.5, seed=7
                    )
                },
                "scheduler IIDScheduler was built for another graph",
            ),
        }[case]
        simulator, _ = self._build(graph, **kwargs)
        assert simulator.lane_fallback == reason
        assert simulator.lane == ("kernel" if reason is None else "reference")
        assert simulator.uses_fast_path is (reason is None)

    @pytest.mark.parametrize("trace_mode", [TraceMode.FULL, TraceMode.COUNTERS])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_section_timers_are_always_on(self, trace_mode, fast_path):
        graph = GRAPH_FACTORIES["geometric"]()
        simulator, params = self._build(
            graph, trace_mode=trace_mode, fast_path=fast_path
        )
        assert simulator.perf_stats == {
            **dict.fromkeys(("inputs", "transmit", "resolve", "deliver", "outputs"), 0.0),
            "rounds_skipped": 0,
        }
        simulator.run(params.phase_length)
        assert set(simulator.perf_stats) == {
            "inputs", "transmit", "resolve", "deliver", "outputs", "rounds_skipped"
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


def _assert_same_execution(trace_a, trace_b):
    """Counters always; events unless COUNTERS; frames when FULL."""
    assert trace_a.num_rounds == trace_b.num_rounds
    assert trace_a.event_counts == trace_b.event_counts
    assert trace_a.num_transmissions == trace_b.num_transmissions
    assert trace_a.num_receptions == trace_b.num_receptions
    _assert_identical_traces(trace_a, trace_b, trace_a.num_rounds)


#: Environments that report their next busy round, over a graph's sorted
#: vertices ``vs``.
SKIPPING_ENVIRONMENTS = {
    "saturating": lambda vs: SaturatingEnvironment(senders=vs[:5]),
    "single_shot": lambda vs: SingleShotEnvironment(senders=vs[:3], start_round=4),
    "scripted": lambda vs: ScriptedEnvironment(
        {2: {vs[0]: "a"}, 3: {vs[0]: "queued behind a"}, 90: {vs[1]: "b", vs[2]: "c"}}
    ),
    "null": lambda vs: NullEnvironment(),
}


def _lb_stats(simulator):
    return [
        (
            p.stats_participant_rounds,
            p.stats_broadcast_rounds,
            p.stats_body_rounds_sending,
            p.stats_max_bits_consumed,
            None if p._seed_stream is None else p._seed_stream.bits_consumed,
        )
        for p in (simulator.process_at(v) for v in sorted(simulator.graph.vertices))
    ]


class TestSilentRounds:
    """Silent-round skipping: which runs skip, and that a skipping run
    observes exactly the reference execution."""

    def _lb(self, environment, trace_mode=TraceMode.FULL, reference=False):
        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(71)),
            scheduler=IIDScheduler(graph, probability=0.5, seed=7),
            environment=SKIPPING_ENVIRONMENTS[environment](sorted(graph.vertices)),
            trace_mode=trace_mode,
            fast_path=not reference,
            batch_path=not reference,
        )
        return simulator, params

    @pytest.mark.parametrize("environment", sorted(SKIPPING_ENVIRONMENTS))
    @pytest.mark.parametrize("trace_mode", list(TraceMode))
    def test_lbalg_skips_and_matches_reference(self, environment, trace_mode):
        kernel, params = self._lb(environment, trace_mode)
        reference, _ = self._lb(environment, trace_mode, reference=True)
        rounds = 5 * params.phase_length
        kernel_trace = kernel.run(rounds)
        reference_trace = reference.run(rounds)
        assert kernel.perf_stats["rounds_skipped"] > 0
        assert reference.perf_stats["rounds_skipped"] == 0
        _assert_same_execution(kernel_trace, reference_trace)
        # Skipped body rounds still consume seed bits and count as sending
        # rounds once the run boundary settles the cohorts.
        assert _lb_stats(kernel) == _lb_stats(reference)

    def test_skips_stop_at_run_boundaries(self):
        """Runs split at every few rounds cross skips, flushes and mid-body
        cohort rebuilds, and still equal one reference run."""
        kernel, params = self._lb("saturating")
        reference, _ = self._lb("saturating", reference=True)
        rounds = 4 * params.phase_length
        done = 0
        for step in [1, 7, 2, params.phase_length - 3, 13] * rounds:
            step = min(step, rounds - done)
            kernel.run(step)
            done += step
            if done == rounds:
                break
        assert kernel.current_round == rounds
        assert kernel.perf_stats["rounds_skipped"] > 0
        _assert_same_execution(kernel.trace, reference.run(rounds))
        assert _lb_stats(kernel) == _lb_stats(reference)

    def test_coin_only_rounds_are_skipped(self, monkeypatch):
        """Private coins are drawn ahead (a body's at its start, a leader's
        at its election), so every round the kernel steps either transmits
        or holds bookkeeping: a phase start, preamble end, body start or
        phase end, or a seed phase's election or last round."""
        from repro.core.seed_groups import LocalBroadcastBatchDriver

        stepped = []
        transmit_round = LocalBroadcastBatchDriver.transmit_round

        def spy(driver, round_number, out):
            stepped.append(round_number)
            return transmit_round(driver, round_number, out)

        monkeypatch.setattr(LocalBroadcastBatchDriver, "transmit_round", spy)
        kernel, params = self._lb("saturating")
        reference, _ = self._lb("saturating", reference=True)
        rounds = 4 * params.phase_length
        reference_trace = reference.run(rounds)
        _assert_same_execution(kernel.run(rounds), reference_trace)
        transmitting = {
            t for t in range(1, rounds + 1) if reference_trace.transmissions_in_round(t)
        }
        length, seed_length = params.phase_length, params.seed_params.phase_length
        bookkeeping = set()
        for start in range(0, rounds, length):
            bookkeeping.update(start + offset for offset in (1, params.ts, params.ts + 1, length))
            for seed_start in range(start, start + params.ts, seed_length):
                bookkeeping.update((seed_start + 1, seed_start + seed_length))
        assert set(stepped) <= transmitting | bookkeeping
        # Both a body and a leader's seed phase had silent rounds to skip.
        body = {t for t in range(1, rounds + 1) if (t - 1) % length >= params.ts}
        assert body - transmitting - set(stepped)
        assert (set(range(1, rounds + 1)) - body) - transmitting - set(stepped)

    def test_split_runs_keep_member_rngs_exact(self):
        """Runs split mid-body and mid-leader-phase, just before and just
        after a round where a drawn-ahead coin fires, observe the reference
        execution, and every member's RNG state and statistics equal the
        reference's at each run boundary."""
        from repro.core.local_broadcast import DataFrame
        from repro.core.seed_agreement import SeedFrame

        probe, params = self._lb("saturating", reference=True)
        rounds = 4 * params.phase_length
        trace = probe.run(rounds)
        length, seed_length = params.phase_length, params.seed_params.phase_length

        def firing(kind, keep):
            return [
                t
                for t in range(2, rounds)
                if keep((t - 1) % length + 1)
                and any(type(f) is kind for f in trace.transmissions_in_round(t).values())
            ]

        # Leader coins past a seed phase's election round; data frames past
        # the body's first round.
        leader = firing(
            SeedFrame, lambda offset: offset <= params.ts and (offset - 1) % seed_length > 0
        )
        body = firing(DataFrame, lambda offset: offset > params.ts + 1)
        assert leader and body
        splits = set()
        for t in (leader[0], leader[-1], body[0], body[len(body) // 2], body[-1]):
            splits.update((t - 1, t))

        kernel, _ = self._lb("saturating")
        reference, _ = self._lb("saturating", reference=True)
        for split in sorted(splits) + [rounds]:
            for simulator in (kernel, reference):
                simulator.run(split - simulator.current_round)
            assert [kernel.process_at(v).rng.getstate() for v in sorted(kernel.graph.vertices)] == [
                reference.process_at(v).rng.getstate() for v in sorted(reference.graph.vertices)
            ]
            assert _lb_stats(kernel) == _lb_stats(reference)
        assert kernel.perf_stats["rounds_skipped"] > 0
        _assert_same_execution(kernel.trace, reference.trace)

    def test_phase_ends_are_never_skipped(self, monkeypatch):
        """Leaderless stretches of a preamble are skipped; the phase start,
        every seed-phase start that elects, the preamble end, the body start
        and the phase end still run."""
        from repro.core.seed_agreement import STATUS_ACTIVE, SeedAgreementProcess
        from repro.core.seed_groups import LocalBroadcastBatchDriver

        stepped = []
        transmit_round = LocalBroadcastBatchDriver.transmit_round

        def spy(driver, round_number, out):
            stepped.append(round_number)
            return transmit_round(driver, round_number, out)

        # The reference steps every member through every seed-phase start;
        # the rounds where some member is still active hold an election.
        electing = set()
        begin_phase = SeedAgreementProcess._begin_phase

        def election_spy(sub, phase, global_round):
            if sub._status == STATUS_ACTIVE:
                electing.add(global_round)
            return begin_phase(sub, phase, global_round)

        monkeypatch.setattr(LocalBroadcastBatchDriver, "transmit_round", spy)
        monkeypatch.setattr(SeedAgreementProcess, "_begin_phase", election_spy)
        kernel, params = self._lb("null")
        reference, _ = self._lb("null", reference=True)
        rounds = 4 * params.phase_length
        _assert_same_execution(kernel.run(rounds), reference.run(rounds))
        assert kernel.perf_stats["rounds_skipped"] > 0
        stepped = set(stepped)
        length = params.phase_length
        preamble = set()
        for phase in range(4):
            start = phase * length
            preamble.update(range(start + 1, start + params.ts + 1))
            for offset in (1, params.ts, params.ts + 1, length):
                assert start + offset in stepped
        assert electing and electing <= stepped
        # Seed phases elect at their starts only, so leaderless preamble
        # rounds in between are skipped.
        assert preamble - stepped

    @pytest.mark.parametrize(
        "arrival, args, capacity",
        [
            ("periodic", {"period": 40}, 0),
            ("poisson", {"rate": 0.02}, 0),
            ("poisson", {"rate": 0.2}, 2),
        ],
    )
    def test_queued_environment_skips_and_matches_reference(self, arrival, args, capacity):
        """A queued run skips the rounds with no arrival at an idle vertex;
        split into several runs it still observes the reference execution,
        and the skipped rounds' arrivals, drops and backlog samples are what
        stepping them records."""
        from repro.traffic.arrivals import build_arrival_process
        from repro.traffic.environment import QueuedEnvironment

        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )

        def build(reference):
            process = build_arrival_process(
                arrival, args, sources=sorted(graph.vertices)[:6], sinks=(), seed=3
            )
            return Simulator(
                graph,
                make_lb_processes(graph, params, random.Random(71)),
                scheduler=IIDScheduler(graph, probability=0.5, seed=7),
                environment=QueuedEnvironment(graph, process, capacity=capacity),
                fast_path=not reference,
                batch_path=not reference,
            )

        kernel, reference = build(False), build(True)
        assert kernel.lane == "kernel" and kernel.uses_batch_stepping
        # Long enough for acks, which free vertices with a backlog.
        rounds = 6 * params.phase_length
        done = 0
        for step in [5, params.phase_length - 2, 17] * rounds:
            step = min(step, rounds - done)
            kernel.run(step)
            done += step
            if done == rounds:
                break
        assert kernel.perf_stats["rounds_skipped"] > 0
        _assert_same_execution(kernel.trace, reference.run(rounds))
        queued = [sim.environment for sim in (kernel, reference)]
        assert len(queued[0].backlog_samples) == rounds
        for name in (
            "offered",
            "enqueued",
            "dropped",
            "acked",
            "delivered_before_ack",
            "rounds_observed",
            "backlog_samples",
            "wait_samples",
            "delivery_latencies",
            "ack_latencies",
        ):
            assert getattr(queued[0], name) == getattr(queued[1], name), name
        assert queued[0].acked > 0
        assert (queued[0].dropped > 0) == (capacity > 0)

    def test_inherited_answer_never_skips(self):
        """A subclass that changes submissions inherits its parent's
        next_busy_round, which is not about it: the run steps every round."""

        class EveryTenRounds(NullEnvironment):
            def _wanted_submissions(self, round_number):
                return [(0, f"tick-{round_number}")] if round_number % 10 == 0 else ()

        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(71)),
            environment=EveryTenRounds(),
        )
        simulator.run(2 * params.phase_length)
        assert simulator.perf_stats["rounds_skipped"] == 0
        assert simulator.trace.event_counts["bcast"] > 0

    def test_ungrouped_process_never_skips(self):
        """A process stepped on its own reports no next busy round, so one
        such process keeps the whole run stepping every round."""
        graph = GRAPH_FACTORIES["geometric"]()
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        processes = make_lb_processes(graph, params, random.Random(71))
        loner = sorted(graph.vertices)[-1]
        processes[loner] = SilentProcess(processes[loner].ctx)
        simulator = Simulator(graph, processes, environment=NullEnvironment())
        assert simulator.lane == "kernel" and simulator.uses_batch_stepping
        simulator.run(2 * params.phase_length)
        assert simulator.perf_stats["rounds_skipped"] == 0

    @pytest.mark.parametrize("environment", ["single_shot", "null"])
    def test_reference_lane_never_skips(self, environment):
        reference, params = self._lb(environment, reference=True)
        reference.run(3 * params.phase_length)
        assert reference.perf_stats["rounds_skipped"] == 0


class TestBaselineBatching:
    """Exact Decay / Uniform populations are stepped by one driver per
    population; RoundRobin and subclasses are stepped per process."""

    def _build(self, kind, environment, reference=False, **kwargs):
        graph = clique_network(9)[0]
        simulator = Simulator(
            graph,
            make_baseline_processes(graph, kind, random.Random(13), **kwargs),
            environment=SKIPPING_ENVIRONMENTS[environment](sorted(graph.vertices)),
            fast_path=not reference,
            batch_path=not reference,
        )
        return simulator

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("decay", {"num_cycles": 3}),
            ("uniform", {}),
            ("uniform", {"probability": 1.0, "active_rounds": 5}),
        ],
    )
    @pytest.mark.parametrize("environment", sorted(SKIPPING_ENVIRONMENTS))
    def test_batched_baselines_match_reference(self, kind, kwargs, environment):
        batched = self._build(kind, environment, **kwargs)
        reference = self._build(kind, environment, reference=True, **kwargs)
        assert batched.uses_batch_stepping
        (driver,) = batched.batch_drivers
        assert isinstance(driver, BaselineBatchDriver)
        assert len(driver.members) == batched.graph.n
        assert not reference.uses_batch_stepping
        rounds = 150
        _assert_same_execution(batched.run(rounds), reference.run(rounds))
        assert [
            (p.current_message, p.rounds_active, p.rng.random())
            for p in (batched.process_at(v) for v in sorted(batched.graph.vertices))
        ] == [
            (p.current_message, p.rounds_active, p.rng.random())
            for p in (reference.process_at(v) for v in sorted(reference.graph.vertices))
        ]
        if environment != "saturating":
            # Idle populations are skipped once every message is acked.
            assert batched.perf_stats["rounds_skipped"] > 0

    def test_round_robin_is_stepped_per_process(self):
        simulator = self._build("round_robin", "single_shot")
        assert not simulator.uses_batch_stepping
        simulator.run(100)
        assert simulator.perf_stats["rounds_skipped"] == 0

    def test_baseline_subclasses_are_never_batched(self):
        class TweakedDecay(DecayProcess):
            pass

        ctx = ProcessContext(vertex=0, delta=4, delta_prime=4)
        assert TweakedDecay(ctx).batch_group_key() is None
        assert DecayProcess(ctx.child()).batch_group_key() is not None

    def test_cohorts_key_on_class_cycle_and_active_rounds(self):
        graph = clique_network(4)[0]
        rng = random.Random(3)
        decay = make_baseline_processes(graph, "decay", rng, num_cycles=2)
        uniform = make_baseline_processes(graph, "uniform", rng, active_rounds=8)
        longer = make_baseline_processes(graph, "uniform", rng, active_rounds=9)
        processes = {0: decay[0], 1: uniform[1], 2: uniform[2], 3: longer[3]}
        simulator = Simulator(graph, processes)
        assert sorted(len(d.members) for d in simulator.batch_drivers) == [1, 1, 2]


class TestNoUnreliableBinding:
    def test_none_scheduler_is_never_asked(self, monkeypatch):
        """On a graph with unreliable edges the kernel treats ``none`` as
        having none: its empty delta is never decoded."""
        graph = GRAPH_FACTORIES["geometric"]()
        assert graph.unreliable_edges
        asked = []
        monkeypatch.setattr(
            NoUnreliableScheduler,
            "_compute_unreliable_edge_ids",
            lambda self, round_number, index: asked.append(round_number) or (),
        )
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )

        def build(fast):
            return Simulator(
                graph,
                make_lb_processes(graph, params, random.Random(71)),
                scheduler=NoUnreliableScheduler(graph),
                environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
                fast_path=fast,
                batch_path=fast,
            )

        kernel = build(True)
        rounds = 2 * params.phase_length
        kernel_trace = kernel.run(rounds)
        assert asked == []
        assert kernel_trace.num_transmissions > 0
        _assert_same_execution(kernel_trace, build(False).run(rounds))

    def test_full_scheduler_mask_is_bound_once(self, monkeypatch):
        """``full`` schedules every unreliable edge in every round: the
        kernel binds that mask once and never decodes a round's delta."""
        graph = GRAPH_FACTORIES["geometric"]()
        assert graph.unreliable_edges
        decoded = []
        edge_mask = Simulator._edge_mask
        monkeypatch.setattr(
            Simulator,
            "_edge_mask",
            lambda self, round_number: decoded.append(round_number)
            or edge_mask(self, round_number),
        )
        params = LBParams.small_for_testing(
            delta=graph.max_reliable_degree, delta_prime=graph.max_potential_degree
        )
        kernel = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(71)),
            scheduler=FullInclusionScheduler(graph),
            environment=SaturatingEnvironment(senders=sorted(graph.vertices)[:5]),
        )
        assert kernel.lane == "kernel"
        kernel_trace = kernel.run(2 * params.phase_length)
        assert decoded == []
        assert kernel_trace.num_receptions > 0
