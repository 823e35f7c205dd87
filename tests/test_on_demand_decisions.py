"""Differential tests for on-demand IID link decisions.

The kernel decides an IID scheduler's unreliable edges only where a round's
transmitters need them (``IIDScheduler.decide_edge_mask``), memoized per
``(delta cache key, round)`` as ``(decided_bits, included_bits)`` in
``engine._SCHED_MASK_CACHE``.  These tests check every decision against the
per-edge reference hash ``_edge_round_hash``, the memo's partial entries
against fresh decisions, and that deciding freezes the graph the per-edge
hash states are built from.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DualGraph,
    IIDScheduler,
    LBParams,
    PeriodicScheduler,
    Simulator,
    make_lb_processes,
    random_geographic_network,
)
from repro.dualgraph.adversary import _edge_round_hash
from repro.simulation import engine
from repro.simulation.environment import SaturatingEnvironment
from tests.helpers import assert_frozen

PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.01, max_value=0.99)
)


def _network(seed: int) -> DualGraph:
    graph, _ = random_geographic_network(12, side=3.0, r=2.0, rng=random.Random(seed))
    return graph


def _reference_mask(graph: DualGraph, seed: int, p: float, round_number: int, need: int) -> int:
    """The edges of ``need`` whose reference hash falls below ``p``."""
    mask = 0
    for eid, edge in enumerate(graph.topology_index().unreliable_edge_list):
        if need >> eid & 1 and _edge_round_hash(seed, edge, round_number) < p:
            mask |= 1 << eid
    return mask


class TestDecideEdgeMask:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_seed=st.integers(0, 50),
        seed=st.integers(-(2**40), 2**40),
        p=PROBABILITIES,
        rounds=st.lists(st.integers(1, 10**6), min_size=1, max_size=4),
        need_bits=st.integers(min_value=0),
    )
    def test_matches_edge_round_hash(self, graph_seed, seed, p, rounds, need_bits):
        graph = _network(graph_seed)
        count = graph.topology_index().num_unreliable_edges
        everything = (1 << count) - 1
        scheduler = IIDScheduler(graph, probability=p, seed=seed)
        for round_number in rounds:
            for need in (need_bits & everything, everything, 0):
                assert scheduler.decide_edge_mask(round_number, need) == _reference_mask(
                    graph, seed, p, round_number, need
                )
            # The id view is the all-edges decision, and agrees with the
            # frozenset reference view.
            ids = scheduler._compute_unreliable_edge_ids(round_number, graph.topology_index())
            edges = frozenset(graph.topology_index().unreliable_edge_list[eid] for eid in ids)
            assert edges == scheduler.unreliable_edges_for_round(round_number)

    def test_only_iid_opts_in(self):
        graph = _network(1)
        assert IIDScheduler(graph).decides_edges_independently
        periodic = PeriodicScheduler(graph)
        assert not periodic.decides_edges_independently
        with pytest.raises(NotImplementedError):
            periodic.decide_edge_mask(1, 1)

    def test_deciding_freezes_graph(self):
        graph = DualGraph(
            [0, 1, 2, 3, 4],
            reliable_edges=[(0, 1), (1, 2), (2, 3), (3, 4)],
            unreliable_edges=[(1, 3), (2, 4)],
        )
        scheduler = IIDScheduler(graph, probability=0.5, seed=8)
        # Edges added before the first decision sort before and between the
        # old ones; the hash states are built over the finished graph.
        graph.add_unreliable_edge(0, 2)
        graph.add_unreliable_edge(0, 3)
        graph.add_unreliable_edge(1, 4)
        graph.add_reliable_edge(1, 3)  # promoted: no longer an unreliable edge
        assert scheduler.decide_edge_mask(1, 0b1) == _reference_mask(graph, 8, 0.5, 1, 0b1)
        assert_frozen(graph)
        everything = (1 << graph.topology_index().num_unreliable_edges) - 1
        assert everything == 0b1111
        for round_number in range(1, 30):
            assert scheduler.decide_edge_mask(round_number, everything) == _reference_mask(
                graph, 8, 0.5, round_number, everything
            )


def _simulator(graph, scheduler, senders, fast_path=True):
    params = LBParams.small_for_testing(delta=8, delta_prime=8)
    return Simulator(
        graph,
        make_lb_processes(graph, params, random.Random(3)),
        scheduler=scheduler,
        environment=SaturatingEnvironment(senders=senders),
        fast_path=fast_path,
    )


class TestDecisionMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(engine, "_SCHED_MASK_CACHE", {})

    def test_second_simulator_extends_a_partly_decided_entry(self, monkeypatch):
        graph_a = _network(7)
        graph_b = _network(7)  # same structure, so the same delta key
        a = _simulator(graph_a, IIDScheduler(graph_a, probability=0.5, seed=4), [])
        b = _simulator(graph_b, IIDScheduler(graph_b, probability=0.5, seed=4), [])
        assert a._sched_mask_key == b._sched_mask_key
        inc = a._u_inc_masks
        vertices = [i for i, mask in enumerate(inc) if mask]
        need_a = inc[vertices[0]]
        need_b = inc[vertices[0]] | inc[vertices[-1]]
        assert need_b & ~need_a  # b needs edges a left undecided

        asked = []
        decide = IIDScheduler.decide_edge_mask

        def recording(self, round_number, need):
            asked.append(need)
            return decide(self, round_number, need)

        monkeypatch.setattr(IIDScheduler, "decide_edge_mask", recording)
        reference = IIDScheduler(graph_a, probability=0.5, seed=4)
        for round_number in (1, 2, 5):
            del asked[:]
            got_a = a._decided_edge_mask(round_number, need_a)
            got_b = b._decided_edge_mask(round_number, need_b)
            assert asked == [need_a, need_b & ~need_a]  # nothing hashed twice
            assert got_a & need_a == decide(reference, round_number, need_a)
            assert got_b & need_b == decide(reference, round_number, need_b)
            decided, included = engine._SCHED_MASK_CACHE[(a._sched_mask_key, round_number)]
            assert decided == need_b and included == got_b

    def test_runs_sharing_a_key_match_the_reference_engine(self):
        graph = _network(11)
        n = len(graph.vertices)
        vertices = sorted(graph.vertices)
        rounds = 60
        first = _simulator(graph, IIDScheduler(graph, probability=0.5, seed=9), vertices[:2])
        first.run(rounds)
        assert engine._SCHED_MASK_CACHE
        for senders in (vertices[n // 2 :], vertices[::3]):
            fresh = _network(11)
            kernel = _simulator(fresh, IIDScheduler(fresh, probability=0.5, seed=9), senders)
            assert kernel._sched_mask_key == first._sched_mask_key
            reference = _simulator(
                fresh, IIDScheduler(fresh, probability=0.5, seed=9), senders, fast_path=False
            )
            kernel_trace = kernel.run(rounds)
            reference_trace = reference.run(rounds)
            for t in range(1, rounds + 1):
                assert kernel_trace.receptions_in_round(t) == reference_trace.receptions_in_round(t)
            assert kernel_trace.events == reference_trace.events
        for decided, included in engine._SCHED_MASK_CACHE.values():
            assert included & ~decided == 0
