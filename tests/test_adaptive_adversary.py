"""Tests for the adaptive link scheduler extension (outside the paper's model).

The paper assumes an *oblivious* link scheduler and cites the impossibility of
efficient local broadcast progress against an *adaptive* one.  The adaptive
schedulers in this library exist to reproduce that contrast; these tests check
their mechanics and the qualitative collapse of reception under them.
"""

import random

import pytest

from repro import (
    CollisionAdaptiveAdversary,
    IIDScheduler,
    LBParams,
    SaturatingEnvironment,
    Simulator,
    make_lb_processes,
    two_clusters_network,
)
from repro.dualgraph.adversary import AdaptiveLinkScheduler
from repro.dualgraph.graph import DualGraph, normalize_edge
from repro.simulation.process import Process, ProcessContext


class FixedTransmitters(Process):
    """Transmits a constant frame iff its vertex is in the chosen set."""

    def __init__(self, ctx, transmitters):
        super().__init__(ctx)
        self._transmitters = transmitters
        self.heard = []

    def transmit(self, round_number):
        if self.vertex in self._transmitters:
            return ("data", self.vertex)
        return None

    def on_receive(self, round_number, frame):
        self.heard.append(frame)


def _ctx(vertex):
    return ProcessContext(vertex=vertex, delta=8, delta_prime=8)


@pytest.fixture
def collision_graph():
    """Receiver 0 with a reliable sender 1 and an unreliable-linked sender 2."""
    return DualGraph(
        vertices=[0, 1, 2],
        reliable_edges=[(0, 1)],
        unreliable_edges=[(0, 2)],
    )


class TestAdaptiveSchedulerInterface:
    def test_oblivious_schedulers_are_not_adaptive(self, collision_graph):
        assert not IIDScheduler(collision_graph, 0.5).is_adaptive

    def test_collision_adversary_is_adaptive(self, collision_graph):
        adversary = CollisionAdaptiveAdversary(collision_graph)
        assert adversary.is_adaptive
        assert isinstance(adversary, AdaptiveLinkScheduler)
        assert "adaptive" in adversary.describe()

    def test_oblivious_projection_is_empty(self, collision_graph):
        adversary = CollisionAdaptiveAdversary(collision_graph)
        assert adversary.unreliable_edges_for_round(5) == frozenset()


class TestCollisionAdaptiveAdversary:
    def test_spoils_a_clean_reliable_reception(self, collision_graph):
        adversary = CollisionAdaptiveAdversary(collision_graph)
        # Both 1 (reliable neighbor) and 2 (unreliable neighbor) transmit:
        # the adversary adds the unreliable edge to create a collision at 0.
        chosen = adversary.adaptive_unreliable_edges(1, frozenset({1, 2}))
        assert chosen == {normalize_edge(0, 2)}

    def test_does_not_help_a_lonely_unreliable_transmitter(self, collision_graph):
        adversary = CollisionAdaptiveAdversary(collision_graph)
        # Only the unreliable-linked vertex transmits: adding its edge would
        # help the receiver, so the adversary stays out.
        assert adversary.adaptive_unreliable_edges(1, frozenset({2})) == frozenset()

    def test_no_spare_transmitter_means_no_edge(self, collision_graph):
        adversary = CollisionAdaptiveAdversary(collision_graph)
        assert adversary.adaptive_unreliable_edges(1, frozenset({1})) == frozenset()

    def test_end_to_end_reception_is_suppressed(self, collision_graph):
        processes = {
            0: FixedTransmitters(_ctx(0), transmitters=set()),
            1: FixedTransmitters(_ctx(1), transmitters={1, 2}),
            2: FixedTransmitters(_ctx(2), transmitters={1, 2}),
        }
        simulator = Simulator(
            collision_graph, processes, scheduler=CollisionAdaptiveAdversary(collision_graph)
        )
        simulator.run(5)
        # With the adversary reacting every round, vertex 0 never hears anything.
        assert all(frame is None for frame in processes[0].heard)

    def test_without_the_adversary_the_same_setup_delivers(self, collision_graph):
        from repro.dualgraph.adversary import NoUnreliableScheduler

        processes = {
            0: FixedTransmitters(_ctx(0), transmitters=set()),
            1: FixedTransmitters(_ctx(1), transmitters={1, 2}),
            2: FixedTransmitters(_ctx(2), transmitters={1, 2}),
        }
        simulator = Simulator(
            collision_graph, processes, scheduler=NoUnreliableScheduler(collision_graph)
        )
        simulator.run(5)
        assert all(frame == ("data", 1) for frame in processes[0].heard)


class TestLBAlgUnderAdaptiveAdversary:
    def test_every_included_edge_spoils_a_reception(self):
        """Soundness of the adversary inside a full LBAlg run: whenever it
        decides to include an unreliable edge at a listening vertex, that
        vertex hears nothing in that round (the edge exists only to collide),
        and the adversary never gratuitously enables a delivery."""
        graph, _ = two_clusters_network(cluster_size=5, gap=1.5, rng=8)
        delta, delta_prime = graph.degree_bounds()
        params = LBParams.small_for_testing(
            delta=delta, delta_prime=delta_prime, tprog=60, tack_phases=2, seed_phase_length=6
        )
        receiver = 0
        senders = [v for v in sorted(graph.vertices) if v != receiver]
        adversary = CollisionAdaptiveAdversary(graph)
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(3)),
            scheduler=adversary,
            environment=SaturatingEnvironment(senders=senders),
        )
        rounds = 2 * params.phase_length
        trace = simulator.run(rounds)

        for round_number in range(1, rounds + 1):
            transmitters = frozenset(trace.transmissions_in_round(round_number))
            chosen = adversary.adaptive_unreliable_edges(round_number, transmitters)
            receptions = trace.receptions_in_round(round_number)
            for edge in chosen:
                for vertex in edge:
                    if vertex not in transmitters:
                        assert vertex not in receptions

    def test_adaptive_adversary_never_delivers_over_unreliable_edges(self):
        """Under this adversary a reception can only ever come from a reliable
        neighbor -- the adversary only includes unreliable edges that collide."""
        graph, _ = two_clusters_network(cluster_size=5, gap=1.5, rng=9)
        delta, delta_prime = graph.degree_bounds()
        params = LBParams.small_for_testing(
            delta=delta, delta_prime=delta_prime, tprog=60, tack_phases=2, seed_phase_length=6
        )
        senders = sorted(graph.vertices)[1:]
        simulator = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(5)),
            scheduler=CollisionAdaptiveAdversary(graph),
            environment=SaturatingEnvironment(senders=senders),
        )
        rounds = 2 * params.phase_length
        trace = simulator.run(rounds)
        for round_number in range(1, rounds + 1):
            transmissions = trace.transmissions_in_round(round_number)
            for receiver, frame in trace.receptions_in_round(round_number).items():
                sender_candidates = [
                    v for v, sent in transmissions.items() if sent is frame
                ]
                assert any(
                    candidate in graph.reliable_neighbors(receiver)
                    for candidate in sender_candidates
                )
