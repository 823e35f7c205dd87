"""Unit tests for the network generator families."""

import math
import random

import pytest

from repro.dualgraph.generators import (
    clique_network,
    cluster_network,
    grid_network,
    line_network,
    random_geographic_network,
    star_network,
    two_clusters_network,
)
from repro.dualgraph.geometric import (
    Embedding,
    always_reliable_policy,
    always_unreliable_policy,
    is_r_geographic,
)
from repro.dualgraph.graph import DualGraph


class TestRandomGeographicNetwork:
    def test_produces_requested_size(self):
        graph, emb = random_geographic_network(12, side=3.0, rng=1)
        assert graph.n == 12
        assert len(emb) == 12

    def test_result_is_r_geographic(self):
        graph, emb = random_geographic_network(15, side=3.0, r=2.0, rng=2)
        assert is_r_geographic(graph, emb, 2.0)

    def test_reproducible_from_seed(self):
        g1, e1 = random_geographic_network(10, side=3.0, rng=5)
        g2, e2 = random_geographic_network(10, side=3.0, rng=5)
        assert g1.reliable_edges == g2.reliable_edges
        assert g1.unreliable_edges == g2.unreliable_edges
        assert all(e1.position(v) == e2.position(v) for v in g1.vertices)

    def test_different_seeds_differ(self):
        g1, _ = random_geographic_network(10, side=3.0, rng=5)
        g2, _ = random_geographic_network(10, side=3.0, rng=6)
        assert (
            g1.reliable_edges != g2.reliable_edges
            or g1.unreliable_edges != g2.unreliable_edges
        )

    def test_accepts_random_instance(self):
        rng = random.Random(9)
        graph, _ = random_geographic_network(8, side=2.5, rng=rng)
        assert graph.n == 8

    def test_require_connected(self):
        graph, _ = random_geographic_network(
            12, side=2.5, rng=4, require_connected=True
        )
        assert graph.is_reliably_connected()

    def test_require_connected_can_fail(self):
        # A huge, sparse area cannot produce a connected 30-node G.
        with pytest.raises(RuntimeError):
            random_geographic_network(
                30, side=200.0, rng=0, require_connected=True, max_attempts=3
            )

    @staticmethod
    def _attempt_loop(n, side, r, rng, policy, max_attempts):
        """The generator's contract, one full graph per attempt: drop points,
        build the r-geographic graph pair by pair, keep it once G is
        connected.  Returns the graph, the embedding and the attempts."""
        for attempt in range(1, max_attempts + 1):
            positions = {
                i: (rng.uniform(0.0, side), rng.uniform(0.0, side)) for i in range(n)
            }
            embedding = Embedding(positions)
            graph = DualGraph(list(positions))
            for i, u in enumerate(positions):
                for v in list(positions)[i + 1 :]:
                    d = embedding.distance(u, v)
                    if d <= 1.0:
                        graph.add_reliable_edge(u, v)
                    elif d <= r:
                        decision = policy(u, v, d)
                        if decision == "reliable":
                            graph.add_reliable_edge(u, v)
                        elif decision == "unreliable":
                            graph.add_unreliable_edge(u, v)
            if graph.is_reliably_connected():
                return graph, embedding, attempt
        return None, None, max_attempts

    @pytest.mark.parametrize("policy", ["default", "always_reliable", "probability"])
    def test_matches_one_graph_per_attempt(self, policy):
        """Classifying pairs once per attempt and building only the accepted
        graph gives the same graph, positions and rng state, over accepted
        first attempts, accepted later ones and exhausted attempts."""
        # Grey-zone pairs joining G make it connect at twice the spacing.
        n, side, r = 16, (6.0 if policy == "always_reliable" else 3.6), 2.0
        outcomes = set()
        for seed in range(8):
            for max_attempts in (2, 40):
                kwargs = {}
                reference_rng = random.Random(seed)
                reference_policy = always_unreliable_policy
                if policy == "always_reliable":
                    kwargs["grey_zone_policy"] = reference_policy = always_reliable_policy
                elif policy == "probability":
                    kwargs["grey_zone_edge_probability"] = 0.4

                    def reference_policy(u, v, d, _rng=reference_rng):
                        return "unreliable" if _rng.random() < 0.4 else "none"

                graph, embedding, attempts = self._attempt_loop(
                    n, side, r, reference_rng, reference_policy, max_attempts
                )
                rng = random.Random(seed)
                build = lambda: random_geographic_network(  # noqa: E731
                    n, side=side, r=r, rng=rng, require_connected=True,
                    max_attempts=max_attempts, **kwargs,
                )
                if graph is None:
                    with pytest.raises(RuntimeError):
                        build()
                else:
                    got, got_embedding = build()
                    assert got.reliable_edges == graph.reliable_edges
                    assert got.unreliable_edges == graph.unreliable_edges
                    assert dict(got_embedding.items()) == dict(embedding.items())
                assert rng.getstate() == reference_rng.getstate()
                outcomes.add("exhausted" if graph is None else attempts > 1)
        assert outcomes == {False, True, "exhausted"}

    def test_grey_zone_edge_probability_zero_means_no_unreliable_edges(self):
        graph, _ = random_geographic_network(
            12, side=3.0, rng=7, grey_zone_edge_probability=0.0
        )
        assert len(graph.unreliable_edges) == 0

    def test_grey_zone_edge_probability_one_matches_default_policy(self):
        g_prob, _ = random_geographic_network(
            12, side=3.0, rng=7, grey_zone_edge_probability=1.0
        )
        g_default, _ = random_geographic_network(12, side=3.0, rng=7)
        assert g_prob.unreliable_edges == g_default.unreliable_edges

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            random_geographic_network(5, grey_zone_edge_probability=1.5)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            random_geographic_network(0)


class TestLineNetwork:
    def test_consecutive_vertices_are_reliable_neighbors(self):
        graph, _ = line_network(5, spacing=0.9)
        for i in range(4):
            assert graph.has_reliable_edge(i, i + 1)

    def test_two_hop_vertices_fall_in_grey_zone(self):
        graph, _ = line_network(5, spacing=0.9, r=2.0)
        assert graph.has_unreliable_edge(0, 2)
        assert not graph.has_any_edge(0, 3)

    def test_diameter_matches_length(self):
        graph, _ = line_network(7, spacing=0.9)
        assert graph.reliable_hop_distance(0, 6) == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            line_network(0)


class TestGridNetwork:
    def test_size(self):
        graph, _ = grid_network(3, 4, spacing=0.9)
        assert graph.n == 12

    def test_lattice_neighbors_are_reliable(self):
        graph, _ = grid_network(3, 3, spacing=0.9)
        # Vertex numbering is row-major: vertex 4 is the center.
        assert graph.has_reliable_edge(4, 1)
        assert graph.has_reliable_edge(4, 3)
        assert graph.has_reliable_edge(4, 5)
        assert graph.has_reliable_edge(4, 7)

    def test_result_is_r_geographic(self):
        graph, emb = grid_network(3, 3, spacing=0.9, r=2.0)
        assert is_r_geographic(graph, emb, 2.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            grid_network(0, 3)


class TestCliqueNetwork:
    def test_everyone_is_a_reliable_neighbor(self):
        graph, _ = clique_network(6)
        for u in graph.vertices:
            assert len(graph.reliable_neighbors(u)) == 5

    def test_degree_bound_equals_n(self):
        graph, _ = clique_network(7)
        assert graph.max_reliable_degree == 7

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            clique_network(5, radius=0.8)


class TestStarNetwork:
    def test_center_has_all_leaves_as_reliable_neighbors(self):
        graph, _ = star_network(6)
        assert graph.reliable_neighbors(0) == frozenset(range(1, 7))

    def test_leaves_are_grey_zone_connected(self):
        graph, _ = star_network(6)
        # Adjacent leaves are within 2r of each other; with the default policy
        # they get unreliable edges, never reliable ones beyond distance 1.
        assert graph.max_potential_degree >= graph.max_reliable_degree

    def test_rejects_no_leaves(self):
        with pytest.raises(ValueError):
            star_network(0)


class TestClusterNetworks:
    def test_cluster_count_and_size(self):
        graph, _ = cluster_network(clusters=3, cluster_size=4, rng=1)
        assert graph.n == 12

    def test_within_cluster_is_reliable(self):
        graph, emb = cluster_network(clusters=2, cluster_size=4, rng=2)
        # Vertices 0..3 are the first cluster: all within radius 0.4 of its
        # center, hence within distance <= 0.8 of each other.
        for u in range(4):
            for v in range(u + 1, 4):
                assert graph.has_reliable_edge(u, v)

    def test_two_clusters_bridged_only_by_unreliable_edges(self):
        graph, _ = two_clusters_network(cluster_size=4, gap=1.5, rng=3)
        first, second = set(range(4)), set(range(4, 8))
        for u in first:
            for v in second:
                assert not graph.has_reliable_edge(u, v)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cluster_network(clusters=0, cluster_size=3)

    def test_reproducible(self):
        g1, _ = cluster_network(clusters=2, cluster_size=5, rng=11)
        g2, _ = cluster_network(clusters=2, cluster_size=5, rng=11)
        assert g1.reliable_edges == g2.reliable_edges
