"""Dual graph network generators.

Every generator returns a pair ``(DualGraph, Embedding)`` so that the region
partition machinery and the r-geographic property checks are always available
to callers.  All randomness flows through an explicit ``random.Random``
instance (or an integer seed) so that experiments are reproducible.

Families provided:

* :func:`random_geographic_network` -- points dropped uniformly at random in a
  square; the workhorse for the benchmarks.
* :func:`grid_network` -- vertices on a regular lattice.
* :func:`line_network` -- a multihop path, used by the abstract MAC flooding
  experiments.
* :func:`clique_network` -- all vertices within distance 1 (single-hop, dense
  contention), used for the acknowledgment lower-bound context experiment.
* :func:`star_network` -- ``Δ`` broadcasters around one receiver, the explicit
  worst case for acknowledgment described in the paper's introduction.
* :func:`cluster_network` / :func:`two_clusters_network` -- dense clusters
  bridged by grey-zone (unreliable) links, highlighting the role of the link
  scheduler.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Tuple, Union

from repro.dualgraph.geometric import (
    Embedding,
    GreyZonePolicy,
    always_unreliable_policy,
    build_geographic_dual_graph,
    geographic_dual_graph,
    geographic_edges,
)
from repro.dualgraph.graph import DualGraph

RandomLike = Union[int, random.Random, None]


def _as_rng(seed: RandomLike) -> random.Random:
    """Normalize a seed-or-Random argument into a ``random.Random``."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _reliably_connected(n: int, edges: Iterable[Tuple[int, int, bool]]) -> bool:
    """Whether the reliable ``edges`` connect vertices ``0 .. n-1`` (union-find)."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v, reliable in edges:
        if reliable:
            ru, rv = root(u), root(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
    return components == 1


def random_geographic_network(
    n: int,
    side: float = 4.0,
    r: float = 2.0,
    rng: RandomLike = None,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
    grey_zone_edge_probability: Optional[float] = None,
    require_connected: bool = False,
    max_attempts: int = 50,
) -> Tuple[DualGraph, Embedding]:
    """Drop ``n`` points uniformly at random in a ``side x side`` square.

    Pairs at distance <= 1 become reliable edges; grey-zone pairs (distance in
    ``(1, r]``) are classified by ``grey_zone_policy`` -- or, when
    ``grey_zone_edge_probability`` is given, each grey-zone pair independently
    becomes an unreliable edge with that probability and is otherwise left
    unconnected.

    Parameters
    ----------
    require_connected:
        When true, re-sample positions until ``G`` is connected (up to
        ``max_attempts`` times).
    """
    if n <= 0:
        raise ValueError(f"need at least one vertex, got n={n}")
    rng = _as_rng(rng)

    policy = grey_zone_policy
    if grey_zone_edge_probability is not None:
        if not 0.0 <= grey_zone_edge_probability <= 1.0:
            raise ValueError("grey_zone_edge_probability must be in [0, 1]")

        def policy(u, v, distance, _p=grey_zone_edge_probability, _rng=rng):
            return "unreliable" if _rng.random() < _p else "none"

    for _ in range(max(1, max_attempts)):
        positions = {
            i: (rng.uniform(0.0, side), rng.uniform(0.0, side)) for i in range(n)
        }
        # Classify first and build only the accepted attempt's graph.
        edges = geographic_edges(positions, r=r, grey_zone_policy=policy)
        if not require_connected or _reliably_connected(n, edges):
            return build_geographic_dual_graph(positions, edges)
    raise RuntimeError(
        f"could not sample a connected network of n={n} in {max_attempts} attempts; "
        "increase density (smaller side) or allow disconnected graphs"
    )


def grid_network(
    rows: int,
    cols: int,
    spacing: float = 0.9,
    r: float = 2.0,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
) -> Tuple[DualGraph, Embedding]:
    """Vertices on a regular ``rows x cols`` lattice with the given spacing.

    With the default spacing of 0.9 every lattice neighbor is a reliable
    neighbor, and diagonal / two-hop lattice neighbors fall in the grey zone
    when ``r`` is large enough.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    positions = {
        (i * cols + j): (j * spacing, i * spacing)
        for i in range(rows)
        for j in range(cols)
    }
    return geographic_dual_graph(positions, r=r, grey_zone_policy=grey_zone_policy)


def line_network(
    n: int,
    spacing: float = 0.9,
    r: float = 2.0,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
) -> Tuple[DualGraph, Embedding]:
    """A path of ``n`` vertices, ``spacing`` apart along the x axis."""
    if n <= 0:
        raise ValueError("need at least one vertex")
    positions = {i: (i * spacing, 0.0) for i in range(n)}
    return geographic_dual_graph(positions, r=r, grey_zone_policy=grey_zone_policy)


def clique_network(n: int, radius: float = 0.45, r: float = 2.0) -> Tuple[DualGraph, Embedding]:
    """All ``n`` vertices within mutual distance <= 1 (a reliable clique).

    Vertices are placed on a circle of the given radius (diameter <= 1), so
    every pair is a reliable neighbor.  This is the maximal-contention
    single-hop topology used by the lower-bound context experiments.
    """
    if n <= 0:
        raise ValueError("need at least one vertex")
    if radius <= 0 or radius > 0.5:
        raise ValueError("radius must be in (0, 0.5] so that the diameter stays <= 1")
    positions = {}
    for i in range(n):
        angle = 2.0 * math.pi * i / max(n, 1)
        positions[i] = (radius * math.cos(angle), radius * math.sin(angle))
    return geographic_dual_graph(positions, r=r)


def star_network(
    leaves: int,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
    r: float = 2.0,
) -> Tuple[DualGraph, Embedding]:
    """One central receiver (vertex 0) surrounded by ``leaves`` broadcasters.

    The leaves sit on a circle of radius 1 around the center, so every leaf is
    a reliable neighbor of the center.  Leaves are pairwise within the grey
    zone (distance <= 2), so with the default policy they can hear each other
    only when the link scheduler says so.  This matches the paper's worst case
    for the acknowledgment bound: a receiver with ``Δ`` neighboring
    broadcasters can absorb only one message per round.
    """
    if leaves <= 0:
        raise ValueError("need at least one leaf")
    positions = {0: (0.0, 0.0)}
    for i in range(leaves):
        angle = 2.0 * math.pi * i / leaves
        positions[i + 1] = (math.cos(angle), math.sin(angle))
    return geographic_dual_graph(positions, r=r, grey_zone_policy=grey_zone_policy)


def cluster_network(
    clusters: int,
    cluster_size: int,
    cluster_spacing: float = 1.5,
    cluster_radius: float = 0.4,
    r: float = 2.0,
    rng: RandomLike = None,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
) -> Tuple[DualGraph, Embedding]:
    """Dense clusters along a line, bridged only by grey-zone links.

    Each cluster is a reliable clique (all members within distance <= 1);
    members of adjacent clusters fall in the grey zone, so inter-cluster
    connectivity exists only through unreliable edges controlled by the link
    scheduler.  This family makes link-scheduler effects very visible.
    """
    if clusters <= 0 or cluster_size <= 0:
        raise ValueError("clusters and cluster_size must be positive")
    rng = _as_rng(rng)
    positions = {}
    vertex = 0
    for c in range(clusters):
        center_x = c * cluster_spacing
        for _ in range(cluster_size):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            rho = rng.uniform(0.0, cluster_radius)
            positions[vertex] = (center_x + rho * math.cos(angle), rho * math.sin(angle))
            vertex += 1
    return geographic_dual_graph(positions, r=r, grey_zone_policy=grey_zone_policy)


def two_clusters_network(
    cluster_size: int = 6,
    gap: float = 1.5,
    r: float = 2.0,
    rng: RandomLike = None,
) -> Tuple[DualGraph, Embedding]:
    """Convenience wrapper: exactly two clusters bridged by unreliable links."""
    return cluster_network(
        clusters=2,
        cluster_size=cluster_size,
        cluster_spacing=gap,
        rng=rng,
        r=r,
    )
