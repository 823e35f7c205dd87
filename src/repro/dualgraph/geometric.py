"""Euclidean embeddings and the *r-geographic* property (Section 2).

An embedding maps every vertex of a dual graph to a point in the plane.  A
dual graph ``(G, G')`` is *r-geographic* with respect to an embedding when

1. any two vertices at Euclidean distance at most 1 are reliable neighbors
   (their edge is in ``E``), and
2. any two vertices at distance greater than ``r`` are not even potential
   neighbors (their edge is not in ``E'``).

Vertices in the "grey zone" -- distance in ``(1, r]`` -- may or may not be
connected, by a reliable or an unreliable edge, at the whim of the network
builder (and in our generators, of a supplied policy).

This module also provides :func:`geographic_dual_graph`, which builds a dual
graph from a set of positions and a grey-zone policy, guaranteeing the
r-geographic property by construction.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.dualgraph.graph import DualGraph, Vertex

Point = Tuple[float, float]

#: A grey-zone policy maps ``(u, v, distance)`` to one of ``"reliable"``,
#: ``"unreliable"`` or ``"none"`` for vertex pairs at distance in ``(1, r]``.
GreyZonePolicy = Callable[[Vertex, Vertex, float], str]


def euclidean_distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points in the plane."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


class Embedding:
    """A mapping from vertices to points in the Euclidean plane."""

    def __init__(self, positions: Mapping[Vertex, Point]) -> None:
        if not positions:
            raise ValueError("an embedding needs at least one vertex position")
        self._positions: Dict[Vertex, Point] = {
            v: (float(p[0]), float(p[1])) for v, p in positions.items()
        }

    def position(self, u: Vertex) -> Point:
        """Return ``emb(u)``."""
        try:
            return self._positions[u]
        except KeyError:
            raise KeyError(f"vertex {u!r} has no embedded position") from None

    def distance(self, u: Vertex, v: Vertex) -> float:
        """Euclidean distance between the embedded positions of ``u`` and ``v``."""
        return euclidean_distance(self.position(u), self.position(v))

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._positions)

    def items(self) -> Iterable[Tuple[Vertex, Point]]:
        return self._positions.items()

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all embedded points."""
        xs = [p[0] for p in self._positions.values()]
        ys = [p[1] for p in self._positions.values()]
        return min(xs), min(ys), max(xs), max(ys)

    def __contains__(self, u: Vertex) -> bool:
        return u in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        return f"Embedding(vertices={len(self._positions)})"


def central_vertex(graph: DualGraph, embedding: Embedding) -> Vertex:
    """The vertex embedded closest to the center of the deployment area.

    Center means the midpoint of the embedding's :meth:`Embedding.bounding_box`;
    ties break by the graph's vertex iteration order.  This is the probe
    placement the locality experiment (E9) uses: a vertex in the middle of the
    area sees representative contention regardless of the network size.
    """
    min_x, min_y, max_x, max_y = embedding.bounding_box()
    cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    return min(
        graph.vertices,
        key=lambda v: (embedding.position(v)[0] - cx) ** 2
        + (embedding.position(v)[1] - cy) ** 2,
    )


def is_r_geographic(graph: DualGraph, embedding: Embedding, r: float) -> bool:
    """Check whether ``(G, G')`` is r-geographic with respect to ``embedding``.

    This is the literal Section 2 definition:

    * ``d(emb(u), emb(v)) <= 1``  implies  ``{u, v} ∈ E``,
    * ``d(emb(u), emb(v)) > r``   implies  ``{u, v} ∉ E'``.
    """
    return not list(r_geographic_violations(graph, embedding, r, limit=1))


def r_geographic_violations(
    graph: DualGraph,
    embedding: Embedding,
    r: float,
    limit: Optional[int] = None,
) -> List[str]:
    """Return human-readable descriptions of r-geographic violations.

    Parameters
    ----------
    limit:
        Stop after this many violations (``None`` means collect all).
    """
    if r < 1:
        raise ValueError(f"the r-geographic parameter must satisfy r >= 1, got {r}")
    violations: List[str] = []
    vertices = sorted(graph.vertices, key=repr)
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            d = embedding.distance(u, v)
            if d <= 1.0 and not graph.has_reliable_edge(u, v):
                violations.append(
                    f"vertices {u!r} and {v!r} are at distance {d:.4f} <= 1 "
                    "but are not reliable neighbors"
                )
            elif d > r and graph.has_any_edge(u, v):
                violations.append(
                    f"vertices {u!r} and {v!r} are at distance {d:.4f} > r={r} "
                    "but share an edge in G'"
                )
            if limit is not None and len(violations) >= limit:
                return violations
    return violations


def always_unreliable_policy(u: Vertex, v: Vertex, distance: float) -> str:
    """Grey-zone policy: every grey-zone pair gets an unreliable edge.

    This is the most adversarial *structure* allowed by the model -- it
    maximizes the number of links the link scheduler can toggle.
    """
    return "unreliable"


def never_connected_policy(u: Vertex, v: Vertex, distance: float) -> str:
    """Grey-zone policy: grey-zone pairs share no edge at all (pure unit disk)."""
    return "none"


def always_reliable_policy(u: Vertex, v: Vertex, distance: float) -> str:
    """Grey-zone policy: grey-zone pairs get reliable edges (densest G)."""
    return "reliable"


def geographic_edges(
    positions: Mapping[Vertex, Point],
    r: float = 2.0,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
) -> List[Tuple[Vertex, Vertex, bool]]:
    """The edges of the r-geographic dual graph over ``positions``.

    One ``(u, v, reliable)`` triple per connected pair, in pair order (``u``
    before ``v`` in ``positions`` order): pairs at distance <= 1 are reliable,
    pairs at distance in (1, r] are classified by ``grey_zone_policy`` (called
    once per grey-zone pair, in that order), and farther pairs get no edge.
    """
    if r < 1:
        raise ValueError(f"the r-geographic parameter must satisfy r >= 1, got {r}")
    vertices = list(positions)
    points = [(float(p[0]), float(p[1])) for p in positions.values()]
    edges: List[Tuple[Vertex, Vertex, bool]] = []
    for i, u in enumerate(vertices):
        ux, uy = points[i]
        for j in range(i + 1, len(vertices)):
            vx, vy = points[j]
            d = math.hypot(ux - vx, uy - vy)
            if d <= 1.0:
                edges.append((u, vertices[j], True))
            elif d <= r:
                v = vertices[j]
                decision = grey_zone_policy(u, v, d)
                if decision == "reliable":
                    edges.append((u, v, True))
                elif decision == "unreliable":
                    edges.append((u, v, False))
                elif decision != "none":
                    raise ValueError(
                        "grey-zone policy must return 'reliable', 'unreliable' or "
                        f"'none', got {decision!r}"
                    )
    return edges


def build_geographic_dual_graph(
    positions: Mapping[Vertex, Point], edges: Iterable[Tuple[Vertex, Vertex, bool]]
) -> Tuple[DualGraph, Embedding]:
    """The dual graph of :func:`geographic_edges`' ``edges`` and its embedding."""
    embedding = Embedding(positions)
    graph = DualGraph(list(positions))
    for u, v, reliable in edges:
        if reliable:
            graph.add_reliable_edge(u, v)
        else:
            graph.add_unreliable_edge(u, v)
    return graph, embedding


def geographic_dual_graph(
    positions: Mapping[Vertex, Point],
    r: float = 2.0,
    grey_zone_policy: GreyZonePolicy = always_unreliable_policy,
) -> Tuple[DualGraph, Embedding]:
    """Build an r-geographic dual graph from vertex positions.

    * pairs at distance <= 1 become reliable edges (mandatory),
    * pairs at distance in (1, r] are classified by ``grey_zone_policy``,
    * pairs at distance > r get no edge (mandatory).

    Returns the graph and its embedding.  The result is r-geographic by
    construction; :func:`is_r_geographic` on it is always true.
    """
    edges = geographic_edges(positions, r=r, grey_zone_policy=grey_zone_policy)
    return build_geographic_dual_graph(positions, edges)
