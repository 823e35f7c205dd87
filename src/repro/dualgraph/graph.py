"""The dual graph structure ``(G, G')`` of Section 2.

A dual graph describes a radio network with two kinds of links:

* **reliable** links, the edge set ``E`` of graph ``G = (V, E)``; these edges
  are present in the communication topology of *every* round, and
* **unreliable** links, the edges ``E' \\ E`` of graph ``G' = (V, E')`` with
  ``E`` a subset of ``E'``; in each round an oblivious *link scheduler*
  (see :mod:`repro.dualgraph.adversary`) decides which of them participate.

The class below stores both edge sets, exposes the neighborhood accessors
used throughout the paper (``N_G(u)`` and ``N_G'(u)``), and computes the two
degree bounds the algorithms are allowed to know:

* ``Delta``  -- an upper bound on ``|N_G(u) ∪ {u}|`` over all ``u``, and
* ``Delta'`` -- an upper bound on ``|N_G'(u) ∪ {u}|`` over all ``u``.

Vertices are arbitrary hashable identifiers (the examples and generators use
consecutive integers).  Edges are stored as frozensets of two vertices so that
``{u, v}`` and ``{v, u}`` are the same edge.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

Vertex = Hashable
Edge = FrozenSet[Vertex]


class TopologyIndex:
    """An integer-indexed, read-only view of a :class:`DualGraph`.

    The simulator's hot path cannot afford per-round hashing of arbitrary
    vertex identifiers and frozenset edges, so this structure maps the graph
    onto dense integer indices once, at construction time:

    * ``vertices[i]`` is the vertex with index ``i`` (indices are assigned in
      ``sorted(..., key=repr)`` order so they are stable across runs and match
      the ordering used by the process factories);
    * ``g_neighbors[i]`` is the sorted tuple of the reliable (``G``)
      neighbors of vertex index ``i``;
    * every unreliable edge of ``E' \\ E`` gets a dense *edge id* (its
      position in ``unreliable_edge_list``, ordered by endpoint indices), and
      ``unreliable_neighbor_by_eid[i]`` maps each edge id incident to vertex
      index ``i`` to the other endpoint's index.

    Link schedulers use the edge ids to describe per-round inclusion deltas
    (:meth:`repro.dualgraph.adversary.LinkScheduler.unreliable_edge_ids_for_round`)
    without materializing frozensets, and the engine uses the adjacency views
    to resolve receptions transmitter-centrically.

    Instances are built via :meth:`DualGraph.topology_index`, which caches the
    index and freezes the graph: the index is valid for the graph's lifetime.
    """

    __slots__ = (
        "vertices",
        "index_of",
        "g_neighbors",
        "unreliable_edge_list",
        "unreliable_id_of",
        "unreliable_neighbor_by_eid",
        "_fingerprint",
    )

    def __init__(self, graph: "DualGraph") -> None:
        self.vertices: Tuple[Vertex, ...] = tuple(sorted(graph._vertices, key=repr))
        self.index_of: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}

        self.g_neighbors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(self.index_of[nb] for nb in graph._g_adj[vertex]))
            for vertex in self.vertices
        )

        def edge_key(edge: Edge) -> Tuple[int, int]:
            a, b = sorted(self.index_of[v] for v in edge)
            return a, b

        self.unreliable_edge_list: Tuple[Edge, ...] = tuple(
            sorted(graph._unreliable_extra, key=edge_key)
        )
        self.unreliable_id_of: Dict[Edge, int] = {
            edge: eid for eid, edge in enumerate(self.unreliable_edge_list)
        }
        u_adj: List[List[Tuple[int, int]]] = [[] for _ in self.vertices]
        for eid, edge in enumerate(self.unreliable_edge_list):
            a, b = edge_key(edge)
            u_adj[a].append((b, eid))
            u_adj[b].append((a, eid))
        # Per-vertex incidence over E' \ E: an incident eid -> other-endpoint
        # map per vertex (the kernel resolver folds its keys into the vertex's
        # incident-edge bitmask).
        self.unreliable_neighbor_by_eid: Tuple[Dict[int, int], ...] = tuple(
            {eid: j for j, eid in row} for row in u_adj
        )
        self._fingerprint: Optional[str] = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def fingerprint(self) -> str:
        """A structural hash of the indexed topology (hex digest, cached).

        Two dual graphs that index identically -- same vertex reprs in the
        same order, same reliable neighbor rows, same unreliable edge
        endpoint index pairs -- share a fingerprint, even when they are
        distinct objects built independently (e.g. one per sweep trial).  The
        :class:`~repro.dualgraph.adversary.SchedulerDeltaCache` keys on it so
        per-round edge-id deltas computed in one trial are valid in every
        other trial over a structurally identical network.
        """
        if self._fingerprint is None:
            endpoints = tuple(
                tuple(sorted(self.index_of[v] for v in edge))
                for edge in self.unreliable_edge_list
            )
            payload = "|".join(
                (repr(self.vertices), repr(self.g_neighbors), repr(endpoints))
            )
            self._fingerprint = hashlib.sha256(payload.encode()).hexdigest()
        return self._fingerprint

    @property
    def num_unreliable_edges(self) -> int:
        return len(self.unreliable_edge_list)

    def edge_ids(self, edges: Iterable[Edge]) -> Tuple[int, ...]:
        """Map unreliable edges to their dense ids (unknown edges are skipped)."""
        id_of = self.unreliable_id_of
        return tuple(id_of[e] for e in edges if e in id_of)

    def __repr__(self) -> str:
        reliable_edges = sum(map(len, self.g_neighbors)) // 2
        return (
            f"TopologyIndex(n={self.n}, reliable_entries={reliable_edges}, "
            f"unreliable_edges={self.num_unreliable_edges})"
        )


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical undirected edge ``{u, v}``.

    Raises
    ------
    ValueError
        If ``u == v`` (the model has no self loops).
    """
    if u == v:
        raise ValueError(f"self loops are not allowed (vertex {u!r})")
    return frozenset((u, v))


class DualGraph:
    """A dual graph ``(G, G')`` with ``G = (V, E)`` and ``G' = (V, E')``.

    Parameters
    ----------
    vertices:
        Iterable of vertex identifiers.
    reliable_edges:
        Iterable of 2-tuples (or frozensets) describing the edges of ``G``.
    unreliable_edges:
        Iterable of 2-tuples describing the edges of ``E' \\ E`` -- that is,
        only the *extra* edges of ``G'``.  It is not an error to repeat a
        reliable edge here; it is silently ignored so callers can pass the
        full ``E'`` if that is more convenient.

    Notes
    -----
    The paper requires ``E ⊆ E'``.  This class maintains the invariant
    automatically: ``E'`` is represented as the union of ``E`` and the extra
    unreliable edges.

    The dual graph is fixed for an execution (Section 2): the first
    :meth:`topology_index` call freezes it, and adding an edge after that
    raises ``RuntimeError``.  A different topology is a new ``DualGraph``.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex],
        reliable_edges: Iterable[Tuple[Vertex, Vertex]] = (),
        unreliable_edges: Iterable[Tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._vertices: Set[Vertex] = set(vertices)
        if not self._vertices:
            raise ValueError("a dual graph needs at least one vertex")

        self._reliable: Set[Edge] = set()
        self._unreliable_extra: Set[Edge] = set()
        self._g_adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in self._vertices}
        self._gprime_adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in self._vertices}
        self._topology_index: Optional[TopologyIndex] = None

        for edge in reliable_edges:
            self.add_reliable_edge(*self._edge_endpoints(edge))
        for edge in unreliable_edges:
            self.add_unreliable_edge(*self._edge_endpoints(edge))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_endpoints(edge) -> Tuple[Vertex, Vertex]:
        endpoints = tuple(edge)
        if len(endpoints) != 2:
            raise ValueError(f"an edge needs exactly two endpoints, got {edge!r}")
        return endpoints[0], endpoints[1]

    def _check_vertex(self, u: Vertex) -> None:
        if u not in self._vertices:
            raise KeyError(f"vertex {u!r} is not part of this dual graph")

    def _new_edge(self, u: Vertex, v: Vertex) -> Edge:
        """The edge ``{u, v}`` to add, if the graph is not frozen yet."""
        if self._topology_index is not None:
            raise RuntimeError(
                "this dual graph is frozen (it has been indexed for a run); "
                "build a new DualGraph for a different topology"
            )
        self._check_vertex(u)
        self._check_vertex(v)
        return normalize_edge(u, v)

    def add_reliable_edge(self, u: Vertex, v: Vertex) -> None:
        """Add ``{u, v}`` to ``E`` (and therefore also to ``E'``)."""
        edge = self._new_edge(u, v)
        self._reliable.add(edge)
        self._unreliable_extra.discard(edge)
        self._g_adj[u].add(v)
        self._g_adj[v].add(u)
        self._gprime_adj[u].add(v)
        self._gprime_adj[v].add(u)

    def add_unreliable_edge(self, u: Vertex, v: Vertex) -> None:
        """Add ``{u, v}`` to ``E' \\ E`` (ignored if it is already reliable)."""
        edge = self._new_edge(u, v)
        if edge in self._reliable:
            return
        self._unreliable_extra.add(edge)
        self._gprime_adj[u].add(v)
        self._gprime_adj[v].add(u)

    def topology_index(self) -> TopologyIndex:
        """The cached integer-indexed (CSR) view of this graph.

        This is the entry point of the engine's fast path: the returned
        :class:`TopologyIndex` maps vertices to dense integers (stable
        ``sorted(..., key=repr)`` order), stores the reliable adjacency of
        ``G`` CSR-style, and assigns every edge of ``E' \\ E`` a dense *edge
        id* that link schedulers use to describe per-round inclusion deltas
        (:meth:`~repro.dualgraph.adversary.LinkScheduler.unreliable_edge_ids_for_round`).

        Contract: the first call builds the index (O(V + E log E)) and
        freezes the graph -- :meth:`add_reliable_edge` and
        :meth:`add_unreliable_edge` raise from then on -- so the index, and
        every edge-id memo a consumer derives from it, is valid for the
        graph's lifetime.  Every later call returns the same object.
        """
        if self._topology_index is None:
            self._topology_index = TopologyIndex(self)
        return self._topology_index

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set ``V`` (shared by ``G`` and ``G'``)."""
        return frozenset(self._vertices)

    @property
    def n(self) -> int:
        """``|V|`` -- available to the *analysis*, never to the processes."""
        return len(self._vertices)

    @property
    def reliable_edges(self) -> FrozenSet[Edge]:
        """The edge set ``E`` of the reliable graph ``G``."""
        return frozenset(self._reliable)

    @property
    def unreliable_edges(self) -> FrozenSet[Edge]:
        """The edge set ``E' \\ E``: edges present only when scheduled."""
        return frozenset(self._unreliable_extra)

    @property
    def all_edges(self) -> FrozenSet[Edge]:
        """The edge set ``E'`` of ``G'`` (reliable plus unreliable)."""
        return frozenset(self._reliable | self._unreliable_extra)

    def has_vertex(self, u: Vertex) -> bool:
        """True iff ``u`` is a vertex of this dual graph."""
        return u in self._vertices

    def has_reliable_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``{u, v}`` is a reliable edge (an element of ``E``)."""
        return normalize_edge(u, v) in self._reliable

    def has_unreliable_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``{u, v}`` is an unreliable edge (in ``E' \\ E``)."""
        return normalize_edge(u, v) in self._unreliable_extra

    def has_any_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``{u, v}`` is an edge of ``G'`` (reliable or unreliable)."""
        edge = normalize_edge(u, v)
        return edge in self._reliable or edge in self._unreliable_extra

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def reliable_neighbors(self, u: Vertex) -> FrozenSet[Vertex]:
        """``N_G(u)``: the reliable neighbors of ``u``, excluding ``u``."""
        self._check_vertex(u)
        return frozenset(self._g_adj[u])

    def potential_neighbors(self, u: Vertex) -> FrozenSet[Vertex]:
        """``N_G'(u)``: every vertex that may ever be adjacent to ``u``."""
        self._check_vertex(u)
        return frozenset(self._gprime_adj[u])

    def closed_reliable_neighborhood(self, u: Vertex) -> FrozenSet[Vertex]:
        """``N_G(u) ∪ {u}``."""
        return self.reliable_neighbors(u) | {u}

    def closed_potential_neighborhood(self, u: Vertex) -> FrozenSet[Vertex]:
        """``N_G'(u) ∪ {u}``."""
        return self.potential_neighbors(u) | {u}

    def reliable_neighbors_of_set(self, vertices: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """``N_G(S)`` for a set ``S``: union of reliable neighborhoods of ``S``."""
        result: Set[Vertex] = set()
        for v in vertices:
            result |= self._g_adj[v]
        return frozenset(result)

    # ------------------------------------------------------------------
    # degree bounds
    # ------------------------------------------------------------------
    @property
    def max_reliable_degree(self) -> int:
        """``Δ`` -- the maximum of ``|N_G(u) ∪ {u}|`` over all vertices."""
        return max(len(self._g_adj[u]) + 1 for u in self._vertices)

    @property
    def max_potential_degree(self) -> int:
        """``Δ'`` -- the maximum of ``|N_G'(u) ∪ {u}|`` over all vertices."""
        return max(len(self._gprime_adj[u]) + 1 for u in self._vertices)

    def degree_bounds(self) -> Tuple[int, int]:
        """Return ``(Δ, Δ')`` as a pair."""
        return self.max_reliable_degree, self.max_potential_degree

    # ------------------------------------------------------------------
    # structural queries used by the analysis
    # ------------------------------------------------------------------
    def reliable_hop_distance(self, source: Vertex, target: Vertex) -> Optional[int]:
        """Hop distance between two vertices in ``G`` (None if disconnected)."""
        self._check_vertex(source)
        self._check_vertex(target)
        if source == target:
            return 0
        frontier = [source]
        seen = {source}
        distance = 0
        while frontier:
            distance += 1
            next_frontier: List[Vertex] = []
            for u in frontier:
                for v in self._g_adj[u]:
                    if v in seen:
                        continue
                    if v == target:
                        return distance
                    seen.add(v)
                    next_frontier.append(v)
            frontier = next_frontier
        return None

    def reliable_eccentricity(self, source: Vertex) -> int:
        """Maximum hop distance in ``G`` from ``source`` to any reachable vertex."""
        self._check_vertex(source)
        frontier = [source]
        seen = {source}
        distance = 0
        while frontier:
            next_frontier: List[Vertex] = []
            for u in frontier:
                for v in self._g_adj[u]:
                    if v not in seen:
                        seen.add(v)
                        next_frontier.append(v)
            if next_frontier:
                distance += 1
            frontier = next_frontier
        return distance

    def is_reliably_connected(self) -> bool:
        """True iff ``G`` is connected."""
        start = next(iter(self._vertices))
        frontier = [start]
        seen = {start}
        while frontier:
            u = frontier.pop()
            for v in self._g_adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(self._vertices)

    def validate(self) -> None:
        """Check internal invariants; raises ``AssertionError`` on corruption.

        Used by property-based tests: after arbitrary construction sequences
        the adjacency maps and edge sets must stay mutually consistent and
        ``E ⊆ E'`` must hold.
        """
        for edge in self._reliable:
            assert edge not in self._unreliable_extra, "E and E'\\E must be disjoint sets"
            u, v = tuple(edge)
            assert v in self._g_adj[u] and u in self._g_adj[v]
            assert v in self._gprime_adj[u] and u in self._gprime_adj[v]
        for edge in self._unreliable_extra:
            u, v = tuple(edge)
            assert v not in self._g_adj[u] and u not in self._g_adj[v]
            assert v in self._gprime_adj[u] and u in self._gprime_adj[v]
        for u in self._vertices:
            assert self._g_adj[u] <= self._gprime_adj[u], "N_G(u) must be within N_G'(u)"

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, u: Vertex) -> bool:
        return u in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"DualGraph(n={self.n}, reliable_edges={len(self._reliable)}, "
            f"unreliable_edges={len(self._unreliable_extra)}, "
            f"Delta={self.max_reliable_degree}, DeltaPrime={self.max_potential_degree})"
        )
