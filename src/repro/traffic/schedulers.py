"""Traffic-aware link schedulers: slot frames shaped by forecast queue depth.

TASA (Traffic Aware Scheduling Algorithm) builds a slot frame for a
convergecast tree: links expected to carry more aggregated traffic get served
first, and links that would interfere are never given the same slot.  This
module ports that idea into the dual-graph adversary model, where the link
scheduler's per-round decision is *which unreliable edges exist*:

* a routing tree toward the configured sink(s) is built by multi-source BFS
  over the reliable graph;
* each vertex's a-priori arrival-rate forecast
  (:meth:`~repro.traffic.arrivals.ArrivalProcess.expected_rate`) is
  aggregated up the tree into subtree loads;
* every unreliable edge is assigned a slot in a frame, highest forecast
  first, with edges sharing an endpoint kept in different slots
  (first-fit coloring -- the TASA conflict-avoidance rule);
* round ``t`` includes exactly the edges of slot ``(t - 1) mod frame``.

Compared to an iid inclusion coin, the frame admits far fewer unreliable
edges per round and never two incident to the same vertex, so receivers see
much less collision interference -- which is what drives delivery latency
down under load.  The schedule is a pure function of ``(graph, forecast,
frame)``: the scheduler stays oblivious, implements the edge-id schedule view
with lazily memoized per-slot masks (as :class:`PeriodicScheduler` does), and
participates in the cross-trial delta cache and the kernel lane unchanged.

Two prioritization variants exist:

* ``"tasa"`` -- subtree-aggregated load over the routing tree;
* ``"longest_queue"`` -- each edge ranked by the larger *local* forecast of
  its endpoints (no tree aggregation), the longest-queue-first baseline.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.dualgraph.adversary import LinkScheduler

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

VARIANTS = ("tasa", "longest_queue")


def build_routing_tree(graph, sinks: Sequence[Vertex]) -> Dict[Vertex, Optional[Vertex]]:
    """Parent map of a multi-source BFS forest over reliable edges.

    Every vertex points toward its nearest sink (ties broken by sorted visit
    order, so the tree is deterministic); sinks and vertices unreachable from
    any sink are their own roots (parent ``None``).
    """
    if not sinks:
        raise ValueError("routing tree needs at least one sink")
    try:
        ordered_sinks = sorted(set(sinks))
    except TypeError:
        ordered_sinks = sorted(set(sinks), key=repr)
    parents: Dict[Vertex, Optional[Vertex]] = {s: None for s in ordered_sinks}
    frontier = list(ordered_sinks)
    while frontier:
        next_frontier: List[Vertex] = []
        for vertex in frontier:
            try:
                neighbors = sorted(graph.reliable_neighbors(vertex))
            except TypeError:
                neighbors = sorted(graph.reliable_neighbors(vertex), key=repr)
            for neighbor in neighbors:
                if neighbor not in parents:
                    parents[neighbor] = vertex
                    next_frontier.append(neighbor)
        frontier = next_frontier
    for vertex in graph.vertices:
        parents.setdefault(vertex, None)
    return parents


def subtree_loads(
    parents: Mapping[Vertex, Optional[Vertex]], rates: Mapping[Vertex, float]
) -> Dict[Vertex, float]:
    """Per-vertex forecast aggregated over the routing subtree rooted there.

    ``load[v]`` is ``v``'s own rate plus the rates of every descendant --
    the traffic the subtree must push through ``v`` on its way to the sink.
    """
    loads: Dict[Vertex, float] = {v: 0.0 for v in parents}
    for vertex in parents:
        weight = float(rates.get(vertex, 0.0))
        cursor: Optional[Vertex] = vertex
        while cursor is not None:
            loads[cursor] += weight
            cursor = parents[cursor]
    return loads


class TrafficAwareScheduler(LinkScheduler):
    """Slot-frame inclusion of unreliable edges, prioritized by forecast load.

    Parameters
    ----------
    graph:
        The dual graph whose unreliable edges are scheduled.
    rates:
        Per-vertex expected arrivals per round (the a-priori forecast).
        Vertices absent from the mapping forecast zero.
    sinks:
        Routing-tree roots for the ``"tasa"`` variant.  Defaults to the
        lowest vertex, matching a single-collector convergecast.
    frame:
        Slot-frame length in rounds.  Defaults to the number of slots the
        conflict-free assignment needs (the maximum "unreliable degree"
        governs it); a larger frame lowers the duty cycle further.  In a
        smaller one, an edge that finds no free slot before the last one
        lands in the last slot (``frame - 1``), sharing it with conflicting
        edges.
    variant:
        ``"tasa"`` (subtree-aggregated priority) or ``"longest_queue"``
        (local-forecast priority, no tree).
    """

    def __init__(
        self,
        graph,
        rates: Optional[Mapping[Vertex, float]] = None,
        sinks: Sequence[Vertex] = (),
        frame: Optional[int] = None,
        variant: str = "tasa",
    ) -> None:
        super().__init__(graph)
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if frame is not None and frame < 1:
            raise ValueError("frame must be at least 1 round")
        self._variant = variant
        if rates is None:
            # Traffic-agnostic fallback: a unit forecast everywhere still
            # yields a valid conflict-free frame (pure interference control).
            rates = {v: 1.0 for v in graph.vertices}
        if not sinks:
            try:
                sinks = [min(graph.vertices)]
            except TypeError:
                sinks = [min(graph.vertices, key=repr)]
        self._sinks: Tuple[Vertex, ...] = tuple(sinks)
        if variant == "tasa":
            parents = build_routing_tree(graph, self._sinks)
            priority = subtree_loads(parents, rates)
        else:
            priority = {v: float(rates.get(v, 0.0)) for v in graph.vertices}
        self._slots, self._frame = self._assign_slots(graph, priority, frame)
        # Canonical text of the slot table: the delta-cache signature hashes
        # it, so two instances share cached deltas iff their schedules agree.
        table = ";".join(
            f"{edge!r}:{slot}" for edge, slot in sorted(self._slots.items(), key=repr)
        )
        self._table_digest = hashlib.sha256(
            f"{variant}|{self._frame}|{table}".encode()
        ).hexdigest()[:16]

    @staticmethod
    def _assign_slots(
        graph, priority: Mapping[Vertex, float], frame: Optional[int]
    ) -> Tuple[Dict[Edge, int], int]:
        def edge_priority(edge: Edge) -> float:
            u, v = edge
            return max(priority.get(u, 0.0), priority.get(v, 0.0))

        try:
            edges = sorted(graph.unreliable_edges)
        except TypeError:
            edges = sorted(graph.unreliable_edges, key=repr)
        edges.sort(key=lambda e: (-edge_priority(e), repr(e)))
        used_at: Dict[Vertex, set] = {}
        slots: Dict[Edge, int] = {}
        highest = 0
        for edge in edges:
            u, v = edge
            taken = used_at.setdefault(u, set()) | used_at.setdefault(v, set())
            slot = 0
            while slot in taken and (frame is None or slot < frame - 1):
                slot += 1
            slots[edge] = slot
            used_at[u].add(slot)
            used_at[v].add(slot)
            highest = max(highest, slot)
        resolved = frame if frame is not None else (highest + 1 if slots else 1)
        return slots, resolved

    @property
    def frame(self) -> int:
        return self._frame

    @property
    def variant(self) -> str:
        return self._variant

    def slot_of(self, edge: Edge) -> Optional[int]:
        """The frame slot assigned to one unreliable edge (None if unknown)."""
        return self._slots.get(edge)

    def _compute_unreliable_edge_ids(self, round_number: int, index) -> Tuple[int, ...]:
        # At most `frame` distinct masks exist.
        return self._memo_slot_ids(
            (round_number - 1) % self._frame,
            lambda slot: tuple(
                eid
                for eid, edge in enumerate(index.unreliable_edge_list)
                if self._slots.get(edge) == slot
            ),
        )

    def _delta_cache_signature(self) -> Tuple[Hashable, ...]:
        return ("traffic_aware", self._variant, self._frame, self._table_digest)

    def describe(self) -> str:
        return (
            f"TrafficAwareScheduler(variant={self._variant}, frame={self._frame}, "
            f"sinks={list(self._sinks)})"
        )
