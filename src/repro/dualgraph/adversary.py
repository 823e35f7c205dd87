"""Oblivious link schedulers (the adversary of Section 2).

A *link scheduler* resolves, for every round ``t``, which edges of
``E' \\ E`` are added to the reliable graph ``G`` to form the round's
communication topology ``G_t``.  The paper's model is **oblivious**: the whole
schedule is fixed before the execution starts, so decisions may depend on the
round number, the topology, and anything known a priori -- but never on the
random choices of the algorithm.

Every scheduler in this module honors that restriction by computing its
inclusions as a deterministic function of ``(its own fixed seed, the edge, the
round number)``.  This makes the schedule a pure function of the round number,
exactly as if the infinite sequence ``G_1, G_2, ...`` had been written down in
advance, while avoiding the memory cost of materializing it.

Schedulers provided:

* :class:`NoUnreliableScheduler` -- the topology is always exactly ``G``.
* :class:`FullInclusionScheduler` -- the topology is always exactly ``G'``.
* :class:`IIDScheduler` -- each unreliable edge appears independently with a
  fixed probability each round.
* :class:`PeriodicScheduler` -- unreliable edges toggle on/off with a fixed
  period and duty cycle (models coarse time-varying fading).
* :class:`AntiScheduleAdversary` -- a *targeted* oblivious adversary built
  against a known, fixed broadcast-probability schedule (such as Decay's): it
  includes many unreliable edges in rounds where the victim schedule
  transmits with high probability (inflating contention) and removes them in
  rounds where the victim transmits with low probability (starving the
  receiver).  This is the §1 "Discussion" adversary that motivates permuting
  the probability schedule with seed agreement.
* :class:`TraceScheduler` -- an explicit, finite schedule given as a list,
  convenient for unit tests.
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.caches import bounded_put
from repro.dualgraph.graph import DualGraph, Edge, TopologyIndex, normalize_edge

_TWO_64 = float(1 << 64)  # shared by _edge_round_hash and the IID fast paths, which must agree


class SchedulerDeltaCache:
    """Cross-trial cache of per-round unreliable-edge-id deltas.

    An oblivious scheduler's per-round delta -- the tuple of dense edge ids
    included in round ``t`` -- is a pure function of ``(scheduler
    configuration, topology structure, t)``.  Sweeps and multi-trial
    experiments re-derive exactly the same deltas in every trial (each trial
    builds a fresh graph and scheduler with the same parameters).  This cache
    shares the computed deltas across every scheduler instance whose
    :meth:`LinkScheduler.delta_cache_key` matches, so a delta is derived once
    per sweep point instead of once per trial.

    The engine's kernel reads deltas -- and so this cache and the prebuilt
    tables -- only for schedulers without
    :attr:`LinkScheduler.decides_edges_independently`.  An IID scheduler is
    decided on demand instead, edge by edge for the transmitters' incident
    edges (memoized by the engine), so its deltas land here only when the
    id view :meth:`LinkScheduler.unreliable_edge_ids_for_round` is queried
    directly.  Every other scheduler without its own edge-set body derives
    :meth:`LinkScheduler.unreliable_edges_for_round` from that id view, so
    the reference resolver reads (and fills) this cache too.

    Contract:

    * Entries are keyed by ``(delta_cache_key, round_number)``.  The key
      embeds the scheduler type, its full configuration (seed, probability,
      period, ...) and the structural
      :attr:`~repro.dualgraph.graph.TopologyIndex.fingerprint` of the indexed
      topology, so distinct schedules can never alias.
    * Values are the exact tuples
      :meth:`LinkScheduler._compute_unreliable_edge_ids` would return --
      byte-identical schedules, byte-identical traces.
    * The cache is bounded (FIFO eviction at ``maxsize`` entries, through
      the thread-safe :func:`~repro.caches.bounded_put`); eviction only ever
      costs recomputation, never correctness.  :meth:`preload`
      raises the bound to fit an explicitly prebuilt table (see its
      docstring).

    A process-wide instance (:func:`process_delta_cache`) is attached to
    every scheduler at construction; :meth:`LinkScheduler.attach_delta_cache`
    swaps in a private cache (or ``None`` to disable caching).  For
    multi-process suite runs, a prebuilt table
    (:func:`prebuild_scheduler_deltas`) preloads each worker's process cache
    before any trial runs: :func:`repro.scenarios.suite.run_suite` ships it
    through its pool initializer and the fleet coordinator preloads it before
    forking.
    """

    __slots__ = ("_table", "_maxsize", "hits", "misses")

    #: Default entry bound: at a few KB per cached delta this keeps the
    #: process-wide cache in the tens of MB even for adversarial workloads.
    DEFAULT_MAXSIZE = 8192

    def __init__(self, maxsize: Optional[int] = DEFAULT_MAXSIZE) -> None:
        self._table: Dict[Tuple[Hashable, int], Tuple[int, ...]] = {}
        self._maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable, round_number: int) -> Optional[Tuple[int, ...]]:
        """The cached delta for ``(key, round_number)``, or ``None`` on a miss."""
        ids = self._table.get((key, round_number))
        if ids is None:
            self.misses += 1
        else:
            self.hits += 1
        return ids

    def store(self, key: Hashable, round_number: int, ids: Tuple[int, ...]) -> None:
        """Record a computed delta (evicting the oldest entry when full)."""
        bounded_put(self._table, (key, round_number), ids, self._maxsize)

    def preload(self, table: Mapping[Tuple[Hashable, int], Tuple[int, ...]]) -> None:
        """Merge a prebuilt ``(key, round) -> ids`` table into the cache.

        A preloaded table is a deliberate memory commitment: if it is larger
        than ``maxsize``, the bound is raised to fit it (the bound exists to
        stop unbounded *incremental* growth, not to silently drop entries an
        operator explicitly prebuilt).
        """
        self._table.update(table)
        if self._maxsize is not None and len(self._table) > self._maxsize:
            self._maxsize = len(self._table)

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"SchedulerDeltaCache(entries={len(self._table)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: The process-wide cache every scheduler uses unless told otherwise.
_PROCESS_DELTA_CACHE = SchedulerDeltaCache()


def process_delta_cache() -> SchedulerDeltaCache:
    """The process-wide :class:`SchedulerDeltaCache` shared by all schedulers."""
    return _PROCESS_DELTA_CACHE


def preload_process_delta_cache(
    table: Mapping[Tuple[Hashable, int], Tuple[int, ...]],
) -> None:
    """Merge a prebuilt delta table into the process-wide cache.

    This is the worker-side half of cross-process delta sharing: a parent
    builds the table once (:func:`prebuild_scheduler_deltas`) and
    :func:`repro.scenarios.suite.run_suite` installs this function as its
    process pool's initializer, so every worker preloads the table before
    running its first task.
    """
    _PROCESS_DELTA_CACHE.preload(table)


def prebuild_scheduler_deltas(
    scheduler: "LinkScheduler", rounds: int
) -> Dict[Tuple[Hashable, int], Tuple[int, ...]]:
    """Compute rounds ``1..rounds`` of a scheduler's deltas into a plain table.

    The result is picklable and keyed exactly as :class:`SchedulerDeltaCache`
    stores entries, so it can be passed across process boundaries and fed to
    :func:`preload_process_delta_cache` (or :meth:`SchedulerDeltaCache.preload`).
    Raises ``ValueError`` for schedulers whose deltas are not cacheable
    (adaptive adversaries, custom subclasses without a cache key).
    """
    key = scheduler.delta_cache_key()
    if key is None:
        raise ValueError(
            f"{type(scheduler).__name__} deltas are not cacheable "
            "(delta_cache_key() returned None)"
        )

    index = scheduler.graph.topology_index()
    return {
        (key, t): scheduler._compute_unreliable_edge_ids(t, index)
        for t in range(1, rounds + 1)
    }


class LinkScheduler(ABC):
    """Base class for oblivious link schedulers.

    A subclass implements one schedule view, :meth:`_compute_unreliable_edge_ids`:
    the unreliable edges included in a round, as dense integer ids from the
    graph's :meth:`~repro.dualgraph.graph.DualGraph.topology_index`.  The
    engine's kernel reads it through :meth:`unreliable_edge_ids_for_round`
    (shared across trials by the :class:`SchedulerDeltaCache`), so it never
    touches frozensets of edges on the hot path.  The reference resolver
    calls :meth:`resolve_topology` for the full edge set of the round's
    communication topology ``G_t`` (always a superset of ``E``), built from
    :meth:`unreliable_edges_for_round`, which this class derives from the id
    view.  :class:`IIDScheduler` and :class:`PeriodicScheduler` override that
    frozenset view with an independent body: it is the reference the
    kernel-vs-reference identity tests and the engine benchmark compare
    against.

    Schedulers whose per-edge decisions are independent of each other set
    :attr:`decides_edges_independently` and implement
    :meth:`decide_edge_mask`; the kernel then decides each round only for the
    edges its transmitters touch, and never reads their per-round deltas.
    """

    #: Whether each unreliable edge's inclusion is a function of (edge,
    #: round) alone, so any subset of a round's edges can be decided without
    #: the others (see :meth:`decide_edge_mask`).
    decides_edges_independently = False

    def __init__(self, graph: DualGraph) -> None:
        self._graph = graph
        self._slot_ids: Dict[int, Tuple[int, ...]] = {}
        self._delta_cache: Optional[SchedulerDeltaCache] = _PROCESS_DELTA_CACHE
        # ``(delta_cache_key,)`` once computed (the key itself may be None).
        self._cache_key_memo: Optional[Tuple[Optional[Hashable]]] = None

    @property
    def graph(self) -> DualGraph:
        return self._graph

    @property
    def is_adaptive(self) -> bool:
        """Whether the schedule may depend on the round's transmit decisions.

        Oblivious schedulers (the paper's model, and every scheduler in this
        module except the :class:`AdaptiveLinkScheduler` subclasses) return
        False: their whole schedule is a pure function of the round number,
        fixed before the execution starts.
        """
        return False

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        """The subset of ``E' \\ E`` included in round ``round_number`` (1-based)."""
        edges = self._graph.topology_index().unreliable_edge_list
        return frozenset(edges[eid] for eid in self.unreliable_edge_ids_for_round(round_number))

    def topology_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        """All edges of the communication topology ``G_t`` for the round."""
        included = self.unreliable_edges_for_round(round_number)
        extra = included & self._graph.unreliable_edges
        return frozenset(self._graph.reliable_edges | extra)

    def unreliable_edge_ids_for_round(self, round_number: int) -> Tuple[int, ...]:
        """Dense ids of the unreliable edges included in ``round_number``.

        This is the scheduler half of the engine's fast-path contract:

        * Ids refer to ``self.graph.topology_index()`` (the dense edge ids of
          ``E' \\ E``); the tuple is the round's complete inclusion delta.
        * For schedulers exposing a :meth:`delta_cache_key`, computed deltas
          are shared through the attached
          :class:`SchedulerDeltaCache`, so structurally identical trials
          (same scheduler configuration, same indexed topology) never
          re-derive a round's delta.

        The returned tuple must be treated as immutable; it may be the cached
        object shared across scheduler instances and trials.
        """
        cache = self._delta_cache
        cache_key = self.delta_cache_key() if cache is not None else None
        ids: Optional[Tuple[int, ...]] = None
        if cache_key is not None:
            ids = cache.lookup(cache_key, round_number)
        if ids is None:
            ids = self._compute_unreliable_edge_ids(
                round_number, self._graph.topology_index()
            )
            if cache_key is not None:
                cache.store(cache_key, round_number, ids)
        return ids

    @abstractmethod
    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        """The ids of the unreliable edges included in ``round_number``,
        uncached: the one schedule view a subclass implements."""

    def _memo_slot_ids(
        self, slot: int, compute: Callable[[int], Tuple[int, ...]]
    ) -> Tuple[int, ...]:
        """``compute(slot)``, memoized per slot: for cyclic schedules, whose
        ids repeat every few rounds."""
        ids = self._slot_ids.get(slot)
        if ids is None:
            ids = self._slot_ids[slot] = compute(slot)
        return ids

    def decide_edge_mask(self, round_number: int, need: int) -> int:
        """The edges of ``need`` (a bitmask over dense edge ids) included in
        ``round_number``; required when :attr:`decides_edges_independently`
        is set."""
        raise NotImplementedError(
            f"{type(self).__name__} does not decide edges independently"
        )

    def delta_cache_key(self) -> Optional[Hashable]:
        """The cross-trial identity of this scheduler's delta stream, or ``None``.

        Two scheduler instances with equal keys are guaranteed to produce
        identical :meth:`unreliable_edge_ids_for_round` results for every
        round, even across processes -- that is the license the
        :class:`SchedulerDeltaCache` needs to share deltas between them.  The
        key combines the subclass's configuration signature
        (:meth:`_delta_cache_signature`) with the structural fingerprint of
        the indexed topology; ``None`` (the default for subclasses without a
        signature, and always for adaptive schedulers) disables caching.
        """
        if self.is_adaptive:
            return None
        if self._cache_key_memo is None:
            signature = self._delta_cache_signature()
            key: Optional[Hashable] = None
            if signature is not None:
                key = (
                    type(self).__name__,
                    tuple(signature),
                    self._graph.topology_index().fingerprint,
                )
            self._cache_key_memo = (key,)
        return self._cache_key_memo[0]

    def _delta_cache_signature(self) -> Optional[Tuple[Hashable, ...]]:
        """The scheduler-configuration part of :meth:`delta_cache_key`.

        Subclasses whose schedule is a pure function of constructor arguments
        return those arguments (e.g. ``(seed, probability)``); the default
        ``None`` keeps unknown subclasses out of the cache, which is always
        safe -- their deltas are simply recomputed per instance.
        """
        return None

    def attach_delta_cache(self, cache: Optional[SchedulerDeltaCache]) -> None:
        """Use ``cache`` for cross-trial delta sharing (``None`` disables it).

        Schedulers are born attached to the process-wide cache
        (:func:`process_delta_cache`); experiments that want isolation (or a
        preloaded private table) swap it here.
        """
        self._delta_cache = cache

    def resolve_topology(
        self, round_number: int, transmitting: FrozenSet
    ) -> FrozenSet[Edge]:
        """The topology the simulator uses for the round.

        Oblivious schedulers ignore ``transmitting`` (the set of vertices that
        decided to transmit this round); adaptive schedulers override this to
        exploit it.  Keeping the dispatch here lets the engine treat both
        kinds uniformly.
        """
        return self.topology_edges_for_round(round_number)

    def describe(self) -> str:
        """A short human-readable description used in experiment reports."""
        return type(self).__name__


class AdaptiveLinkScheduler(LinkScheduler):
    """Base class for *adaptive* link schedulers (outside the paper's model).

    The paper assumes an oblivious scheduler and notes (citing Ghaffari,
    Lynch, Newport PODC 2013) that local broadcast with efficient progress is
    **impossible** against an adaptive adversary that may pick each round's
    unreliable edges after seeing the round's transmit decisions.  This class
    exists to reproduce that contrast experimentally (experiment E11): it is a
    strictly stronger adversary than anything LBAlg is designed for.
    """

    @property
    def is_adaptive(self) -> bool:
        return True

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        # The non-adaptive projection: used only if someone drives an adaptive
        # scheduler through the oblivious interface (e.g. for inspection).
        return ()

    @abstractmethod
    def adaptive_unreliable_edges(
        self, round_number: int, transmitting: FrozenSet
    ) -> FrozenSet[Edge]:
        """The unreliable edges to include, given this round's transmitters."""

    def resolve_topology(
        self, round_number: int, transmitting: FrozenSet
    ) -> FrozenSet[Edge]:
        included = self.adaptive_unreliable_edges(round_number, frozenset(transmitting))
        extra = included & self._graph.unreliable_edges
        return frozenset(self._graph.reliable_edges | extra)


class CollisionAdaptiveAdversary(AdaptiveLinkScheduler):
    """An adaptive adversary that manufactures collisions whenever it can.

    After seeing which vertices transmit in the round, for every listening
    vertex that would receive a message over its reliable links (exactly one
    transmitting reliable neighbor), the adversary searches for an unreliable
    edge connecting that vertex to *another* transmitter and includes it,
    turning the clean reception into a collision.  It never adds edges that
    would help (a lone unreliable transmitter is simply left excluded).

    This realizes the intuition behind the adaptive-adversary impossibility
    result: whatever probabilities the algorithm uses, the adversary reacts
    to the realized transmission pattern, so no amount of schedule permutation
    helps.  Progress then relies solely on rounds where the adversary has no
    spare transmitter to collide with.
    """

    def adaptive_unreliable_edges(
        self, round_number: int, transmitting: FrozenSet
    ) -> FrozenSet[Edge]:
        graph = self._graph
        chosen = set()
        for vertex in graph.vertices:
            if vertex in transmitting:
                continue
            reliable_transmitters = [
                v for v in graph.reliable_neighbors(vertex) if v in transmitting
            ]
            if len(reliable_transmitters) != 1:
                continue
            # Find an unreliable edge to a different transmitter to spoil it.
            for other in sorted(graph.potential_neighbors(vertex), key=repr):
                if other in transmitting and other != reliable_transmitters[0]:
                    edge = normalize_edge(vertex, other)
                    if edge in graph.unreliable_edges:
                        chosen.add(edge)
                        break
        return frozenset(chosen)

    def describe(self) -> str:
        return "CollisionAdaptiveAdversary(adaptive, outside the paper's model)"


class NoUnreliableScheduler(LinkScheduler):
    """Never include any unreliable edge: the topology is always ``G``."""

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        return ()


class FullInclusionScheduler(LinkScheduler):
    """Always include every unreliable edge: the topology is always ``G'``."""

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        return tuple(range(index.num_unreliable_edges))


def _edge_round_hash(seed: int, edge: Edge, round_number: int, salt: bytes = b"") -> float:
    """Deterministic pseudo-random value in [0, 1) for (seed, edge, round).

    Using a hash keeps the scheduler oblivious (the value depends only on data
    fixed before the execution) and reproducible across runs and platforms.
    """
    endpoints = sorted(repr(v) for v in edge)
    payload = (
        str(seed).encode()
        + b"|"
        + endpoints[0].encode()
        + b"|"
        + endpoints[1].encode()
        + b"|"
        + str(round_number).encode()
        + b"|"
        + salt
    )
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / _TWO_64


class IIDScheduler(LinkScheduler):
    """Each unreliable edge appears independently with probability ``p`` per round."""

    decides_edges_independently = True

    def __init__(self, graph: DualGraph, probability: float = 0.5, seed: int = 0) -> None:
        super().__init__(graph)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._p = float(probability)
        self._seed = int(seed)
        self._states: Optional[Tuple["hashlib._Hash", ...]] = None

    @property
    def probability(self) -> float:
        return self._p

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        if self._p == 0.0:
            return frozenset()
        if self._p == 1.0:
            return self._graph.unreliable_edges
        return frozenset(
            e
            for e in self._graph.unreliable_edges
            if _edge_round_hash(self._seed, e, round_number) < self._p
        )

    def _edge_hash_states(self) -> Tuple["hashlib._Hash", ...]:
        """Per-edge-id SHA-256 state over the constant prefix of the
        :func:`_edge_round_hash` payload.

        The payload is ``seed|e0|e1|round|salt`` with an empty salt; only the
        round varies between rounds, so everything up to and including the
        third separator is hashed once per edge.  A decision ``.copy()``-s
        the edge's state and feeds it the round suffix, which yields the
        digest (and therefore the inclusion decision) bit-identical to
        :func:`_edge_round_hash`.  Built on first use.
        """
        if self._states is None:
            seed_bytes = str(self._seed).encode()
            states = []
            for edge in self._graph.topology_index().unreliable_edge_list:
                e0, e1 = sorted(repr(v) for v in edge)
                states.append(
                    hashlib.sha256(seed_bytes + b"|" + e0.encode() + b"|" + e1.encode() + b"|")
                )
            self._states = tuple(states)
        return self._states

    def decide_edge_mask(self, round_number: int, need: int) -> int:
        """The edges of ``need`` (an edge-id bitmask) included in the round.

        One SHA-256 per set bit of ``need``, nothing for the other edges:
        the decisions are independent, so deciding a subset now and the rest
        later gives the same schedule as deciding every edge at once.
        """
        if self._p == 0.0:
            return 0
        if self._p == 1.0:
            return need
        states = self._edge_hash_states()
        suffix = str(round_number).encode() + b"|"
        p = self._p
        from_bytes = int.from_bytes
        included = 0
        while need:
            low = need & -need
            need ^= low
            state = states[low.bit_length() - 1].copy()
            state.update(suffix)
            if from_bytes(state.digest()[:8], "big") / _TWO_64 < p:
                included |= low
        return included

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        count = index.num_unreliable_edges
        mask = self.decide_edge_mask(round_number, (1 << count) - 1)
        return tuple(eid for eid in range(count) if mask >> eid & 1)

    def _delta_cache_signature(self) -> Tuple[Hashable, ...]:
        # The whole schedule is a pure function of (seed, p) and the edge
        # identities -- exactly what the cache key's topology fingerprint plus
        # this signature pin down.
        return ("iid", self._seed, self._p)

    def describe(self) -> str:
        return f"IIDScheduler(p={self._p})"


class PeriodicScheduler(LinkScheduler):
    """Unreliable edges are all present for ``on_rounds`` rounds, then absent.

    The phase offset of each edge can optionally be staggered by edge (so
    different links fade at different times), still as a fixed function of the
    edge identity.
    """

    def __init__(
        self,
        graph: DualGraph,
        on_rounds: int = 5,
        off_rounds: int = 5,
        stagger: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__(graph)
        if on_rounds < 0 or off_rounds < 0 or on_rounds + off_rounds == 0:
            raise ValueError("need a positive period with non-negative on/off parts")
        self._on = int(on_rounds)
        self._off = int(off_rounds)
        self._stagger = bool(stagger)
        self._seed = int(seed)

    def _offset_for_edge(self, edge: Edge) -> int:
        if not self._stagger:
            return 0
        period = self._on + self._off
        return int(_edge_round_hash(self._seed, edge, 0, salt=b"offset") * period)

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        period = self._on + self._off
        result = []
        for e in self._graph.unreliable_edges:
            phase = (round_number - 1 + self._offset_for_edge(e)) % period
            if phase < self._on:
                result.append(e)
        return frozenset(result)

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        # The schedule is periodic: the inclusion mask depends only on
        # (round - 1) mod period, so at most `period` distinct masks exist.
        period = self._on + self._off
        return self._memo_slot_ids(
            (round_number - 1) % period,
            lambda phase: tuple(
                eid
                for eid, edge in enumerate(index.unreliable_edge_list)
                if (phase + self._offset_for_edge(edge)) % period < self._on
            ),
        )

    def _delta_cache_signature(self) -> Tuple[Hashable, ...]:
        return ("periodic", self._on, self._off, self._stagger, self._seed)

    def describe(self) -> str:
        return f"PeriodicScheduler(on={self._on}, off={self._off}, stagger={self._stagger})"


class AntiScheduleAdversary(LinkScheduler):
    """Targeted oblivious adversary against a *known fixed* probability schedule.

    The classic Decay strategy cycles deterministically through broadcast
    probabilities ``1/2, 1/4, ..., 1/Δ``.  Because that schedule is fixed in
    advance, an oblivious link scheduler can be built against it:

    * in rounds where the victim's schedule uses a **high** probability, the
      adversary includes all unreliable edges, maximizing the number of
      simultaneous transmitters around each receiver (collisions), and
    * in rounds where the victim uses a **low** probability, it removes the
      unreliable edges, so receivers hear (almost) nobody.

    ``victim_probabilities`` gives the victim's per-round probability sequence
    (cycled); ``threshold`` splits "high" from "low".  The adversary also works
    against any algorithm, it simply is most damaging to the one it was built
    for -- which is exactly the point of experiment E6.
    """

    def __init__(
        self,
        graph: DualGraph,
        victim_probabilities: Sequence[float],
        threshold: Optional[float] = None,
        phase_offset: int = 0,
    ) -> None:
        super().__init__(graph)
        probs = [float(p) for p in victim_probabilities]
        if not probs:
            raise ValueError("need a non-empty victim probability schedule")
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValueError("victim probabilities must be in [0, 1]")
        self._victim = probs
        if threshold is None:
            threshold = sorted(probs)[len(probs) // 2]
        self._threshold = float(threshold)
        self._offset = int(phase_offset)

    @property
    def victim_probabilities(self) -> Tuple[float, ...]:
        return tuple(self._victim)

    @property
    def threshold(self) -> float:
        return self._threshold

    def victim_probability_for_round(self, round_number: int) -> float:
        index = (round_number - 1 + self._offset) % len(self._victim)
        return self._victim[index]

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        if self.victim_probability_for_round(round_number) >= self._threshold:
            return tuple(range(index.num_unreliable_edges))
        return ()

    def describe(self) -> str:
        return (
            f"AntiScheduleAdversary(cycle={len(self._victim)}, "
            f"threshold={self._threshold:.3g})"
        )


class TraceScheduler(LinkScheduler):
    """An explicit finite schedule, cycled (or clamped) past its end.

    Parameters
    ----------
    schedule:
        A list whose ``t``-th entry (0-based for round ``t+1``) is an iterable
        of unreliable edges (vertex pairs) included in that round.
    cycle:
        If true, the schedule repeats; otherwise rounds past the end include
        no unreliable edges.
    """

    def __init__(
        self,
        graph: DualGraph,
        schedule: Sequence[Iterable[Tuple]],
        cycle: bool = True,
    ) -> None:
        super().__init__(graph)
        self._schedule: List[FrozenSet[Edge]] = []
        for entry in schedule:
            edges = frozenset(normalize_edge(*pair) for pair in entry)
            unknown = edges - graph.unreliable_edges
            if unknown:
                raise ValueError(
                    f"schedule mentions edges not in E' \\ E: {sorted(map(tuple, unknown))}"
                )
            self._schedule.append(edges)
        self._cycle = bool(cycle)

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        if not self._schedule:
            return ()
        slot = round_number - 1
        if slot >= len(self._schedule):
            if not self._cycle:
                return ()
            slot %= len(self._schedule)
        return self._memo_slot_ids(slot, lambda s: index.edge_ids(self._schedule[s]))

    def describe(self) -> str:
        return f"TraceScheduler(length={len(self._schedule)}, cycle={self._cycle})"
