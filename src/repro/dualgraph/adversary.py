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
import os
import pickle
import random
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.caches import bounded_put
from repro.dualgraph.graph import DualGraph, Edge, TopologyIndex, normalize_edge

_TWO_64 = float(1 << 64)  # shared by _edge_round_hash and the IID fast paths, which must agree


class SchedulerDeltaCache:
    """Cross-trial cache of per-round unreliable-edge-id deltas.

    An oblivious scheduler's per-round delta -- the tuple of dense edge ids
    included in round ``t`` -- is a pure function of ``(scheduler
    configuration, topology structure, t)``.  Sweeps and multi-trial
    experiments re-derive exactly the same deltas in every trial (each trial
    builds a fresh graph and scheduler with the same parameters), and for
    hash-driven schedulers like :class:`IIDScheduler` that derivation is one
    SHA-256 per unreliable edge per round -- the single most expensive part
    of reception resolution.  This cache shares the computed deltas across
    every scheduler instance whose :meth:`LinkScheduler.delta_cache_key`
    matches, so the hashing happens once per sweep point instead of once per
    trial.

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

    __slots__ = ("_table", "_set_table", "_maxsize", "hits", "misses")

    #: Default entry bound: at a few KB per cached delta this keeps the
    #: process-wide cache in the tens of MB even for adversarial workloads.
    DEFAULT_MAXSIZE = 8192

    def __init__(
        self,
        table: Optional[Mapping[Tuple[Hashable, int], Tuple[int, ...]]] = None,
        maxsize: Optional[int] = DEFAULT_MAXSIZE,
    ) -> None:
        self._table: Dict[Tuple[Hashable, int], Tuple[int, ...]] = (
            dict(table) if table else {}
        )
        # The frozenset views of the same deltas, cached separately: the
        # kernel resolver's lone-transmitter rounds consume sets, and building
        # a frozenset over a few thousand ids every round costs more than the
        # whole rest of a sparse round's resolution.  Set views are
        # process-local (rebuilt from the id tuples after a preload) and
        # bounded like the id table.
        self._set_table: Dict[Tuple[Hashable, int], FrozenSet[int]] = {}
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

    def lookup_set(self, key: Hashable, round_number: int) -> Optional[FrozenSet[int]]:
        """The cached frozenset view of a delta, or ``None`` when unbuilt."""
        return self._set_table.get((key, round_number))

    def store_set(self, key: Hashable, round_number: int, ids: FrozenSet[int]) -> None:
        """Record a delta's frozenset view (same FIFO bound as the id table)."""
        bounded_put(self._set_table, (key, round_number), ids, self._maxsize)

    def preload(self, table: Mapping[Tuple[Hashable, int], Tuple[int, ...]]) -> None:
        """Merge a prebuilt ``(key, round) -> ids`` table into the cache.

        A preloaded table is a deliberate memory commitment: if it is larger
        than ``maxsize``, the bound is raised to fit it (the bound exists to
        stop unbounded *incremental* growth, not to silently drop entries an
        operator explicitly prebuilt).  Preloading is idempotent-cheap: when
        the table's first *and* last entries are already cached with the same
        values the merge is skipped, so repeated preloads of the same table
        (e.g. per-grid-point re-sends) cost two dict lookups instead of a
        full ``update`` -- while a superset table (same scheduler, more
        rounds) still merges, because its last entry is new.
        """
        if not table:
            return
        items = iter(table.items())
        first_key, first_ids = next(items)
        if self._table.get(first_key) == first_ids:
            last_key = next(reversed(table)) if hasattr(table, "__reversed__") else None
            if last_key is not None and self._table.get(last_key) == table[last_key]:
                # Already merged (or a prefix survived eviction -- dropped
                # rounds are simply recomputed on demand).
                return
        self._table.update(table)
        if self._maxsize is not None and len(self._table) > self._maxsize:
            self._maxsize = len(self._table)

    def export_table(self) -> Dict[Tuple[Hashable, int], Tuple[int, ...]]:
        """A picklable snapshot of the cache contents (plain dict of id tuples)."""
        return dict(self._table)

    def clear(self) -> None:
        self._table.clear()
        self._set_table.clear()
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


#: On-disk delta table format version; bumped if the pickle layout changes.
_DELTA_TABLE_FORMAT = 1


def _library_version() -> str:
    # Local import: repro/__init__ imports this module at package import time.
    from repro import __version__

    return __version__


def _delta_table_path(cache_dir: str, cache_key: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in cache_key)
    return os.path.join(cache_dir, f"scheduler-deltas-{safe}.pkl")


def prebuild_scheduler_deltas(
    scheduler: "LinkScheduler",
    rounds: int,
    cache_dir: Optional[str] = None,
    cache_key: Optional[str] = None,
) -> Dict[Tuple[Hashable, int], Tuple[int, ...]]:
    """Compute rounds ``1..rounds`` of a scheduler's deltas into a plain table.

    The result is picklable and keyed exactly as :class:`SchedulerDeltaCache`
    stores entries, so it can be passed across process boundaries and fed to
    :func:`preload_process_delta_cache` (or ``SchedulerDeltaCache(table)``).
    Raises ``ValueError`` for schedulers whose deltas are not cacheable
    (adaptive adversaries, custom subclasses without a cache key).

    When ``cache_dir`` is given the table is additionally persisted on disk,
    keyed by ``cache_key`` -- callers with a scenario spec pass
    ``spec.fingerprint()`` (see
    :func:`repro.scenarios.runtime.prebuild_delta_table`); without an explicit
    key a stable hash of the scheduler's own ``delta_cache_key()`` is used.
    A later invocation with the same key and a round budget the stored table
    already covers loads the file and **skips the recomputation entirely** --
    this is what amortizes per-round schedule hashing across repeated
    benchmark/CLI invocations, not just across trials of one process.  Files
    are pickles; a cache dir is operator-local state, treat it like any other
    build artifact (unreadable or stale-format files are ignored and
    rewritten).
    """
    key = scheduler.delta_cache_key()
    if key is None:
        raise ValueError(
            f"{type(scheduler).__name__} deltas are not cacheable "
            "(delta_cache_key() returned None)"
        )

    path = None
    if cache_dir is not None:
        if cache_key is None:
            cache_key = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        path = _delta_table_path(cache_dir, cache_key)
        if os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    stored = pickle.load(handle)
                if (
                    isinstance(stored, dict)
                    and stored.get("format") == _DELTA_TABLE_FORMAT
                    # A schedule is only as stable as the code that derives
                    # it: a library upgrade invalidates stored tables even
                    # when the scheduler's signature tuple is unchanged, so
                    # stale schedules can never silently survive a version
                    # bump and break byte-reproducibility.
                    and stored.get("version") == _library_version()
                    and stored.get("rounds", 0) >= rounds
                ):
                    return stored["table"]
            except Exception:
                # Unreadable/corrupt cache file (torn write, disk damage):
                # pickle.load raises a wide-open set of exception types on
                # garbage bytes (UnpicklingError, EOFError, ValueError,
                # MemoryError, ImportError, ...), and the contract here is
                # best-effort -- recompute and overwrite below.
                pass

    index = scheduler.graph.topology_index()
    table = {
        (key, t): scheduler._compute_unreliable_edge_ids(t, index)
        for t in range(1, rounds + 1)
    }

    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            pickle.dump(
                {
                    "format": _DELTA_TABLE_FORMAT,
                    "version": _library_version(),
                    "rounds": rounds,
                    "table": table,
                },
                handle,
            )
        os.replace(tmp_path, path)
    return table


class LinkScheduler(ABC):
    """Base class for oblivious link schedulers.

    Subclasses implement :meth:`unreliable_edges_for_round`; the simulator
    calls :meth:`resolve_topology` to obtain the full edge set of the round's
    communication topology ``G_t`` (always a superset of ``E``).

    For the engine's fast path, schedulers additionally expose a *delta
    interface*: :meth:`unreliable_edge_ids_for_round` reports the included
    edges as dense integer ids from the graph's
    :meth:`~repro.dualgraph.graph.DualGraph.topology_index`, memoized per
    round, so the engine never touches frozensets of edges on the hot path.
    Subclasses with structure to exploit (periodic masks, precomputed hash
    prefixes) override :meth:`_compute_unreliable_edge_ids`; the default maps
    :meth:`unreliable_edges_for_round` through the index, so any oblivious
    scheduler gets the delta interface for free and both views always agree.
    """

    def __init__(self, graph: DualGraph) -> None:
        self._graph = graph
        self._ids_memo_key: Optional[Tuple[int, int]] = None
        self._ids_memo: Tuple[int, ...] = ()
        self._ids_set_memo_key: Optional[Tuple[int, int]] = None
        self._ids_set_memo: FrozenSet[int] = frozenset()
        self._delta_cache: Optional[SchedulerDeltaCache] = _PROCESS_DELTA_CACHE
        self._cache_key_memo: Optional[Tuple[int, Optional[Hashable]]] = None

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

    @abstractmethod
    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        """The subset of ``E' \\ E`` included in round ``round_number`` (1-based)."""

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
        * The result is memoized per ``(round, topology version)``, so the
          engine -- and anything else inspecting the schedule -- can query
          the current round repeatedly for free.
        * For schedulers exposing a :meth:`delta_cache_key`, computed deltas
          are additionally shared through the attached
          :class:`SchedulerDeltaCache`, so structurally identical trials
          (same scheduler configuration, same indexed topology) never
          re-derive a round's delta.

        The returned tuple must be treated as immutable; it may be the cached
        object shared across scheduler instances and trials.
        """
        key = (round_number, self._graph.topology_version)
        if key == self._ids_memo_key:
            return self._ids_memo
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
        self._ids_memo_key = key
        self._ids_memo = ids
        return ids

    def unreliable_edge_id_set_for_round(self, round_number: int) -> FrozenSet[int]:
        """The round's inclusion delta as a frozenset of dense edge ids.

        The set view of :meth:`unreliable_edge_ids_for_round`, memoized per
        ``(round, topology version)``.  The kernel reception resolver
        intersects it with a lone transmitter's precomputed incident-edge-id
        set (:attr:`~repro.dualgraph.graph.TopologyIndex.unreliable_incident_ids`),
        one C-level set operation instead of a per-round bitmask decode.
        """
        key = (round_number, self._graph.topology_version)
        if key == self._ids_set_memo_key:
            return self._ids_set_memo
        cache = self._delta_cache
        cache_key = self.delta_cache_key() if cache is not None else None
        ids_set: Optional[FrozenSet[int]] = None
        if cache_key is not None:
            ids_set = cache.lookup_set(cache_key, round_number)
        if ids_set is None:
            ids_set = frozenset(self.unreliable_edge_ids_for_round(round_number))
            if cache_key is not None:
                cache.store_set(cache_key, round_number, ids_set)
        self._ids_set_memo = ids_set
        self._ids_set_memo_key = key
        return ids_set

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        """Uncached id computation; override when structure allows a fast path."""
        return index.edge_ids(self.unreliable_edges_for_round(round_number))

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
        version = self._graph.topology_version
        memo = self._cache_key_memo
        if memo is not None and memo[0] == version:
            return memo[1]
        signature = self._delta_cache_signature()
        key: Optional[Hashable] = None
        if signature is not None:
            key = (
                type(self).__name__,
                tuple(signature),
                self._graph.topology_index().fingerprint,
            )
        self._cache_key_memo = (version, key)
        return key

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

    def unreliable_edge_included(self, edge_id: int, round_number: int) -> bool:
        """Whether one unreliable edge (by dense id) is scheduled this round.

        A point query about one edge, for consumers that need only the edges
        incident to a few vertices -- far fewer than the whole of
        ``E' \\ E`` for sparse transmission patterns.  The default answers
        from the memoized set view of the round's full id delta; schedulers
        whose per-edge decision is O(1) (e.g. :class:`IIDScheduler`) override
        this so that never-queried edges cost nothing at all.
        """
        return edge_id in self.unreliable_edge_id_set_for_round(round_number)

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

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        # The non-adaptive projection: used only if someone drives an adaptive
        # scheduler through the oblivious interface (e.g. for inspection).
        return frozenset()

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

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        return frozenset()

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        return ()


class FullInclusionScheduler(LinkScheduler):
    """Always include every unreliable edge: the topology is always ``G'``."""

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        return self._graph.unreliable_edges

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

    def __init__(self, graph: DualGraph, probability: float = 0.5, seed: int = 0) -> None:
        super().__init__(graph)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._p = float(probability)
        self._seed = int(seed)
        self._prefixes_version: Optional[int] = None
        self._prefixes: Tuple[bytes, ...] = ()

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

    def _payload_prefixes(self, index: TopologyIndex) -> Tuple[bytes, ...]:
        """Per-edge-id constant prefix of the `_edge_round_hash` payload.

        The payload is ``seed|e0|e1|round|salt`` with an empty salt; only the
        round varies between rounds, so everything up to and including the
        third separator is hashed from a precomputed bytes object.  The digest
        (and therefore the inclusion decision) is bit-identical to
        :func:`_edge_round_hash`.
        """
        version = self._graph.topology_version
        if version != self._prefixes_version:
            seed_bytes = str(self._seed).encode()
            prefixes = []
            for edge in index.unreliable_edge_list:
                e0, e1 = sorted(repr(v) for v in edge)
                prefixes.append(
                    seed_bytes + b"|" + e0.encode() + b"|" + e1.encode() + b"|"
                )
            self._prefixes = tuple(prefixes)
            self._prefixes_version = version
        return self._prefixes

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        if self._p == 0.0:
            return ()
        if self._p == 1.0:
            return tuple(range(index.num_unreliable_edges))
        suffix = str(round_number).encode() + b"|"
        p = self._p
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        return tuple(
            eid
            for eid, prefix in enumerate(self._payload_prefixes(index))
            if from_bytes(sha256(prefix + suffix).digest()[:8], "big") / _TWO_64 < p
        )

    def unreliable_edge_included(self, edge_id: int, round_number: int) -> bool:
        # One hash for one edge: the i.i.d. decisions are independent, so a
        # membership query never needs the rest of the round's delta.
        if self._p == 0.0:
            return False
        if self._p == 1.0:
            return True
        prefixes = self._payload_prefixes(self._graph.topology_index())
        payload = prefixes[edge_id] + str(round_number).encode() + b"|"
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / _TWO_64 < self._p

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
        self._period_masks_version: Optional[int] = None
        self._period_masks: Dict[int, Tuple[int, ...]] = {}

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
        # Compute each lazily and reuse it for the rest of the run.
        period = self._on + self._off
        version = self._graph.topology_version
        if version != self._period_masks_version:
            self._period_masks = {}
            self._period_masks_version = version
        phase = (round_number - 1) % period
        mask = self._period_masks.get(phase)
        if mask is None:
            on = self._on
            mask = tuple(
                eid
                for eid, edge in enumerate(index.unreliable_edge_list)
                if (phase + self._offset_for_edge(edge)) % period < on
            )
            self._period_masks[phase] = mask
        return mask

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

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        if self.victim_probability_for_round(round_number) >= self._threshold:
            return self._graph.unreliable_edges
        return frozenset()

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
        self._id_schedule_version: Optional[int] = None
        self._id_schedule: List[Tuple[int, ...]] = []

    def unreliable_edges_for_round(self, round_number: int) -> FrozenSet[Edge]:
        if not self._schedule:
            return frozenset()
        index = round_number - 1
        if index >= len(self._schedule):
            if not self._cycle:
                return frozenset()
            index %= len(self._schedule)
        return self._schedule[index]

    def _compute_unreliable_edge_ids(
        self, round_number: int, index: TopologyIndex
    ) -> Tuple[int, ...]:
        version = self._graph.topology_version
        if version != self._id_schedule_version:
            self._id_schedule = [index.edge_ids(entry) for entry in self._schedule]
            self._id_schedule_version = version
        if not self._id_schedule:
            return ()
        slot = round_number - 1
        if slot >= len(self._id_schedule):
            if not self._cycle:
                return ()
            slot %= len(self._id_schedule)
        return self._id_schedule[slot]

    def describe(self) -> str:
        return f"TraceScheduler(length={len(self._schedule)}, cycle={self._cycle})"
