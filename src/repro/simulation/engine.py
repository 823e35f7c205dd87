"""The synchronous round simulator.

:class:`Simulator` executes the model of Section 2:

* rounds are numbered 1, 2, 3, ...;
* in round ``t`` the communication topology ``G_t`` consists of all reliable
  edges plus the unreliable edges chosen by the (oblivious) link scheduler;
* a listening node ``u`` receives a frame from ``v`` iff ``v`` is the *only*
  transmitting node among ``u``'s neighbors in ``G_t``; otherwise ``u``
  receives the null indicator (``None``) -- there is no collision detection;
* transmitting nodes receive nothing;
* the environment delivers inputs before transmissions and consumes outputs
  after receptions.

Reception resolution has two implementations that produce identical results:

* the **kernel** (production) resolver runs the collision rule as big-integer
  bitmask algebra over the graph's integer-indexed
  :class:`~repro.dualgraph.graph.TopologyIndex`.  Reliable neighborhoods are
  masks precomputed once per topology.  A scheduler that decides edges
  independently
  (:attr:`~repro.dualgraph.adversary.LinkScheduler.decides_edges_independently`,
  e.g. IID) is asked on demand, only for the unreliable edges incident to
  the round's transmitters
  (:meth:`~repro.dualgraph.adversary.LinkScheduler.decide_edge_mask`), and
  the decisions are memoized per round in :data:`_SCHED_MASK_CACHE`.  Every
  other scheduler is read through its per-round delta
  (:meth:`~repro.dualgraph.adversary.LinkScheduler.unreliable_edge_ids_for_round`),
  decoded into one scheduled-edge mask per round.  Those deltas are shared
  across trials by the :class:`~repro.dualgraph.adversary.SchedulerDeltaCache`
  and the decoded masks by :data:`_SCHED_MASK_CACHE`, both keyed on the
  scheduler's delta cache key; schedulers without a key decode their own mask
  every round.
* the **generic** (reference) resolver asks the scheduler for the round's full
  topology edge set and scans it.  It is used for ``fast_path=False``, for
  adaptive schedulers (whose edge choice depends on the round's transmitters),
  for schedulers that override
  :meth:`~repro.dualgraph.adversary.LinkScheduler.resolve_topology` and for
  schedulers built for another graph; :attr:`Simulator.lane_fallback` names
  which.

Processes exposing a batch group key
(:meth:`~repro.simulation.process.Process.batch_group_key`) are stepped by
shared cohort drivers -- one ``transmit_round`` / ``receive_round`` call per
driver per round, which lets homogeneous populations share per-round
decisions -- and all other processes individually.  ``batch_path=False``
steps every process individually, the reference stepping mode.  Every
stepping mode and every trace mode runs through one round loop; the
:class:`~repro.simulation.trace.TraceMode` only decides what the trace
retains.  The loop times its sections (``inputs`` / ``transmit`` /
``resolve`` / ``deliver`` / ``outputs``) into :attr:`Simulator.perf_stats`.

On the kernel lane, :meth:`Simulator.run` also skips *silent rounds*: every
batch driver and the environment report their next busy round
(``next_busy_round``), and the loop jumps over the rounds before the
earliest, telling each driver how many it skipped and the environment which
rounds (``skip_rounds``; a queued environment realizes their arrivals and
backlog samples there).  Skipped rounds record no frames and call no
section; :attr:`Simulator.perf_stats` counts them as ``rounds_skipped``.
See :meth:`Simulator._silent_round_sources` for when skipping applies.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional

from repro.caches import bounded_put
from repro.dualgraph.adversary import (
    FullInclusionScheduler,
    LinkScheduler,
    NoUnreliableScheduler,
)
from repro.dualgraph.graph import DualGraph
from repro.simulation.environment import Environment, NullEnvironment
from repro.simulation.process import Process
from repro.simulation.trace import ExecutionTrace, TraceMode

Vertex = Hashable

#: Process-wide memo of per-round scheduled-edge bitmasks, keyed by
#: ``(scheduler delta-cache key, round)``.  The delta cache key's contract
#: (equal keys => identical deltas for every round, across instances and
#: processes) is exactly the license needed to share the masks the same way
#: the :class:`~repro.dualgraph.adversary.SchedulerDeltaCache` shares the id
#: tuples.  A value is the round's full mask, or -- for schedulers that
#: decide edges independently -- a ``(decided_bits, included_bits)`` pair
#: that grows as later rounds' transmitters need more edges (see
#: :meth:`Simulator._decided_edge_mask`).  Bounded FIFO: inserts past the
#: cap evict the oldest entry.
_SCHED_MASK_CACHE: Dict[Any, Any] = {}
_SCHED_MASK_CACHE_MAXSIZE = 8192

#: The round-loop sections :attr:`Simulator.perf_stats` accumulates.
_SECTIONS = ("inputs", "transmit", "resolve", "deliver", "outputs")


class Simulator:
    """Drive a set of processes over a dual graph for a number of rounds.

    Parameters
    ----------
    graph:
        The dual graph network ``(G, G')``, fixed for the execution: the
        simulator indexes it, which freezes it.
    processes:
        A mapping from every vertex of the graph to its process automaton.
    scheduler:
        The oblivious link scheduler; defaults to never including unreliable
        edges (topology always equals ``G``).
    environment:
        The input/output environment; defaults to a :class:`NullEnvironment`.
    trace_mode:
        The :class:`TraceMode` the trace records under (default
        ``TraceMode.FULL``).
    fast_path:
        Resolve receptions with the bitmask kernel when the scheduler allows
        it (see module docstring).  Disable to force the generic reference
        resolver; both produce identical traces.
    batch_path:
        Step batchable processes through shared cohort drivers.  Disable to
        step every process individually (the reference); both produce
        identical traces.
    """

    def __init__(
        self,
        graph: DualGraph,
        processes: Mapping[Vertex, Process],
        scheduler: Optional[LinkScheduler] = None,
        environment: Optional[Environment] = None,
        trace_mode: Optional[TraceMode] = None,
        fast_path: bool = True,
        batch_path: bool = True,
    ) -> None:
        missing = graph.vertices - set(processes)
        if missing:
            raise ValueError(f"no process supplied for vertices: {sorted(map(repr, missing))}")
        extra = set(processes) - graph.vertices
        if extra:
            raise ValueError(f"processes supplied for unknown vertices: {sorted(map(repr, extra))}")
        self._graph = graph
        graph.topology_index()  # freeze (G, G') on every lane
        self._processes: Dict[Vertex, Process] = dict(processes)
        self._scheduler = scheduler if scheduler is not None else NoUnreliableScheduler(graph)
        self._environment = environment if environment is not None else NullEnvironment()
        self._trace = ExecutionTrace(mode=trace_mode)
        self._current_round = 0
        #: Wall-clock seconds spent per round-loop section, always collected,
        #: plus ``rounds_skipped``: the silent rounds run() jumped over.
        self.perf_stats: Dict[str, Any] = dict.fromkeys(_SECTIONS, 0.0)
        self.perf_stats["rounds_skipped"] = 0

        # Surface *why* the kernel resolver does not run (None when it does):
        # a scheduler that quietly drops a run onto the reference resolver
        # becomes a recorded, assertable reason instead of a perf mystery.
        self._lane_fallback = self._kernel_fallback_reason(fast_path)
        self._fast = self._lane_fallback is None
        # Round-scoped reusable buffers of the kernel resolver: allocated
        # once, reset at the start of each use.
        self._kr_masks: List[int] = []
        self._kr_receptions: Dict[Vertex, Any] = {}
        if self._fast:
            self._bind_index()

        # Batch stepping: group processes that expose a cohort key under one
        # driver each; everything else is stepped per-process.  Output drain
        # order must match the per-process engine, so keep the full process
        # list in registration order regardless of grouping.
        self._ordered_processes: List[Process] = list(self._processes.values())
        self._batch_drivers: List[Any] = []
        self._ungrouped: Dict[Vertex, Process] = self._processes
        if batch_path:
            self._build_batch_groups()
        self._busy_sources = self._silent_round_sources()

    def _build_batch_groups(self) -> None:
        groups: Dict[Any, Any] = {}
        ungrouped: Dict[Vertex, Process] = {}
        for vertex, process in self._processes.items():
            driver = None
            key = process.batch_group_key()
            if key is not None:
                driver = groups.get(key)
                if driver is None:
                    driver = process.make_batch_driver()
                    if driver is not None:
                        groups[key] = driver
            if driver is None:
                ungrouped[vertex] = process
            else:
                driver.add_member(process)
        if groups:
            self._batch_drivers = list(groups.values())
            self._ungrouped = ungrouped

    def _kernel_fallback_reason(self, fast_path: bool) -> Optional[str]:
        """The first condition that keeps the kernel resolver off, or
        ``None`` when it runs.

        The kernel reads the schedule as edge ids -- a scheduler's whole
        per-round delta, or, for one that decides edges independently, the
        decisions for the transmitters' incident edges -- so it needs an
        oblivious scheduler built for this graph whose topology is exactly
        what those ids describe.
        """
        if not fast_path:
            return "fast_path is off"
        scheduler = self._scheduler
        name = type(scheduler).__name__
        if scheduler.is_adaptive:
            return f"scheduler {name} is adaptive"
        # A scheduler that customizes resolve_topology (beyond the adaptive
        # subclasses) may depend on the transmitter set, which the delta
        # interface cannot express.
        if type(scheduler).resolve_topology is not LinkScheduler.resolve_topology:
            return f"scheduler {name} overrides resolve_topology"
        if scheduler.graph is not self._graph:
            return f"scheduler {name} was built for another graph"
        return None

    def _silent_round_sources(self) -> Optional[List[Callable[[int], Optional[int]]]]:
        """The ``next_busy_round`` callables :meth:`run` consults to skip
        silent rounds, or ``None`` when it steps every round.

        Skipping needs the kernel lane and no per-process (ungrouped)
        process, which reports no next busy round; every batch driver must
        offer ``next_busy_round``; and the environment's
        own class must define
        :meth:`~repro.simulation.environment.Environment.next_busy_round` --
        a subclass that overrides only its submissions inherits an answer
        about another class.  Drivers are asked first: a busy driver ends
        the query before the environment is asked.
        """
        if (
            not self._fast
            or self._ungrouped
            or "next_busy_round" not in vars(type(self._environment))
        ):
            return None
        sources = []
        for driver in self._batch_drivers:
            busy = getattr(driver, "next_busy_round", None)
            if busy is None:
                return None
            sources.append(busy)
        sources.append(self._environment.next_busy_round)
        return sources

    def _bind_index(self) -> None:
        """Bind the kernel resolver's views of the graph's topology index.

        The kernel runs the collision rule as big-integer bitmask algebra, so
        it needs per-vertex reliable neighborhoods and incident unreliable
        edge ids as bit masks, plus the single-bit table for assembling
        per-round masks.  A round's working set is then a few hundred bytes
        of ints, which is what keeps the mask operations cache-resident.
        """
        index = self._graph.topology_index()
        self._idx_of = index.index_of
        self._vertex_of = index.vertices
        self._g_neighbors = index.g_neighbors
        self._u_neighbor_of = index.unreliable_neighbor_by_eid
        # NoUnreliableScheduler schedules no unreliable edge in any round and
        # FullInclusionScheduler every one, so their fixed masks are bound
        # here and their deltas are never asked for; None means the mask
        # changes per round.
        num_unreliable = index.num_unreliable_edges
        scheduler_type = type(self._scheduler)
        if not num_unreliable or scheduler_type is NoUnreliableScheduler:
            self._fixed_edge_mask: Optional[int] = 0
        elif scheduler_type is FullInclusionScheduler:
            self._fixed_edge_mask = (1 << num_unreliable) - 1
        else:
            self._fixed_edge_mask = None
        bit = self._v_bit = [1 << i for i in range(index.n)]
        self._g_vmasks = [sum(bit[j] for j in row) for row in index.g_neighbors]
        self._u_mask_bytes = max(1, (index.num_unreliable_edges + 7) >> 3)
        self._u_inc_masks = [
            sum(1 << eid for eid in row) for row in self._u_neighbor_of
        ]
        # The scheduled-edge bitmask is memoized process-wide under the
        # scheduler's delta cache key (same sharing license as the deltas
        # themselves); None means the scheduler offers no such identity.
        self._sched_mask_key = (
            self._scheduler.delta_cache_key() if self._fixed_edge_mask is None else None
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DualGraph:
        return self._graph

    @property
    def trace(self) -> ExecutionTrace:
        return self._trace

    @property
    def environment(self) -> Environment:
        return self._environment

    @property
    def scheduler(self) -> LinkScheduler:
        return self._scheduler

    @property
    def current_round(self) -> int:
        """The last completed round (0 before the first round runs)."""
        return self._current_round

    @property
    def uses_fast_path(self) -> bool:
        """Whether receptions are resolved by the bitmask kernel."""
        return self._fast

    @property
    def uses_batch_stepping(self) -> bool:
        """Whether any processes are stepped through batch group drivers."""
        return bool(self._batch_drivers)

    @property
    def lane(self) -> str:
        """The engine lane rounds actually run through: ``kernel`` (bitmask
        kernel resolver) or ``reference`` (generic resolver)."""
        return "kernel" if self._fast else "reference"

    @property
    def lane_fallback(self) -> Optional[str]:
        """Why the kernel lane did not run (``None`` when it did)."""
        return self._lane_fallback

    @property
    def batch_drivers(self) -> List[Any]:
        """The registered batch group drivers (empty when none apply)."""
        return list(self._batch_drivers)

    def process_at(self, vertex: Vertex) -> Process:
        """The process automaton assigned to ``vertex``."""
        return self._processes[vertex]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, rounds: int) -> ExecutionTrace:
        """Run ``rounds`` additional rounds and return the trace.

        With silent-round sources (see :meth:`_silent_round_sources`), each
        round first asks them for their next busy round; when the earliest
        lies ahead, the rounds before it (capped at this run's end) are
        skipped: the trace notes them, no frame is recorded, every driver's
        ``skip_rounds`` is told how many passed and the environment's
        ``skip_rounds`` which ones.  Drivers that draw ahead learn the run's
        last round first (``begin_run``).
        """
        if rounds < 0:
            raise ValueError("cannot run a negative number of rounds")
        end = self._current_round + rounds
        for driver in self._batch_drivers:
            begin_run = getattr(driver, "begin_run", None)
            if begin_run is not None:
                begin_run(end)
        sources = self._busy_sources
        while self._current_round < end:
            round_number = self._current_round + 1
            if sources is not None:
                resume = end + 1
                for next_busy_round in sources:
                    busy = next_busy_round(round_number)
                    if busy is not None and busy < resume:
                        resume = busy
                        if busy <= round_number:
                            break
                if resume > round_number:
                    skipped = resume - round_number
                    for driver in self._batch_drivers:
                        driver.skip_rounds(skipped)
                    self._environment.skip_rounds(round_number, skipped)
                    self._current_round = resume - 1
                    self._trace.note_round(resume - 1)
                    self.perf_stats["rounds_skipped"] += skipped
                    continue
            self._current_round = round_number
            self._run_round(round_number)
        # Settle any deferred batch-driver state (member streams, stats) so
        # callers observe exactly the per-process state at every run boundary;
        # drivers rebuild their cohorts lazily if the run resumes mid-body.
        for driver in self._batch_drivers:
            driver.flush_kernel_state()
        return self._trace

    def run_until(self, predicate, max_rounds: int, check_every: int = 1) -> ExecutionTrace:
        """Run until ``predicate(trace)`` is true or ``max_rounds`` have elapsed.

        The predicate is evaluated every ``check_every`` rounds (and once more
        at the end).  Useful for "run until the flood completes" experiments.
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if check_every < 1:
            raise ValueError(f"check_every must be at least 1, got {check_every!r}")
        while self._current_round < max_rounds:
            step = min(check_every, max_rounds - self._current_round)
            self.run(step)
            if predicate(self._trace):
                break
        return self._trace

    # ------------------------------------------------------------------
    # one round of the Section 2 execution model
    # ------------------------------------------------------------------
    def _apply_inputs(self, round_number: int) -> None:
        """Hand the environment's inputs for the round to their processes."""
        inputs = self._environment.inputs_for_round(round_number)
        if inputs:
            trace = self._trace
            processes = self._processes
            for vertex, vertex_inputs in inputs.items():
                process = processes[vertex]
                for inp in vertex_inputs:
                    process.on_input(round_number, inp)
                    trace.record_event(_as_bcast_event(vertex, inp, round_number))

    def _run_round(self, round_number: int) -> None:
        """One round of the Section 2 model.

        Grouped processes get no per-round ``transmit`` / ``on_receive``
        dispatch at all; their drivers add transmissions to, and consume
        receptions from, the same round-level dicts the per-process loops
        use, and events are drained in registration order either way, which
        is what keeps traces byte-identical across the stepping modes.  With
        no drivers this is plain per-process stepping.
        """
        perf = self.perf_stats
        clock = time.perf_counter
        trace = self._trace
        trace.note_round(round_number)

        # 1. environment inputs
        t0 = clock()
        self._apply_inputs(round_number)
        t1 = clock()

        # 2. transmission decisions
        transmissions: Dict[Vertex, Any] = {}
        for driver in self._batch_drivers:
            driver.transmit_round(round_number, transmissions)
        for vertex, process in self._ungrouped.items():
            frame = process.transmit(round_number)
            if frame is not None:
                transmissions[vertex] = frame
        trace.record_transmissions(round_number, transmissions)
        t2 = clock()

        # 3. topology for this round and reception resolution
        receptions = self._resolve_receptions(round_number, transmissions)
        trace.record_receptions(round_number, receptions)
        t3 = clock()
        for driver in self._batch_drivers:
            driver.receive_round(round_number, receptions)
        if self._ungrouped:
            get_reception = receptions.get
            for vertex, process in self._ungrouped.items():
                process.on_receive(round_number, get_reception(vertex))
        t4 = clock()

        # 4. outputs
        round_outputs = []
        for process in self._ordered_processes:
            if process._pending_outputs:
                for event in process.drain_outputs():
                    trace.record_event(event)
                    round_outputs.append(event)
        self._environment.observe_outputs(round_number, round_outputs)
        t5 = clock()

        perf["inputs"] += t1 - t0
        perf["transmit"] += t2 - t1
        perf["resolve"] += t3 - t2
        perf["deliver"] += t4 - t3
        perf["outputs"] += t5 - t4

    # ------------------------------------------------------------------
    # reception resolution
    # ------------------------------------------------------------------
    def _resolve_receptions(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """Apply the radio collision rule for one round.

        Returns only the vertices that actually received a frame; silent or
        collided listeners are simply absent (callers use ``.get``).
        """
        if not transmissions:
            return {}
        if not self._fast:
            return self._resolve_receptions_generic(round_number, transmissions)
        return self._resolve_receptions_kernel(round_number, transmissions)

    def _resolve_receptions_kernel(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        """The collision rule as big-integer bitmask algebra.

        Each transmitter's reach this round is one mask over vertex indices
        (precomputed reliable neighborhood ORed with the decoded
        scheduled-unreliable bits), candidates reached twice are
        ``collided |= seen & mask``, and the winners are one expression,
        ``seen & ~(collided | transmitters)``.  A single transmitter never
        collides with itself (reliable rows have no duplicates, scheduled
        unreliable edges are disjoint from G's edges, and there are no
        self-loops), so the two-touch collision threshold is exact.

        Winner attribution needs no sender map: a winner was reached by
        exactly one transmitter, so intersecting each transmitter's mask with
        the winner mask partitions the winners.  The receptions dict's
        *insertion order* (ascending index per transmitter) differs from the
        generic resolver's, which is observationally irrelevant: frame maps
        compare as dicts, events are drained in process-registration order,
        and each process handles at most one reception per round.  The
        returned dict is reused across rounds -- every trace-recording path
        copies what it keeps.
        """
        idx_of = self._idx_of
        vertex_of = self._vertex_of
        tx_indices = [idx_of[vertex] for vertex in transmissions]

        if self._fixed_edge_mask is not None:
            scheduled_mask = self._fixed_edge_mask
        elif self._sched_mask_key is None:
            # No cross-instance delta identity: decode this scheduler's own
            # delta, which no other instance may share.
            scheduled_mask = self._edge_mask(round_number)
        elif self._scheduler.decides_edges_independently:
            # Only edges incident to a transmitter can carry a frame, so
            # decide just those (a superset may come back from the memo).
            inc_masks = self._u_inc_masks
            need = 0
            for i in tx_indices:
                need |= inc_masks[i]
            scheduled_mask = self._decided_edge_mask(round_number, need)
        else:
            scheduled_mask = self._scheduled_edge_mask(round_number)

        if len(tx_indices) == 1:
            # Lone transmitter: every candidate wins (one transmitter's
            # candidates are duplicate-free, see above).
            i = tx_indices[0]
            frame = transmissions[vertex_of[i]]
            receptions = self._kr_receptions
            receptions.clear()
            for j in self._g_neighbors[i]:
                receptions[vertex_of[j]] = frame
            u_hit = scheduled_mask & self._u_inc_masks[i]
            if u_hit:
                nbs = self._u_neighbor_of[i]
                while u_hit:
                    low = u_hit & -u_hit
                    u_hit ^= low
                    receptions[vertex_of[nbs[low.bit_length() - 1]]] = frame
            return receptions

        bit = self._v_bit
        gmasks = self._g_vmasks
        seen = 0
        collided = 0
        txmask = 0
        masks = self._kr_masks
        del masks[:]
        if scheduled_mask:
            inc_masks = self._u_inc_masks
            neighbor_of = self._u_neighbor_of
            for i in tx_indices:
                m = gmasks[i]
                u_hit = scheduled_mask & inc_masks[i]
                if u_hit:
                    nbs = neighbor_of[i]
                    while u_hit:
                        low = u_hit & -u_hit
                        u_hit ^= low
                        m |= bit[nbs[low.bit_length() - 1]]
                collided |= seen & m
                seen |= m
                txmask |= bit[i]
                masks.append(m)
        else:
            for i in tx_indices:
                m = gmasks[i]
                collided |= seen & m
                seen |= m
                txmask |= bit[i]
                masks.append(m)

        receptions = self._kr_receptions
        receptions.clear()
        win = seen & ~(collided | txmask)
        if win:
            for i, m in zip(tx_indices, masks):
                wm = m & win
                if wm:
                    win ^= wm
                    frame = transmissions[vertex_of[i]]
                    while wm:
                        low = wm & -wm
                        wm ^= low
                        receptions[vertex_of[low.bit_length() - 1]] = frame
                    if not win:
                        break
        return receptions

    def _edge_mask(self, round_number: int) -> int:
        """The round's scheduled unreliable edges as one edge-id bitmask.

        Bit ``eid`` is set iff edge ``eid`` is scheduled this round, so
        ``mask & incident_mask[i]`` is transmitter ``i``'s scheduled
        unreliable edges in one C-level AND.
        """
        ids = self._scheduler.unreliable_edge_ids_for_round(round_number)
        if not ids:
            return 0
        buf = bytearray(self._u_mask_bytes)
        for eid in ids:
            buf[eid >> 3] |= 1 << (eid & 7)
        return int.from_bytes(buf, "little")

    def _scheduled_edge_mask(self, round_number: int) -> int:
        """:meth:`_edge_mask`, decoded once per ``(delta identity, round)``
        process-wide (see :data:`_SCHED_MASK_CACHE`)."""
        key = (self._sched_mask_key, round_number)
        mask = _SCHED_MASK_CACHE.get(key)
        if mask is None:
            mask = self._edge_mask(round_number)
            bounded_put(_SCHED_MASK_CACHE, key, mask, _SCHED_MASK_CACHE_MAXSIZE)
        return mask

    def _decided_edge_mask(self, round_number: int, need: int) -> int:
        """The round's scheduled-edge mask, decided at least on ``need``, for
        a scheduler that decides edges independently.

        The memo entry of ``(delta identity, round)`` in
        :data:`_SCHED_MASK_CACHE` is ``(decided_bits, included_bits)``; only
        ``need & ~decided_bits`` is handed to the scheduler, so every
        (edge, round) is hashed at most once per process while it stays
        memoized.
        """
        key = (self._sched_mask_key, round_number)
        decided, included = _SCHED_MASK_CACHE.get(key, (0, 0))
        todo = need & ~decided
        if todo:
            included |= self._scheduler.decide_edge_mask(round_number, todo)
            bounded_put(
                _SCHED_MASK_CACHE, key, (decided | todo, included), _SCHED_MASK_CACHE_MAXSIZE
            )
        return included

    def _resolve_receptions_generic(
        self, round_number: int, transmissions: Dict[Vertex, Any]
    ) -> Dict[Vertex, Any]:
        topology_edges = self._scheduler.resolve_topology(
            round_number, frozenset(transmissions)
        )
        # Build adjacency restricted to edges incident to a transmitter -- the
        # only edges that can possibly carry a frame this round.
        neighbors_of: Dict[Vertex, list] = {}
        for edge in topology_edges:
            a, b = tuple(edge)
            if a in transmissions:
                neighbors_of.setdefault(b, []).append(a)
            if b in transmissions:
                neighbors_of.setdefault(a, []).append(b)

        receptions: Dict[Vertex, Any] = {}
        for vertex, senders in neighbors_of.items():
            if vertex in transmissions:
                # A radio cannot hear while it transmits.
                continue
            if len(senders) == 1:
                receptions[vertex] = transmissions[senders[0]]
        return receptions


def _as_bcast_event(vertex: Vertex, inp: Any, round_number: int):
    """Wrap an environment input as a trace event.

    Environments submit :class:`repro.core.messages.Message` objects; the
    trace records them as :class:`repro.core.events.BcastInput`.  Inputs of
    other types (used by custom environments or upper layers) are recorded
    as-is if they are already events.
    """
    from repro.core.events import BcastInput
    from repro.core.messages import Message

    if isinstance(inp, BcastInput):
        return inp
    if isinstance(inp, Message):
        return BcastInput(vertex=vertex, message=inp, round_number=round_number)
    raise TypeError(
        f"environment inputs must be Message or BcastInput instances, got {type(inp).__name__}"
    )
