"""Seed-cohort batched stepping for LBAlg populations.

The automata of Section 4.2 have group-level structure that per-process
stepping cannot exploit:

* a body round's shared decision (the participant test and the ``b``
  selection) is a pure function of the committed seed's bit stream at the
  current cursor, so every node in one ``(seed, cursor)`` cohort makes
  *identical* decisions for the rest of the body, and the whole body's
  decisions can be decoded once per cohort up front;
* receiving-state nodes are provably silent in body rounds -- they transmit
  nothing and draw nothing -- so they need no per-round dispatch at all;
* the embedded ``SeedAlg`` preambles of one ``LBAlg`` population run in
  lockstep (one subroutine round per preamble round, all started at the same
  phase boundary), so the round-position arithmetic and phase bookkeeping is
  shared across the whole cohort, and only active members (at phase starts)
  and leaders (every round) do any per-member work.

This module packages those observations as the batch group driver protocol of
:class:`~repro.simulation.process.Process` (``batch_group_key`` /
``make_batch_driver``):

* :class:`_SeedCohort` bulk-decodes one ``(seed, cursor)`` cohort's body
  decisions into the sparse list of its participant rounds, from which the
  driver settles its members' streams with one cursor
  :meth:`~repro.core.seedbits.SeedBitStream.skip` each at flush time, and
  draws its members' private coins for those rounds up front, so only the
  rounds in which someone transmits need stepping;
* :class:`SeedAgreementCohort` steps a phase's embedded
  :class:`~repro.core.seed_agreement.SeedAgreementProcess` instances as one
  unit, through their own election, leader-draw and phase-end methods, and
  draws each leader's broadcast coins at its election;
* :class:`LocalBroadcastBatchDriver` is the engine-facing driver gluing both
  together for a cohort of :class:`~repro.core.local_broadcast.LocalBroadcastProcess`.

The invariant every method here preserves: for a fixed seed, the batched
execution performs exactly the same private RNG draws (drawn ahead, but never
past the run's last round, so every RNG is exact at a run boundary), emits
exactly the same events, and produces exactly the same per-round frames as
per-process stepping -- the regression tests in ``tests/test_fast_engine.py`` pin this
against the reference engine (``fast_path=False, batch_path=False``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.caches import bounded_put
from repro.core.local_broadcast import (
    STATE_SENDING,
    DataFrame,
    LocalBroadcastProcess,
)
from repro.core.params import LBParams, SeedParams
from repro.core.seed_agreement import (
    STATUS_ACTIVE,
    STATUS_INACTIVE,
    STATUS_LEADER,
    SeedFrame,
)
from repro.core.seedbits import SeedBitStream

Vertex = Hashable

#: Process-wide memo of bulk-decoded cohort schedules, keyed by everything
#: the decode is a function of: ``(seed, start_cursor, kappa,
#: participant_bits, b_width, b_modulus, rounds)``.  A SeedBitStream is a
#: pure function of its seed and kappa, so equal keys decode to equal
#: schedules -- repeated workloads (benchmark repeats, suite trials sharing a
#: master seed) skip the pool parse entirely.  Bounded FIFO like the
#: scheduler delta cache: inserts past the cap evict the oldest entry
#: (through :func:`~repro.caches.bounded_put`, safe across threads).
_DECODE_CACHE: Dict[tuple, List[Tuple[int, int]]] = {}
_DECODE_CACHE_MAXSIZE = 4096


class _SeedCohort:
    """One ``(seed, cursor)`` cohort of a body's sending members.

    Members are grouped at body start by the exact state of their seed
    streams; within one body they stay in lockstep (identical shared draws
    every round), so the cohort carries everything a round needs:

    * ``active`` -- the body's remaining shared decisions, bulk-decoded in
      one pass over a shadow stream at build time as the sparse sorted list
      of ``(served round, b)`` participant rounds.  Every cohort is decoded,
      including two that share a seed at different cursors: if they converge
      to the same cursor mid-body they decode the same decisions from there
      on, exactly as per-member stepping draws them.

    Member streams are not touched during the body.  At flush time the
    driver reads the number of participant rounds before the elapsed count
    off ``active`` (one bisection), derives the bits the body consumed from
    it, and applies one bulk :meth:`~repro.core.seedbits.SeedBitStream.skip`
    per member, which is what keeps every future draw byte-identical to
    per-member stepping.
    """

    __slots__ = ("seed", "start_cursor", "members", "active")

    def __init__(self, seed: int, start_cursor: int) -> None:
        self.seed = seed
        self.start_cursor = start_cursor
        self.members: List[LocalBroadcastProcess] = []
        self.active: Optional[List[Tuple[int, int]]] = None

    def bulk_decode(self, params: LBParams, rounds: int) -> None:
        """Decode this body's remaining shared decisions into ``active``.

        One pass over a *shadow* stream (same seed, skipped to the cohort's
        cursor -- :class:`SeedBitStream` is a pure function of both), so the
        members' own streams stay untouched until flush.  The result is the
        sparse ``(round, b)`` list of participant rounds -- with
        participation probability ``2^-participant_bits`` most rounds are
        absent, so the driver's schedule inversion touches a handful of
        entries instead of every (cohort, round) pair.  Every round consumes
        ``participant_bits`` and a participant round ``b_selection_bits``
        more, so the list also fixes the cursor after any prefix of the body
        (see :meth:`LocalBroadcastBatchDriver.flush_kernel_state`).  Because
        the whole decode is a pure function of ``(seed, cursor, params,
        rounds)``, results are memoized process-wide in :data:`_DECODE_CACHE`.
        """
        key = (
            self.seed,
            self.start_cursor,
            params.kappa,
            params.participant_bits,
            params.b_selection_bits,
            params.log_delta,
            rounds,
        )
        active = _DECODE_CACHE.get(key)
        if active is not None:
            self.active = active
            return
        shadow = SeedBitStream(self.seed, params.kappa)
        shadow.skip(self.start_cursor)
        participant_bits = params.participant_bits
        b_modulus = params.log_delta
        b_width = params.b_selection_bits
        active = []
        # One bulk RNG read covers the worst case (every round participates);
        # sequential consume_int calls concatenate MSB-first, so parsing the
        # pool with a descending bit pointer yields exactly the per-round
        # consume_all_zero / consume_uniform_index values.  Over-reading past
        # what the rounds actually use is harmless: the shadow is discarded
        # and extension blocks are a pure function of the seed.
        pool_bits = rounds * (participant_bits + b_width)
        pool = shadow.consume_int(pool_bits)
        pos = pool_bits
        p_mask = (1 << participant_bits) - 1
        b_mask = (1 << b_width) - 1
        for served in range(rounds):
            pos -= participant_bits
            if (pool >> pos) & p_mask == 0:
                pos -= b_width
                b = ((pool >> pos) & b_mask) % b_modulus + 1
                active.append((served, b))
        self.active = active
        bounded_put(_DECODE_CACHE, key, active, _DECODE_CACHE_MAXSIZE)

    def draw_coins(self, sending: Dict[int, List[tuple]], rounds: int) -> None:
        """Draw every member's private coins for the decoded participant
        rounds among the first ``rounds`` served ones, up front.

        In a participant round with selection ``b`` a member flips up to
        ``b`` coins from its own RNG, stopping at the first 1, and transmits
        iff all ``b`` are 0 (probability ``2^-b``) -- the per-process draw
        order, since nothing else draws from a sender's RNG during a body.
        Each round a member transmits in gets its ``(vertex, frame, member)``
        appended to ``sending[served]``, in cohort member order; the rounds
        in between are coin-only, and the engine may skip them.  ``rounds``
        never reaches past the run's last round, so every coin drawn is
        spent by the run boundary and no RNG state needs restoring there.
        """
        active = self.active
        drawn = active[: bisect_left(active, (rounds,))]
        if not drawn:
            return
        for member in self.members:
            rand = member.ctx.rng.random
            sent = (member.vertex, DataFrame(message=member._current_message), member)
            for served, b in drawn:
                for _ in range(b):
                    if rand() >= 0.5:
                        break
                else:
                    sending.setdefault(served, []).append(sent)


class SeedAgreementCohort:
    """One phase's embedded SeedAlg subroutines, stepped as a unit.

    All subroutines are created at the same phase boundary and advance one
    local round per preamble round, so their round-position arithmetic is
    identical; the cohort computes it once and dispatches only to members
    with per-round work: actives at seed-phase starts (leader election),
    leaders (the broadcast draw), and phase-end bookkeeping.  Inactive
    members draw nothing in the per-process path, so skipping their dispatch
    entirely preserves RNG draw order.  Every piece of per-member work is the
    member's own method (``_begin_phase``, ``_leader_frame``, ``_commit``,
    ``_end_phase``), so there is one implementation of each SeedAlg decision.

    A leader draws nothing else until its phase ends, so its broadcast coins
    for the rest of the phase are drawn right after the election
    (:meth:`_draw_leader_coins`), never past the preamble's last offset or
    the run's last round; the offsets in which one fires are the only leader
    rounds that may not be skipped.
    """

    __slots__ = (
        "_sp",
        "_by_vertex",
        "_last_offset",
        "_actives",
        "_leaders",
        "_drawn_until",
        "_sending",
        "_firing",
    )

    def __init__(
        self,
        seed_params: SeedParams,
        members: List[LocalBroadcastProcess],
        by_vertex: Dict[Vertex, LocalBroadcastProcess],
        preamble_rounds: int,
    ) -> None:
        self._sp = seed_params
        self._by_vertex = by_vertex
        self._last_offset = min(preamble_rounds, seed_params.total_rounds)
        self._actives: List[LocalBroadcastProcess] = list(members)
        self._leaders: List[LocalBroadcastProcess] = []
        # The last offset whose leader coins are drawn; offset -> the
        # (vertex, frame) pairs transmitted in it, and its sorted keys.
        self._drawn_until = 0
        self._sending: Dict[int, List[Tuple[Vertex, SeedFrame]]] = {}
        self._firing: List[int] = []

    def transmit_round(
        self,
        offset: int,
        global_round: int,
        out: Dict[Vertex, Any],
        run_end: Optional[int],
    ) -> None:
        """The cohort's transmissions for preamble offset ``offset`` (1-based);
        ``run_end`` is the run's last global round (``None``: unbounded)."""
        sp = self._sp
        if offset > sp.total_rounds:
            # A preamble longer than the subroutine (never produced by
            # derive()): stepped-past subroutines stay silent.
            return
        phase, within = divmod(offset - 1, sp.phase_length)
        phase += 1
        within += 1
        if within == 1:
            # The phase-start election, in member (and hence RNG) order; only
            # still-active members draw, and the draw sorts each into this
            # phase's leaders or the actives that listen.
            actives: List[LocalBroadcastProcess] = []
            leaders = self._leaders = []
            for member in self._actives:
                sub = member._seed_subroutine
                if sub._status != STATUS_ACTIVE:
                    continue
                sub._begin_phase(phase, global_round)
                (leaders if sub._status == STATUS_LEADER else actives).append(member)
            self._actives = actives
            self._drawn_until = offset - 1
        if self._leaders:
            if offset > self._drawn_until:
                last = min(offset - within + sp.phase_length, self._last_offset)
                if run_end is not None:
                    last = min(last, offset + run_end - global_round)
                self._draw_leader_coins(offset, last)
            for vertex, frame in self._sending.get(offset, ()):
                out[vertex] = frame

    def _draw_leader_coins(self, offset: int, last: int) -> None:
        """Draw each leader's broadcast coins for offsets ``offset..last``
        through its ``_leader_frame``, one draw per offset, in leader order."""
        sending: Dict[int, List[Tuple[Vertex, SeedFrame]]] = {}
        for member in self._leaders:
            sub = member._seed_subroutine
            for at in range(offset, last + 1):
                frame = sub._leader_frame()
                if frame is not None:
                    sending.setdefault(at, []).append((member.vertex, frame))
        self._drawn_until = last
        self._sending = sending
        self._firing = sorted(sending)

    def next_busy_offset(self, offset: int) -> Optional[int]:
        """The first preamble offset ``>= offset`` (1-based) the cohort may
        act in, or ``None`` when it stays silent for the rest of the preamble.

        With leaders, the next offset in which a drawn coin fires, else the
        phase's last round, whose bookkeeping retires them (``offset`` when
        its coins are not drawn yet: a run resumed mid-phase).  Without one,
        a seed-phase start with actives left elects now, and otherwise the
        actives only listen until the phase's last round, whose bookkeeping
        (the final phase's default decisions) runs stepped.  With neither,
        nothing draws or decides again this preamble.
        """
        sp = self._sp
        within = (offset - 1) % sp.phase_length + 1
        if self._leaders:
            if offset > self._drawn_until:
                return offset
            firing = self._firing
            i = bisect_left(firing, offset)
            return firing[i] if i < len(firing) else offset - within + sp.phase_length
        if offset > sp.total_rounds or not any(
            member._seed_subroutine._status == STATUS_ACTIVE for member in self._actives
        ):
            return None
        if within == 1:
            return offset
        return offset - within + sp.phase_length

    def receive_round(
        self, offset: int, global_round: int, receptions: Dict[Vertex, Any]
    ) -> None:
        """The cohort's reception handling and phase-end bookkeeping."""
        sp = self._sp
        if offset > sp.total_rounds:
            return
        phase, within = divmod(offset - 1, sp.phase_length)
        phase += 1
        within += 1
        if receptions:
            get_member = self._by_vertex.get
            for vertex, frame in receptions.items():
                if type(frame) is not SeedFrame:
                    continue
                member = get_member(vertex)
                if member is None:
                    continue
                sub = member._seed_subroutine
                if sub is not None and sub._status == STATUS_ACTIVE:
                    sub._commit(frame.owner, frame.seed, global_round)
                    sub._status = STATUS_INACTIVE
        if within == sp.phase_length:
            # _end_phase is a no-op for a member that is neither this phase's
            # leader nor active in the final phase.
            ending = self._leaders
            if phase == sp.num_phases:
                ending = ending + self._actives
            for member in ending:
                member._seed_subroutine._end_phase(phase, global_round)
            self._leaders = []
            self._sending = {}
            self._firing = []


class LocalBroadcastBatchDriver:
    """Batch group driver for a cohort of :class:`LocalBroadcastProcess`.

    Registered by the :class:`~repro.simulation.engine.Simulator` for every
    population of plain ``LocalBroadcastProcess`` automata sharing one
    parameter set and reuse factor (see ``batch_group_key``).  Per round it
    partitions the cohort into *active* members -- sending-state nodes in
    body rounds, live SeedAlg subroutines in preamble rounds -- and *dormant*
    ones, dispatching per-member work only to the active set.  Phase-boundary
    work (state transitions, subroutine creation, stream setup) reuses the
    members' own methods, so the driver cannot drift from the per-process
    semantics there.  It also reports the next round it may act in
    (:meth:`next_busy_round`): inside a body the next round a cohort
    participates in, inside a preamble the next round SeedAlg draws or
    decides in, so the engine can skip the silent rounds in between
    (:meth:`skip_rounds`).
    """

    __slots__ = (
        "_params",
        "_members",
        "_by_vertex",
        "_cohort",
        "_senders",
        "_cohorts",
        "_body_rounds_elapsed",
        "_body_rounds_built",
        "_round_sending",
        "_busy_served",
        "_round",
        "_run_end",
    )

    def __init__(self, params: LBParams) -> None:
        self._params = params
        self._members: List[LocalBroadcastProcess] = []
        self._by_vertex: Dict[Vertex, LocalBroadcastProcess] = {}
        self._cohort: Optional[SeedAgreementCohort] = None
        self._senders: List[LocalBroadcastProcess] = []
        # Body-round state: seed cohorts grouped at body start, flushed at
        # phase ends and run boundaries (see _body_transmit_kernel).
        self._cohorts: Optional[List[_SeedCohort]] = None
        self._round_sending: Dict[int, List[tuple]] = {}
        self._busy_served: List[int] = []
        self._body_rounds_elapsed = 0
        self._body_rounds_built = 0
        # The round being stepped, and the current run's last round (None
        # before begin_run): nothing is drawn ahead past it.
        self._round = 0
        self._run_end: Optional[int] = None

    # ------------------------------------------------------------------
    # registration (engine-facing)
    # ------------------------------------------------------------------
    def add_member(self, process: LocalBroadcastProcess) -> None:
        self._members.append(process)
        self._by_vertex[process.vertex] = process

    @property
    def members(self) -> Tuple[LocalBroadcastProcess, ...]:
        return tuple(self._members)

    # ------------------------------------------------------------------
    # round stepping (engine-facing)
    # ------------------------------------------------------------------
    def transmit_round(self, round_number: int, out: Dict[Vertex, Any]) -> None:
        """Add the cohort's transmissions for ``round_number`` to ``out``."""
        params = self._params
        self._round = round_number
        phase_m1, index = divmod(round_number - 1, params.phase_length)
        offset, in_preamble, _, body_start, _ = params.phase_offset_table[index]

        if offset == 1:
            self._begin_phase_all(phase_m1 + 1)

        if in_preamble:
            if self._cohort is not None:
                self._cohort.transmit_round(offset, round_number, out, self._run_end)
            return

        if body_start:
            self._begin_body_all()
        # Rounds left in this body (including the current one) bound the
        # bulk decode when cohorts are (re)built this round.
        self._body_transmit_kernel(out, params.phase_length - index)

    def receive_round(
        self, round_number: int, receptions: Dict[Vertex, Any]
    ) -> None:
        """Consume the round's receptions and run end-of-round bookkeeping."""
        params = self._params
        index = (round_number - 1) % params.phase_length
        offset, in_preamble, preamble_end, _, phase_end = params.phase_offset_table[index]

        if in_preamble:
            if self._cohort is not None:
                self._cohort.receive_round(offset, round_number, receptions)
                if preamble_end:
                    self._finish_preamble_all(offset)
            return

        if receptions:
            by_vertex = self._by_vertex
            for vertex, frame in receptions.items():
                if isinstance(frame, DataFrame):
                    member = by_vertex.get(vertex)
                    if member is not None:
                        member._handle_data(frame.message, round_number)

        if phase_end:
            if self._cohorts is not None:
                self.flush_kernel_state()
            for member in self._senders:
                member._end_phase(round_number)

    def next_busy_round(self, round_number: int) -> int:
        """The first round ``>= round_number`` this cohort may act in.

        Live cohorts exist only inside a body, between the round that built
        them and the phase end (or run boundary) that flushes them.  There
        the answer is the next served round in which a member's drawn coins
        let it transmit, and never later than the phase-end round, which
        acks.  Past a phase's first round, a preamble
        answers from its SeedAlg cohort
        (:meth:`SeedAgreementCohort.next_busy_offset`): with none left to
        act, the preamble-end round, and with no SeedAlg cohort at all, the
        body start.  Phase starts and a body whose cohorts are not built yet
        answer ``round_number``.
        """
        if self._cohorts is None:
            params = self._params
            offset = (round_number - 1) % params.phase_length + 1
            if offset == 1 or offset > params.ts:
                return round_number
            if self._cohort is None:
                return round_number - offset + params.ts + 1
            busy = self._cohort.next_busy_offset(offset)
            return round_number - offset + (params.ts if busy is None else min(busy, params.ts))
        served = self._body_rounds_elapsed
        busy = self._busy_served
        i = bisect_left(busy, served)
        # The phase-end round is the last served round of this build.
        target = busy[i] if i < len(busy) else self._body_rounds_built - 1
        return round_number + target - served

    def begin_run(self, last_round: int) -> None:
        """The simulator runs up to ``last_round`` before the next
        :meth:`flush_kernel_state`: private coins are drawn ahead no further,
        so each member's RNG is exact at every run boundary."""
        self._run_end = last_round

    def skip_rounds(self, count: int) -> None:
        """Advance past ``count`` silent rounds.  In a body (nobody
        transmits) their seed bits and statistics are settled by
        :meth:`flush_kernel_state` from the elapsed count, and their coins
        were drawn when the cohorts were built; in a preamble the leaders'
        coins were drawn at their election."""
        if self._cohorts is not None:
            self._body_rounds_elapsed += count

    # ------------------------------------------------------------------
    # phase boundaries (delegate to the members' own methods)
    # ------------------------------------------------------------------
    def _begin_phase_all(self, phase: int) -> None:
        if self._cohorts is not None:
            # Defensive: a phase boundary must never see live cohorts
            # (receive_round flushed them at phase end, and the engine
            # flushes at run boundaries), but _begin_phase replaces seed
            # streams, so flush before any member state moves.
            self.flush_kernel_state()
        for member in self._members:
            member._begin_phase(phase)
        live = [m for m in self._members if m._seed_subroutine is not None]
        params = self._params
        self._cohort = (
            SeedAgreementCohort(params.seed_params, live, self._by_vertex, params.ts)
            if live
            else None
        )

    def _finish_preamble_all(self, local_rounds: int) -> None:
        for member in self._members:
            sub = member._seed_subroutine
            if sub is not None:
                member._finish_preamble()
                sub._local_round = local_rounds

    def _begin_body_all(self) -> None:
        senders = []
        for member in self._members:
            member._begin_body()
            if member._state == STATE_SENDING and member._current_message is not None:
                senders.append(member)
        self._senders = senders

    # ------------------------------------------------------------------
    # body rounds (the hot path)
    # ------------------------------------------------------------------
    def _build_kernel_cohorts(self, rounds_remaining: int) -> None:
        """Group the body's senders into ``(seed, cursor)`` cohorts,
        bulk-decode each cohort's shared decisions for the rest of the body
        and draw its members' private coins up to the run's last round
        (:meth:`_SeedCohort.draw_coins`).
        """
        cohorts: Dict[Tuple[Any, int], _SeedCohort] = {}
        for member in self._senders:
            stream = member._seed_stream
            key = (stream._seed, stream._cursor)
            cohort = cohorts.get(key)
            if cohort is None:
                cohort = cohorts[key] = _SeedCohort(*key)
            cohort.members.append(member)
        built = list(cohorts.values())
        coin_rounds = rounds_remaining
        if self._run_end is not None:
            coin_rounds = min(coin_rounds, self._run_end - self._round + 1)
        # Served round -> the members that transmit in it.  Most body rounds
        # have none, so they are absent: the transmit hot loop does one
        # lookup, and the sorted keys are the rounds next_busy_round may not
        # skip.
        sending: Dict[int, List[tuple]] = {}
        params = self._params
        for cohort in built:
            cohort.bulk_decode(params, rounds_remaining)
            cohort.draw_coins(sending, coin_rounds)
        self._cohorts = built
        self._round_sending = sending
        self._busy_served = sorted(sending)
        self._body_rounds_elapsed = 0
        self._body_rounds_built = rounds_remaining

    def _body_transmit_kernel(self, out: Dict[Vertex, Any], rounds_remaining: int) -> None:
        """One body round served from the cohort buffers.

        The shared decisions and the private coins were all drawn when the
        cohorts were built, so a round is one lookup of the members that
        transmit in it.  Member streams and statistics are settled in bulk
        by :meth:`flush_kernel_state`.
        """
        if self._cohorts is None:
            # (Re)build mid-body after a run-boundary flush: the sender set
            # is fixed for the whole body, so regrouping is lossless.
            self._build_kernel_cohorts(rounds_remaining)
        served = self._body_rounds_elapsed
        self._body_rounds_elapsed = served + 1
        for vertex, frame, member in self._round_sending.get(served, ()):
            member.stats_broadcast_rounds += 1
            out[vertex] = frame

    def flush_kernel_state(self) -> None:
        """Settle deferred cohort state (idempotent).

        Applies one bulk cursor :meth:`~repro.core.seedbits.SeedBitStream.skip`
        per member (every future draw then matches per-member stepping
        exactly) and credits the per-member statistics per-process stepping
        maintains per round.  The members' streams were never touched during
        the body (the decode read a shadow stream).  A cohort's first
        ``elapsed`` rounds consumed ``participant_bits`` each, plus
        ``b_selection_bits`` for each of its participant rounds among them,
        whose count is one bisection of the sorted ``active`` list.  Called
        at phase ends, before regrouping, and by the engine at run
        boundaries, so partially-run bodies resume correctly.
        """
        cohorts = self._cohorts
        if cohorts is None:
            return
        elapsed = self._body_rounds_elapsed
        base_bits = elapsed * self._params.participant_bits
        b_width = self._params.b_selection_bits
        for cohort in cohorts:
            participant_rounds = bisect_left(cohort.active, (elapsed,))
            bits = base_bits + participant_rounds * b_width
            end_cursor = cohort.start_cursor + bits
            for member in cohort.members:
                if bits:
                    member._seed_stream.skip(bits)
                member.stats_body_rounds_sending += elapsed
                member.stats_participant_rounds += participant_rounds
                if end_cursor > member.stats_max_bits_consumed:
                    member.stats_max_bits_consumed = end_cursor
        self._cohorts = None
        self._round_sending = {}
        self._busy_served = []
        self._body_rounds_elapsed = 0
