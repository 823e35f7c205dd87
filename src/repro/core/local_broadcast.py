"""The LBAlg local broadcast algorithm (Section 4.2).

``LBAlg(ε1)`` partitions rounds into phases of ``Ts + Tprog`` rounds:

* the first ``Ts`` rounds of every phase (the *preamble*) run ``SeedAlg(ε2)``
  as a subroutine -- every node participates regardless of its state -- and
  each node commits to a seed ``s`` from ``S_κ = {0,1}^κ``;
* the remaining ``Tprog`` rounds (the *body*) are where data flows.  A node is
  either in the *receiving* state (just listen; output ``recv(m')`` for every
  new message heard) or the *sending* state.  A sending node, in each body
  round:

  1. consumes ``⌈log(r² log(1/ε2))⌉`` bits from its committed seed; it becomes
     a *participant* iff all of them are zero (probability
     ``≈ 1/(r² log(1/ε2))``) -- all nodes sharing a seed make the same call;
  2. a non-participant listens;
  3. a participant consumes ``log log Δ`` more shared bits to pick
     ``b ∈ [log Δ]``, then flips ``b`` *private* coins and broadcasts its
     message iff they are all zero (probability ``2^{-b}``).

A node that received a ``bcast(m)`` input switches to the sending state at the
next phase boundary, stays there for ``Tack`` full phases, outputs ``ack(m)``
at the end of the last round of the last such phase, and returns to receiving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Set, Tuple

from repro.core.events import AckOutput, RecvOutput
from repro.core.messages import Message
from repro.core.params import LBParams
from repro.core.seed_agreement import SeedAgreementProcess, SeedFrame
from repro.core.seedbits import SeedBitStream
from repro.simulation.process import Process, ProcessContext

STATE_RECEIVING = "receiving"
STATE_SENDING = "sending"


@dataclass(frozen=True, slots=True)
class DataFrame:
    """The frame a sending node broadcasts during body rounds."""

    message: Message


class LocalBroadcastProcess(Process):
    """One node's automaton for ``LBAlg(ε1)``.

    Parameters
    ----------
    ctx:
        The process context (vertex/id, degree bounds, private RNG).
    params:
        The derived :class:`~repro.core.params.LBParams`.
    seed_reuse_phases:
        How many consecutive phases share one seed-agreement run.  The default
        of 1 is the algorithm as written in Section 4.2 (a fresh SeedAlg
        preamble every phase).  Values above 1 implement the paper's remark
        that "in some settings, it might make sense to run the agreement
        protocol less frequently, and generate seeds of sufficient length to
        satisfy the demands of multiple phases": phases whose index is not a
        multiple of the reuse factor skip the preamble (the node just listens
        through those rounds) and keep drawing shared bits from the previously
        committed seed.  Worst-case bounds are unchanged; the average cost of
        the preamble drops by the reuse factor (ablation experiment E12).

    Notes
    -----
    Populations of plain ``LocalBroadcastProcess`` automata sharing one
    parameter set are *batchable*: the simulator steps them through a
    :class:`~repro.core.seed_groups.LocalBroadcastBatchDriver` that computes
    each body round's shared decision once per seed cohort and skips dispatch
    to dormant members entirely, with byte-identical traces (see
    :meth:`batch_group_key`).  Subclasses are stepped per-process.
    """

    __slots__ = (
        "params",
        "seed_reuse_phases",
        "_state",
        "_pending_message",
        "_current_message",
        "_sending_phases_remaining",
        "_received_ids",
        "_seed_subroutine",
        "_sub_pool",
        "_seed_stream",
        "_phase_seed",
        "stats_participant_rounds",
        "stats_broadcast_rounds",
        "stats_body_rounds_sending",
        "stats_max_bits_consumed",
    )

    def __init__(
        self, ctx: ProcessContext, params: LBParams, seed_reuse_phases: int = 1
    ) -> None:
        super().__init__(ctx)
        if (
            isinstance(seed_reuse_phases, bool)
            or not isinstance(seed_reuse_phases, int)
            or seed_reuse_phases < 1
        ):
            raise ValueError(
                f"seed_reuse_phases must be an integer of at least 1, got {seed_reuse_phases!r}"
            )
        self.params = params
        self.seed_reuse_phases = seed_reuse_phases
        self._state = STATE_RECEIVING
        self._pending_message: Optional[Message] = None
        self._current_message: Optional[Message] = None
        self._sending_phases_remaining = 0
        self._received_ids: Set[Tuple[Hashable, int]] = set()
        self._seed_subroutine: Optional[SeedAgreementProcess] = None
        self._sub_pool: Optional[SeedAgreementProcess] = None
        self._seed_stream: Optional[SeedBitStream] = None
        self._phase_seed: Optional[Tuple[Hashable, int]] = None
        # Statistics exposed for experiments (E5, E10).
        self.stats_participant_rounds = 0
        self.stats_broadcast_rounds = 0
        self.stats_body_rounds_sending = 0
        self.stats_max_bits_consumed = 0

    # ------------------------------------------------------------------
    # public state (read by tests and experiments)
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"receiving"`` or ``"sending"``."""
        return self._state

    @property
    def current_message(self) -> Optional[Message]:
        """The message being broadcast while in the sending state."""
        return self._current_message

    @property
    def pending_message(self) -> Optional[Message]:
        """A message waiting for the next phase boundary."""
        return self._pending_message

    @property
    def sending_phases_remaining(self) -> int:
        return self._sending_phases_remaining

    @property
    def committed_phase_seed(self) -> Optional[Tuple[Hashable, int]]:
        """The ``(owner, seed)`` committed in the current phase's preamble."""
        return self._phase_seed

    # ------------------------------------------------------------------
    # batch stepping
    # ------------------------------------------------------------------
    def batch_group_key(self) -> Optional[Tuple[str, Any, int]]:
        """Cohort key for the simulator's batch-stepping protocol.

        Only exact ``LocalBroadcastProcess`` instances are batchable -- a
        subclass may override any hook, and the driver would silently bypass
        the override.  Processes sharing parameters and reuse factor land in
        one cohort regardless of their private contexts (the driver never
        touches anything but the member's own state and RNG).
        """
        if type(self) is not LocalBroadcastProcess:
            return None
        return ("lbalg", self.params, self.seed_reuse_phases)

    def make_batch_driver(self):
        from repro.core.seed_groups import LocalBroadcastBatchDriver

        return LocalBroadcastBatchDriver(self.params)

    # ------------------------------------------------------------------
    # environment input
    # ------------------------------------------------------------------
    def on_input(self, round_number: int, inp: Any) -> None:
        if not isinstance(inp, Message):
            raise TypeError(
                f"LBAlg only accepts Message inputs from the environment, got {type(inp).__name__}"
            )
        if self._pending_message is not None or self._current_message is not None:
            # A well-formed environment never does this (it must wait for the
            # ack); fail loudly rather than silently dropping a message.
            raise RuntimeError(
                f"vertex {self.vertex!r} received a bcast input while a previous message "
                "is still outstanding; the environment violates well-formedness"
            )
        self._pending_message = inp

    # ------------------------------------------------------------------
    # round processing
    # ------------------------------------------------------------------
    def transmit(self, round_number: int) -> Optional[Any]:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        params = self.params
        phase_m1, index = divmod(round_number - 1, params.phase_length)
        offset, in_preamble, _, body_start, _ = params.phase_offset_table[index]

        if offset == 1:
            self._begin_phase(phase_m1 + 1)

        if in_preamble:
            if self._seed_subroutine is None:
                # A reused-seed phase: the preamble is idle listening.
                return None
            return self._seed_subroutine.step_transmit(round_number)

        # Body round.
        if body_start:
            self._begin_body()

        if self._state != STATE_SENDING or self._current_message is None:
            return None

        self.stats_body_rounds_sending += 1
        participant = self._seed_stream.consume_all_zero(params.participant_bits)
        if not participant:
            self._note_bits_consumed()
            return None
        self.stats_participant_rounds += 1
        b_index = self._seed_stream.consume_uniform_index(
            params.log_delta, params.b_selection_bits
        )
        self._note_bits_consumed()
        b = b_index + 1
        # b private coins, broadcast iff all zero: probability 2^{-b}.
        if all(self.rng.random() < 0.5 for _ in range(b)):
            self.stats_broadcast_rounds += 1
            return DataFrame(message=self._current_message)
        return None

    def on_receive(self, round_number: int, frame: Optional[Any]) -> None:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        params = self.params
        index = (round_number - 1) % params.phase_length
        _, in_preamble, preamble_end, _, phase_end = params.phase_offset_table[index]

        if in_preamble:
            if self._seed_subroutine is not None:
                self._seed_subroutine.step_receive(round_number, frame)
                if preamble_end:
                    self._finish_preamble()
            return

        if isinstance(frame, DataFrame):
            self._handle_data(frame.message, round_number)

        if phase_end:
            self._end_phase(round_number)

    # ------------------------------------------------------------------
    # phase mechanics
    # ------------------------------------------------------------------
    def _begin_phase(self, phase: int) -> None:
        if self._state == STATE_RECEIVING and self._pending_message is not None:
            self._state = STATE_SENDING
            self._current_message = self._pending_message
            self._pending_message = None
            self._sending_phases_remaining = self.params.tack_phases

        reuse_phase = (phase - 1) % self.seed_reuse_phases != 0 and self._phase_seed is not None
        if reuse_phase:
            # Keep the previously committed seed and keep consuming its bit
            # stream; the preamble rounds of this phase are idle listening.
            self._seed_subroutine = None
            return

        # Fresh SeedAlg subroutine state for this phase, silent in the LB
        # trace.  The instance itself is pooled across phases: reinit() makes
        # exactly the RNG draws of a fresh construction (the child context
        # shares this member's RNG and draws nothing itself), so reuse is
        # byte-identical while skipping an allocation + full __init__ per
        # member per phase.
        sub = self._sub_pool
        if sub is None:
            sub = self._sub_pool = SeedAgreementProcess(
                self.ctx.child(), self.params.seed_params, emit_decides=False
            )
        else:
            sub.reinit()
        self._seed_subroutine = sub
        self._seed_stream = None
        self._phase_seed = None

    def _finish_preamble(self) -> None:
        """Capture the committed seed at the end of the preamble."""
        sub = self._seed_subroutine
        if sub is None:
            return
        if not sub.has_committed:
            # SeedAlg always commits by its final phase; if the preamble was
            # truncated (ts shorter than the subroutine, which derive() never
            # produces) fall back to the node's own initial seed.
            self._phase_seed = (self.process_id, sub.initial_seed)
        else:
            self._phase_seed = (sub.committed_owner, sub.committed_seed)

    def _begin_body(self) -> None:
        if self._seed_stream is not None and self._seed_subroutine is None:
            # Reused-seed phase: keep drawing from the existing stream so the
            # shared choices stay synchronized within the seed group.
            return
        if self._phase_seed is None:
            self._finish_preamble()
        _, seed_value = self._phase_seed
        self._seed_stream = SeedBitStream(seed_value, self.params.kappa)

    def _end_phase(self, round_number: int) -> None:
        if self._state != STATE_SENDING:
            return
        self._sending_phases_remaining -= 1
        if self._sending_phases_remaining <= 0:
            message = self._current_message
            self._current_message = None
            self._state = STATE_RECEIVING
            self._sending_phases_remaining = 0
            if message is not None:
                self.emit(
                    AckOutput(vertex=self.vertex, message=message, round_number=round_number)
                )

    # ------------------------------------------------------------------
    # data handling
    # ------------------------------------------------------------------
    def _handle_data(self, message: Message, round_number: int) -> None:
        if message.message_id in self._received_ids:
            return
        self._received_ids.add(message.message_id)
        self.emit(
            RecvOutput(vertex=self.vertex, message=message, round_number=round_number)
        )

    def _note_bits_consumed(self) -> None:
        if self._seed_stream is not None:
            self.stats_max_bits_consumed = max(
                self.stats_max_bits_consumed, self._seed_stream.bits_consumed
            )

    def __repr__(self) -> str:
        return (
            f"LocalBroadcastProcess(vertex={self.vertex!r}, state={self._state}, "
            f"phases_remaining={self._sending_phases_remaining})"
        )


def make_lb_processes(
    graph,
    params: LBParams,
    rng: random.Random,
    r: Optional[float] = None,
    seed_reuse_phases: int = 1,
):
    """Build one :class:`LocalBroadcastProcess` per vertex of ``graph``.

    A convenience used throughout the examples, tests, and benchmarks: derives
    each process's private RNG from the supplied master RNG so whole runs are
    reproducible from a single seed.  ``seed_reuse_phases`` is forwarded to
    every process (see :class:`LocalBroadcastProcess`).
    """
    delta, delta_prime = graph.degree_bounds()
    processes = {}
    for vertex in sorted(graph.vertices, key=repr):
        ctx = ProcessContext(
            vertex=vertex,
            delta=max(delta, params.delta),
            delta_prime=max(delta_prime, params.delta_prime),
            r=r if r is not None else params.r,
            rng=random.Random(rng.getrandbits(64)),
        )
        processes[vertex] = LocalBroadcastProcess(
            ctx, params, seed_reuse_phases=seed_reuse_phases
        )
    return processes
