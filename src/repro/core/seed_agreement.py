"""The SeedAlg seed agreement algorithm (Section 3.2).

``SeedAlg(ε1)`` runs for ``log Δ`` phases of ``c4 · log²(1/ε1)`` rounds each
and performs aggressive local leader elections:

* every process starts *active* with a uniformly random initial seed from the
  seed domain ``S``;
* at the start of phase ``h`` an active process becomes a *leader* with
  probability ``2^{-(log Δ − h + 1)}`` (so ``1/Δ, 2/Δ, …, 1/4, 1/2`` across
  the phases);
* a new leader immediately outputs ``decide(own id, own seed)`` and then
  broadcasts its ``(id, seed)`` pair with probability ``1/log(1/ε1)`` in each
  round of the phase, becoming *inactive* at the phase's end;
* an active non-leader listens for the whole phase; on receiving some
  ``(j, s)`` it outputs ``decide(j, s)`` and becomes inactive;
* a process that survives all phases still active outputs
  ``decide(own id, own seed)`` by default.

The class below implements this as a :class:`~repro.simulation.process.Process`
so it can be run standalone by the simulator, and it also exposes the
``step_transmit`` / ``step_receive`` pair used by ``LBAlg`` to embed it as the
preamble subroutine of every local broadcast phase (the subroutine keeps its
own local round counter, so where it sits in global time is irrelevant).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.core.events import DecideOutput
from repro.core.params import SeedParams, _election_probability_table
from repro.simulation.process import Process, ProcessContext

STATUS_ACTIVE = "active"
STATUS_LEADER = "leader"
STATUS_INACTIVE = "inactive"


@dataclass(frozen=True, slots=True)
class SeedFrame:
    """The ``(id, seed)`` pair a leader broadcasts during its phase."""

    owner: Hashable
    seed: int


class SeedAgreementProcess(Process):
    """One node's automaton for ``SeedAlg(ε1)``.

    Parameters
    ----------
    ctx:
        The process context (vertex/id, degree bounds, private RNG).
    params:
        The derived :class:`~repro.core.params.SeedParams`.
    emit_decides:
        When true (the default for standalone runs) the process emits a
        :class:`~repro.core.events.DecideOutput` into the trace when it
        commits.  ``LBAlg`` sets this to false for its embedded preambles so
        that local broadcast traces contain only local broadcast events.
    initial_seed:
        Normally drawn uniformly from ``{0,1}^κ`` using the process RNG; tests
        may fix it.
    """

    __slots__ = (
        "params",
        "_emit_decides",
        "_initial_seed",
        "_status",
        "_committed",
        "_local_round",
        "_current_phase",
        "_leader_this_phase",
        "_election_probs",
        "_own_frame",
    )

    def __init__(
        self,
        ctx: ProcessContext,
        params: SeedParams,
        emit_decides: bool = True,
        initial_seed: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.params = params
        self._emit_decides = emit_decides
        if initial_seed is None:
            initial_seed = ctx.rng.getrandbits(params.seed_domain_bits)
        self._initial_seed = initial_seed
        self._status = STATUS_ACTIVE
        self._committed: Optional[Tuple[Hashable, int]] = None
        self._local_round = 0
        self._current_phase = 0
        self._leader_this_phase = False
        # Hot-path caches: the per-phase election probabilities are a pure
        # function of the params, and the broadcast frame is a frozen
        # value-equal pair fixed for this subroutine's lifetime -- reusing
        # one instance is observationally identical to fresh construction.
        self._election_probs = _election_probability_table(params.num_phases)
        self._own_frame: Optional[SeedFrame] = None

    def reinit(self) -> None:
        """Reset to a freshly-constructed state for a new preamble.

        Performs exactly the per-construction work of ``__init__`` that is
        not a pure function of the (unchanged) context and params: one
        ``getrandbits`` draw for the new initial seed, plus clearing all
        phase state.  ``LBAlg`` pools one subroutine instance per member and
        reinitializes it at each non-reuse phase boundary; because the child
        context shares the member's RNG and never draws at construction,
        reinit-in-place makes the same RNG draws and reaches the same state
        as building a new instance, at a fraction of the allocation cost.
        """
        self._initial_seed = self.ctx.rng.getrandbits(self.params.seed_domain_bits)
        self._status = STATUS_ACTIVE
        self._committed = None
        self._local_round = 0
        self._current_phase = 0
        self._leader_this_phase = False
        self._own_frame = None
        del self._pending_outputs[:]

    # ------------------------------------------------------------------
    # public state
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """One of ``"active"``, ``"leader"``, ``"inactive"``."""
        return self._status

    @property
    def initial_seed(self) -> int:
        return self._initial_seed

    @property
    def has_committed(self) -> bool:
        return self._committed is not None

    @property
    def committed_owner(self) -> Optional[Hashable]:
        return self._committed[0] if self._committed else None

    @property
    def committed_seed(self) -> Optional[int]:
        return self._committed[1] if self._committed else None

    @property
    def is_complete(self) -> bool:
        """True once every phase has been executed."""
        return self._local_round >= self.params.total_rounds

    @property
    def local_round(self) -> int:
        """How many subroutine rounds have been executed so far."""
        return self._local_round

    # ------------------------------------------------------------------
    # subroutine interface (used both by the simulator hooks and by LBAlg)
    # ------------------------------------------------------------------
    def step_transmit(self, global_round: int) -> Optional[SeedFrame]:
        """Advance one subroutine round and return the frame to transmit (if any)."""
        self._local_round += 1
        if self._local_round > self.params.total_rounds:
            # The subroutine has finished; stay silent if stepped further.
            return None
        phase, within = self.params.phase_of_round(self._local_round)

        if within == 1:
            self._begin_phase(phase, global_round)

        if self._status == STATUS_LEADER and self._leader_this_phase:
            return self._leader_frame()
        return None

    def step_receive(self, global_round: int, frame: Optional[Any]) -> None:
        """Handle the reception outcome of the current subroutine round."""
        if self._local_round > self.params.total_rounds:
            return
        if not isinstance(frame, SeedFrame):
            received = None
        else:
            received = frame
        if self._status == STATUS_ACTIVE and received is not None:
            self._commit(received.owner, received.seed, global_round)
            self._status = STATUS_INACTIVE

        phase, within = self.params.phase_of_round(self._local_round)
        if within == self.params.phase_length:
            self._end_phase(phase, global_round)

    # ------------------------------------------------------------------
    # Process hooks for standalone execution
    # ------------------------------------------------------------------
    def transmit(self, round_number: int) -> Optional[SeedFrame]:
        return self.step_transmit(round_number)

    def on_receive(self, round_number: int, frame: Optional[Any]) -> None:
        self.step_receive(round_number, frame)

    # ------------------------------------------------------------------
    # phase mechanics
    # ------------------------------------------------------------------
    def _begin_phase(self, phase: int, global_round: int) -> None:
        self._current_phase = phase
        self._leader_this_phase = False
        if self._status != STATUS_ACTIVE:
            return
        probability = self._election_probs[phase - 1]
        if self.ctx.rng.random() < probability:
            self._status = STATUS_LEADER
            self._leader_this_phase = True
            self._commit(self.process_id, self._initial_seed, global_round)

    def _leader_frame(self) -> Optional[SeedFrame]:
        """A current leader's per-round broadcast draw: its ``(id, seed)``
        frame (cached; frozen and value-equal) with probability
        ``1/log(1/ε1)``, else ``None``."""
        if self.ctx.rng.random() >= self.params.leader_broadcast_probability:
            return None
        frame = self._own_frame
        if frame is None:
            frame = self._own_frame = SeedFrame(
                owner=self.process_id, seed=self._initial_seed
            )
        return frame

    def _end_phase(self, phase: int, global_round: int) -> None:
        if self._leader_this_phase:
            self._status = STATUS_INACTIVE
            self._leader_this_phase = False
        if phase == self.params.num_phases and self._status == STATUS_ACTIVE:
            # Default decision at the end of the final phase.
            self._commit(self.process_id, self._initial_seed, global_round)
            self._status = STATUS_INACTIVE

    def _commit(self, owner: Hashable, seed: int, global_round: int) -> None:
        if self._committed is not None:
            return
        self._committed = (owner, seed)
        if self._emit_decides:
            self.emit(
                DecideOutput(
                    vertex=self.vertex,
                    owner=owner,
                    seed=seed,
                    round_number=global_round,
                )
            )

    def __repr__(self) -> str:
        return (
            f"SeedAgreementProcess(vertex={self.vertex!r}, status={self._status}, "
            f"round={self._local_round}/{self.params.total_rounds})"
        )
