"""The process automaton interface.

Section 2 models wireless devices as probabilistic automata, one per graph
vertex.  A process knows its own id, the degree bounds ``Δ`` and ``Δ'``, and
the geographic parameter ``r`` -- but *not* the network size ``n``, the
identity mapping, or the link schedule.  That knowledge boundary is encoded in
:class:`ProcessContext`, which is the only information the simulator hands a
process at construction time.

Concrete algorithms (``SeedAlg``, ``LBAlg``, the baselines) subclass
:class:`Process`: the Section 2 automaton is exactly its inputs, its
transmit decision, its receptions and its outputs, and the simulator drives
them in lock step:

1. :meth:`Process.on_input` for each environment input of the round,
2. :meth:`Process.transmit` -- return a frame to broadcast, or ``None`` to
   listen,
3. :meth:`Process.on_receive` -- the received frame for listeners (``None``
   for silence or collision; transmitters always get ``None`` because a radio
   cannot transmit and receive simultaneously),
4. :meth:`Process.drain_outputs` -- the outputs generated this round.

Whatever lives above the automaton -- the local broadcast environment, or
the abstract MAC layer's clients (:class:`repro.mac.adapter.MacEnvironment`)
-- talks to it only through those inputs and outputs.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Hashable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - only needed for type checkers
    from repro.core.events import Event


@dataclass(slots=True)
class ProcessContext:
    """Everything a process is allowed to know at start-up.

    Attributes
    ----------
    vertex:
        The graph vertex this process is assigned to.  (In the paper the
        process knows its *id*; we use the vertex identifier directly as the
        id, which loses no generality because the id assignment is an
        arbitrary injection.)
    process_id:
        The process id from the id space ``I``; defaults to the vertex.
    delta:
        The reliable degree bound ``Δ`` (on ``|N_G(u) ∪ {u}|``).
    delta_prime:
        The potential degree bound ``Δ'`` (on ``|N_G'(u) ∪ {u}|``).
    r:
        The geographic parameter ``r >= 1``.
    rng:
        A private pseudo-random generator for the process's local coin flips.
    """

    vertex: Hashable
    delta: int
    delta_prime: int
    r: float = 2.0
    process_id: Optional[Hashable] = None
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if self.process_id is None:
            self.process_id = self.vertex
        if self.delta < 1:
            raise ValueError(f"Delta must be at least 1, got {self.delta}")
        if self.delta_prime < self.delta:
            raise ValueError(
                f"Delta' (={self.delta_prime}) cannot be smaller than Delta (={self.delta})"
            )
        if self.r < 1:
            raise ValueError(f"the geographic parameter must satisfy r >= 1, got {self.r}")

    def child(self, **overrides: Any) -> "ProcessContext":
        """A copy of this context for a subroutine automaton.

        By default the child shares everything, including the private RNG --
        a subroutine run by the same physical node draws from the same coin
        sequence (this is what LBAlg's embedded SeedAlg preambles need).
        Pass field overrides (e.g. ``rng=...``) to deviate.
        """
        if not overrides:
            # Plain field copy: ``replace`` re-runs ``__init__`` and
            # ``__post_init__`` validation, which is pure overhead for an
            # already-validated context.  LBAlg creates one child per member
            # per phase, so this sits on the round engine's hot path.
            new = object.__new__(ProcessContext)
            new.vertex = self.vertex
            new.delta = self.delta
            new.delta_prime = self.delta_prime
            new.r = self.r
            new.process_id = self.process_id
            new.rng = self.rng
            return new
        return replace(self, **overrides)


class Process(ABC):
    """Base class for per-vertex algorithm automata."""

    __slots__ = ("ctx", "_pending_outputs")

    def __init__(self, ctx: ProcessContext) -> None:
        self.ctx = ctx
        self._pending_outputs: List["Event"] = []

    # ------------------------------------------------------------------
    # hooks driven by the simulator (override as needed)
    # ------------------------------------------------------------------
    def on_input(self, round_number: int, inp: Any) -> None:
        """Called once per environment input delivered to this process."""

    @abstractmethod
    def transmit(self, round_number: int) -> Optional[Any]:
        """Return the frame to broadcast this round, or ``None`` to listen."""

    def on_receive(self, round_number: int, frame: Optional[Any]) -> None:
        """Called after the reception step.

        ``frame`` is the received frame if exactly one topology neighbor
        transmitted and this process listened; otherwise ``None`` (silence,
        collision, or this process transmitted).  There is no collision
        detection: the three ``None`` cases are indistinguishable.
        """

    # ------------------------------------------------------------------
    # batch stepping protocol (opt-in; see Simulator)
    # ------------------------------------------------------------------
    def batch_group_key(self) -> Optional[Hashable]:
        """A hashable cohort key, or ``None`` if this process cannot be batched.

        Processes returning the same key are stepped together by a *batch
        group driver* (see :meth:`make_batch_driver`) instead of receiving
        individual :meth:`transmit` / :meth:`on_receive` calls each round.
        The contract a batchable process signs up for: the driver must
        reproduce this process's per-round behavior exactly -- same private
        RNG draw order, same emitted events, same state transitions -- so
        traces stay byte-identical with the per-process path.  The default is
        ``None`` (never batched); subclasses that override behavior-relevant
        hooks must *not* inherit a non-``None`` key, which is why concrete
        implementations gate on ``type(self) is <exact class>``.

        The key must be stable for the process's lifetime (the simulator
        reads it once, at construction) and must encode everything two
        processes need to share per-round decisions -- see
        :meth:`repro.core.local_broadcast.LocalBroadcastProcess.batch_group_key`
        for the canonical implementation (algorithm tag, parameter set, and
        seed reuse factor).
        """
        return None

    def make_batch_driver(self) -> Optional[Any]:
        """Build the driver for this process's cohort (first member only).

        The simulator calls this once per distinct :meth:`batch_group_key`
        and then registers every member via ``driver.add_member(process)``.
        The driver stands in for the members' per-process hook calls and
        exposes:

        * ``transmit_round(round_number, transmissions)`` -- add the cohort's
          frames for the round to the round-level dict;
        * ``receive_round(round_number, receptions)`` -- consume the round's
          receptions and run end-of-round bookkeeping;
        * ``flush_kernel_state()`` -- settle state the driver defers (member
          streams, statistics); the simulator calls it at every ``run()``
          boundary, so callers then observe exactly the per-process state.

        Optionally, for silent-round skipping on the kernel lane:

        * ``next_busy_round(round_number)`` -- the first round
          ``>= round_number`` in which the cohort may transmit, draw, change
          state or emit, assuming every round before it is silent; ``None``
          when only an input can wake it.  Answering ``round_number`` never
          skips;
        * ``skip_rounds(count)`` -- the simulator skipped ``count`` rounds,
          none of them later than this driver's answer;
        * ``begin_run(last_round)`` -- called at the start of every
          ``run()``: a driver that draws private coins ahead (to answer
          ``next_busy_round`` past rounds where only a coin could fire) draws
          none for rounds after ``last_round``, so member RNGs are exact at
          the run boundary.

        A driver without ``next_busy_round`` turns skipping off for the run.
        """
        return None

    # ------------------------------------------------------------------
    # output plumbing
    # ------------------------------------------------------------------
    def emit(self, event: "Event") -> None:
        """Queue an output event for the environment / trace."""
        self._pending_outputs.append(event)

    def drain_outputs(self) -> List["Event"]:
        """Return and clear the outputs generated since the last drain."""
        outputs, self._pending_outputs = self._pending_outputs, []
        return outputs

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def vertex(self) -> Hashable:
        return self.ctx.vertex

    @property
    def process_id(self) -> Hashable:
        return self.ctx.process_id

    @property
    def rng(self) -> random.Random:
        return self.ctx.rng

    def __repr__(self) -> str:
        return f"{type(self).__name__}(vertex={self.ctx.vertex!r})"


class SilentProcess(Process):
    """A process that never transmits and ignores everything it hears.

    Useful as a placeholder for vertices that do not participate in an
    experiment, and in unit tests of the engine's collision rules.
    """

    __slots__ = ()

    def transmit(self, round_number: int) -> Optional[Any]:
        return None
