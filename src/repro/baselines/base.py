"""Shared machinery for the baseline broadcast processes.

Every baseline follows the same outer shape as LBAlg -- accept ``bcast``
inputs, stay *active* for a strategy-specific number of rounds while
transmitting according to its schedule, output ``ack`` when done, and output
``recv`` for every new message heard while listening -- so that traces from
baselines and from LBAlg are directly comparable.  Only the per-round
transmission rule differs, which subclasses supply via
:meth:`BaselineBroadcastProcess.transmission_probability` or by overriding
:meth:`BaselineBroadcastProcess.should_transmit`.

Baselines whose schedule is a fixed probability cycle (exact
:class:`~repro.baselines.decay.DecayProcess` and
:class:`~repro.baselines.uniform.UniformProcess` instances, see
:meth:`BaselineBroadcastProcess.probability_cycle`) are stepped by one
:class:`BaselineBatchDriver` per population instead of per process.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.events import AckOutput, RecvOutput
from repro.core.local_broadcast import DataFrame
from repro.core.messages import Message
from repro.simulation.process import Process, ProcessContext


class BaselineBroadcastProcess(Process):
    """Common skeleton of the fixed-schedule baselines.

    Parameters
    ----------
    ctx:
        The process context.
    active_rounds:
        How many rounds a node stays in the active (sending) state per
        message before acknowledging.
    """

    def __init__(self, ctx: ProcessContext, active_rounds: int) -> None:
        super().__init__(ctx)
        if active_rounds < 1:
            raise ValueError("active_rounds must be at least 1")
        self.active_rounds = int(active_rounds)
        self._current_message: Optional[Message] = None
        self._rounds_active = 0
        self._received_ids: Set[Tuple[Hashable, int]] = set()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """True while the node has an unacknowledged message."""
        return self._current_message is not None

    @property
    def current_message(self) -> Optional[Message]:
        return self._current_message

    @property
    def rounds_active(self) -> int:
        """Rounds the current message has been active so far."""
        return self._rounds_active

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------
    def transmission_probability(self, active_round_index: int) -> float:
        """The broadcast probability for the ``active_round_index``-th active round.

        ``active_round_index`` is 1-based and counts only rounds in which the
        node has been active with the current message.  Subclasses implement
        their schedule here (Decay's cycle, the uniform probability, ...).
        """
        raise NotImplementedError

    def probability_cycle(self) -> Optional[Tuple[float, ...]]:
        """The schedule as one repeating cycle -- active round ``k`` uses
        ``cycle[(k - 1) % len(cycle)]`` with :meth:`should_transmit`'s coin
        -- or ``None`` when the process must be stepped on its own (the
        default).

        A non-``None`` cycle makes the process batchable: populations
        sharing class, cycle and ``active_rounds`` are stepped by one
        :class:`BaselineBatchDriver`.  A subclass may override any hook the
        driver bypasses, so implementations return a cycle only for their
        exact class.
        """
        return None

    def batch_group_key(self) -> Optional[Tuple[Any, ...]]:
        cycle = self.probability_cycle()
        if cycle is None:
            return None
        return (type(self), cycle, self.active_rounds)

    def make_batch_driver(self) -> "BaselineBatchDriver":
        return BaselineBatchDriver(self.probability_cycle(), self.active_rounds)

    def should_transmit(self, active_round_index: int) -> bool:
        """Whether to transmit this active round (default: flip the schedule's coin)."""
        probability = self.transmission_probability(active_round_index)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.rng.random() < probability

    # ------------------------------------------------------------------
    # Process hooks
    # ------------------------------------------------------------------
    def on_input(self, round_number: int, inp: Any) -> None:
        if not isinstance(inp, Message):
            raise TypeError(
                f"baseline processes accept Message inputs only, got {type(inp).__name__}"
            )
        if self._current_message is not None:
            raise RuntimeError(
                f"vertex {self.vertex!r} received a bcast input while busy; the "
                "environment violates well-formedness"
            )
        self._current_message = inp
        self._rounds_active = 0

    def transmit(self, round_number: int) -> Optional[DataFrame]:
        if self._current_message is None:
            return None
        self._rounds_active += 1
        if self.should_transmit(self._rounds_active):
            return DataFrame(message=self._current_message)
        return None

    def on_receive(self, round_number: int, frame: Optional[Any]) -> None:
        if isinstance(frame, DataFrame):
            self._handle_data(frame.message, round_number)
        if self._current_message is not None and self._rounds_active >= self.active_rounds:
            self._acknowledge(round_number)

    def _handle_data(self, message: Message, round_number: int) -> None:
        """Output ``recv`` for a message heard for the first time."""
        if message.message_id not in self._received_ids:
            self._received_ids.add(message.message_id)
            self.emit(
                RecvOutput(vertex=self.vertex, message=message, round_number=round_number)
            )

    def _acknowledge(self, round_number: int) -> None:
        """Output ``ack`` for the current message and go idle."""
        message = self._current_message
        self._current_message = None
        self._rounds_active = 0
        self.emit(AckOutput(vertex=self.vertex, message=message, round_number=round_number))


class BaselineBatchDriver:
    """Batch group driver for a population of one fixed-cycle baseline.

    Per round, one loop over the members in registration order does what
    each member's :meth:`~BaselineBroadcastProcess.transmit` and
    :meth:`~BaselineBroadcastProcess.on_receive` would: count the active
    round, draw from the member's own RNG exactly when
    :meth:`~BaselineBroadcastProcess.should_transmit` would, and emit
    ``recv`` then ``ack`` through the members' own methods.  All state stays
    on the members, so there is nothing to flush; an idle population (no
    member holds a message) draws nothing and can be skipped.
    """

    __slots__ = ("_cycle", "_active_rounds", "_members", "_actors", "_by_vertex", "_frames", "_due")

    def __init__(self, cycle: Tuple[float, ...], active_rounds: int) -> None:
        self._cycle = cycle
        self._active_rounds = active_rounds
        self._members: List[BaselineBroadcastProcess] = []
        # (member, vertex, rng.random) per member: no attribute chains in
        # the per-round loop.
        self._actors: List[tuple] = []
        self._by_vertex: Dict[Hashable, BaselineBroadcastProcess] = {}
        # vertex -> the DataFrame of its current message, built on its first
        # transmission (value-equal to the per-round frames of transmit()).
        self._frames: Dict[Hashable, DataFrame] = {}
        # Members whose active-round count reached active_rounds this round,
        # in member order: the ones on_receive would acknowledge.
        self._due: List[BaselineBroadcastProcess] = []

    def add_member(self, process: BaselineBroadcastProcess) -> None:
        self._members.append(process)
        self._actors.append((process, process.vertex, process.rng.random))
        self._by_vertex[process.vertex] = process

    @property
    def members(self) -> Tuple[BaselineBroadcastProcess, ...]:
        return tuple(self._members)

    def transmit_round(self, round_number: int, out: Dict[Hashable, Any]) -> None:
        cycle = self._cycle
        length = len(cycle)
        active_rounds = self._active_rounds
        frames = self._frames
        due = self._due
        for member, vertex, rand in self._actors:
            message = member._current_message
            if message is None:
                continue
            k = member._rounds_active + 1
            member._rounds_active = k
            if k >= active_rounds:
                due.append(member)
            p = cycle[(k - 1) % length]
            # should_transmit: no draw at p <= 0 or p >= 1.
            if p >= 1.0 or (p > 0.0 and rand() < p):
                frame = frames.get(vertex)
                if frame is None or frame.message is not message:
                    frame = frames[vertex] = DataFrame(message=message)
                out[vertex] = frame

    def receive_round(self, round_number: int, receptions: Dict[Hashable, Any]) -> None:
        if receptions:
            get_member = self._by_vertex.get
            for vertex, frame in receptions.items():
                if isinstance(frame, DataFrame):
                    member = get_member(vertex)
                    if member is not None:
                        member._handle_data(frame.message, round_number)
        if self._due:
            # Only transmit() moves the active-round count, so these are
            # exactly the members on_receive would acknowledge.
            for member in self._due:
                member._acknowledge(round_number)
            self._due = []

    def next_busy_round(self, round_number: int) -> Optional[int]:
        """``round_number`` while any member holds a message (it draws or
        transmits every active round), else ``None``: only an input, which
        the environment reports, wakes the population."""
        for member in self._members:
            if member._current_message is not None:
                return round_number
        return None

    def skip_rounds(self, count: int) -> None:
        """Idle rounds change nothing."""

    def flush_kernel_state(self) -> None:
        """Nothing is deferred."""
