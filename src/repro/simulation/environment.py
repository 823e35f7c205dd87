"""Deterministic environments (Section 4.1).

The environment is the entity that provides ``bcast`` inputs and consumes
``ack`` / ``recv`` outputs.  The local broadcast problem restricts the
environments considered:

1. every message submitted is unique, and
2. after submitting ``bcast(m)_u`` the environment must wait for the matching
   ``ack(m)_u`` before submitting another message at ``u``.

All environments in this module maintain those two restrictions internally
(they queue or drop attempted submissions while a node is busy), and they are
deterministic: given the sequence of observed outputs, the inputs they
generate are a pure function -- matching the paper's modeling assumption.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.core.events import AckOutput, Event, RecvOutput
from repro.core.messages import Message, fresh_counter

Vertex = Hashable


class Environment(ABC):
    """Base class for deterministic local broadcast environments."""

    def __init__(self) -> None:
        self._busy: Dict[Vertex, Message] = {}
        self._counter = fresh_counter()
        self._submitted: List[Message] = []

    # ------------------------------------------------------------------
    # simulator-facing interface
    # ------------------------------------------------------------------
    def inputs_for_round(self, round_number: int) -> Dict[Vertex, List[Any]]:
        """The bcast inputs to deliver at the start of ``round_number``.

        Subclasses implement :meth:`_wanted_submissions`; this wrapper filters
        out submissions that would violate the one-outstanding-message rule
        and stamps fresh messages.
        """
        inputs: Dict[Vertex, List[Any]] = {}
        for vertex, payload in self._wanted_submissions(round_number):
            if vertex in self._busy:
                continue
            message = Message(
                origin=vertex,
                sequence=self._counter.next_for(vertex),
                payload=payload,
            )
            self._busy[vertex] = message
            self._submitted.append(message)
            inputs.setdefault(vertex, []).append(message)
        return inputs

    def next_busy_round(self, round_number: int) -> Optional[int]:
        """The first round ``>= round_number`` that may submit an input,
        assuming every round before it is silent (no outputs), or ``None``
        when nothing is submitted until an output arrives.

        The simulator skips the rounds before the answer without calling
        :meth:`inputs_for_round` or :meth:`observe_outputs`, so an override
        promises both would submit nothing there; whatever else those rounds
        change (arrivals that only enqueue, per-round samples) is settled by
        :meth:`skip_rounds`.  It is consulted only when the environment's own
        class defines it (see
        :meth:`repro.simulation.engine.Simulator._silent_round_sources`);
        this default, ``round_number``, never skips.
        """
        return round_number

    def skip_rounds(self, first: int, count: int) -> None:
        """The simulator skipped rounds ``first .. first + count - 1``: no
        inputs were asked for and no outputs observed.  A no-op here;
        environments with per-round state catch up on it."""

    def observe_outputs(self, round_number: int, outputs: Sequence[Event]) -> None:
        """Called at the end of each round with every process output."""
        for event in outputs:
            if isinstance(event, AckOutput):
                busy = self._busy.get(event.vertex)
                if busy is not None and busy.message_id == event.message.message_id:
                    del self._busy[event.vertex]
                self._on_ack(round_number, event)
            elif isinstance(event, RecvOutput):
                self._on_recv(round_number, event)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        """Yield ``(vertex, payload)`` pairs the environment wants to submit."""

    def _on_ack(self, round_number: int, event: AckOutput) -> None:
        """Hook: an acknowledgment was observed (busy bookkeeping already done)."""

    def _on_recv(self, round_number: int, event: RecvOutput) -> None:
        """Hook: a recv output was observed."""

    # ------------------------------------------------------------------
    # inspection helpers used by tests and metrics
    # ------------------------------------------------------------------
    @property
    def submitted_messages(self) -> List[Message]:
        """Every message ever handed to a node, in submission order."""
        return list(self._submitted)

    def is_busy(self, vertex: Vertex) -> bool:
        """True while ``vertex`` has an outstanding (unacknowledged) message."""
        return vertex in self._busy

    def outstanding_message(self, vertex: Vertex) -> Optional[Message]:
        return self._busy.get(vertex)


class NullEnvironment(Environment):
    """An environment that never submits anything (pure listening runs)."""

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        return ()

    def next_busy_round(self, round_number: int) -> Optional[int]:
        return None


class SingleShotEnvironment(Environment):
    """Each designated sender gets exactly one message, at a chosen round.

    Parameters
    ----------
    senders:
        The vertices that receive a ``bcast`` input.
    start_round:
        The round at which all submissions happen (default 1).
    payload_prefix:
        Payloads are ``f"{payload_prefix}{vertex}"`` for traceability.
    """

    def __init__(self, senders: Iterable[Vertex], start_round: int = 1,
                 payload_prefix: str = "msg-") -> None:
        super().__init__()
        self._senders = list(senders)
        self._start_round = int(start_round)
        self._prefix = payload_prefix
        self._done = False

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        if self._done or round_number < self._start_round:
            return ()
        self._done = True
        return [(v, f"{self._prefix}{v}") for v in self._senders]

    def next_busy_round(self, round_number: int) -> Optional[int]:
        if self._done:
            return None
        return max(round_number, self._start_round)


class SaturatingEnvironment(Environment):
    """Senders always have a message: a new one is submitted right after each ack.

    This workload realizes the "active throughout the phase" premise of the
    progress property: as long as the run lasts, every designated sender is
    actively broadcasting in every round (except the single round gap between
    an ack and the next submission, which we avoid by resubmitting in the same
    observation cycle -- the new bcast lands at the start of the next round,
    and the acked message remains active through its ack round, so coverage is
    continuous).
    """

    def __init__(self, senders: Iterable[Vertex], start_round: int = 1) -> None:
        super().__init__()
        self._senders = list(senders)
        self._start_round = int(start_round)

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        if round_number < self._start_round:
            return ()
        busy = self._busy
        if len(busy) == len(self._senders):
            # Steady state: every sender has an outstanding message (only
            # senders ever submit, so the busy map holds nothing else).
            return ()
        return [
            (vertex, f"sat-{vertex}-r{round_number}")
            for vertex in self._senders
            if vertex not in busy
        ]

    def next_busy_round(self, round_number: int) -> Optional[int]:
        if round_number < self._start_round:
            return self._start_round
        busy = self._busy
        if len(busy) == len(self._senders) or all(v in busy for v in self._senders):
            # Every sender waits for an ack, and acks come only in stepped rounds.
            return None
        return round_number


class ScriptedEnvironment(Environment):
    """Submissions given explicitly as ``{round: {vertex: payload}}``.

    If a scripted submission arrives while the vertex is still busy it is
    queued and submitted at the first later round where the vertex is free,
    preserving the well-formedness restriction while keeping determinism.
    """

    def __init__(self, script: Mapping[int, Mapping[Vertex, Any]]) -> None:
        super().__init__()
        self._script: Dict[int, Dict[Vertex, Any]] = {
            int(rnd): dict(entries) for rnd, entries in script.items()
        }
        self._script_rounds = sorted(self._script)
        self._queue: List[tuple] = []

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        due = list(self._queue)
        self._queue = []
        for vertex, payload in sorted(
            self._script.get(round_number, {}).items(), key=lambda kv: repr(kv[0])
        ):
            due.append((vertex, payload))
        ready = []
        for vertex, payload in due:
            if self.is_busy(vertex):
                self._queue.append((vertex, payload))
            else:
                ready.append((vertex, payload))
        return ready

    def next_busy_round(self, round_number: int) -> Optional[int]:
        # A queued submission waits for its vertex's ack (a stepped round);
        # once the vertex is free it goes out this round.
        if any(not self.is_busy(vertex) for vertex, _ in self._queue):
            return round_number
        rounds = self._script_rounds
        i = bisect_left(rounds, round_number)
        return rounds[i] if i < len(rounds) else None

    @property
    def pending(self) -> List[tuple]:
        """Scripted submissions still waiting for their vertex to become free."""
        return list(self._queue)


class BurstyEnvironment(Environment):
    """Each sender attempts a new submission every ``period`` rounds.

    Attempts made while the sender is busy are dropped (not queued), modeling
    a periodic sensing application that reports the freshest sample only.
    """

    def __init__(self, senders: Iterable[Vertex], period: int = 50,
                 start_round: int = 1) -> None:
        super().__init__()
        if period < 1:
            raise ValueError("period must be at least 1 round")
        self._senders = list(senders)
        self._period = int(period)
        self._start_round = int(start_round)

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        if round_number < self._start_round:
            return ()
        if (round_number - self._start_round) % self._period != 0:
            return ()
        return [
            (v, f"burst-{v}-r{round_number}")
            for v in self._senders
            if not self.is_busy(v)
        ]
