"""Execution traces.

An :class:`ExecutionTrace` is the record the simulator produces: every
environment input, every process output, and (optionally) the per-round
transmissions and receptions.  The specification checkers in
:mod:`repro.core.seed_spec` and :mod:`repro.core.lb_spec` and the metric
helpers in :mod:`repro.simulation.metrics` are pure functions of a trace plus
the dual graph, which keeps algorithm code and analysis code fully decoupled.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.events import AckOutput, BcastInput, DecideOutput, Event, RecvOutput
from repro.core.messages import Message

Vertex = Hashable


class TraceMode(enum.Enum):
    """How much of an execution the trace retains.

    * ``FULL`` -- events plus per-round transmission/reception frame maps (the
      historical default; required by the spec checkers that inspect frames).
    * ``EVENTS`` -- input/output events only; per-round frame maps are
      dropped.
    * ``COUNTERS`` -- neither events nor frames are stored; only aggregate
      counters (rounds, events by kind, transmissions, receptions) survive.
      The cheapest mode for very long runs where the consumer reads nothing
      but the counters (throughput benchmarks, saturation sweeps).

    All modes maintain the aggregate counters, so code written against
    ``COUNTERS`` keeps working under richer modes.
    """

    FULL = "full"
    EVENTS = "events"
    COUNTERS = "counters"

    @property
    def richness(self) -> int:
        """Total order on retention: ``COUNTERS < EVENTS < FULL``.

        Consumers that need events work under any mode whose richness is at
        least ``EVENTS``'s, and so on -- this is what lets the metric registry
        declare each reducer's *minimum* mode and the scenario runtime pick
        the cheapest mode that satisfies all of them (see
        :func:`repro.scenarios.metrics.required_trace_mode`).
        """
        return _TRACE_MODE_RICHNESS[self.value]

    def covers(self, other: "TraceMode") -> bool:
        """True iff a trace recorded in this mode retains everything ``other`` needs."""
        return self.richness >= other.richness


_TRACE_MODE_RICHNESS = {"counters": 0, "events": 1, "full": 2}


class ExecutionTrace:
    """A recorded execution of the simulator.

    Parameters
    ----------
    mode:
        The :class:`TraceMode` controlling retention (default ``FULL``).
    """

    def __init__(self, mode: Optional[TraceMode] = None) -> None:
        if mode is None:
            mode = TraceMode.FULL
        self._mode = mode
        self._keep_frames = mode is TraceMode.FULL
        self._record_events = mode is not TraceMode.COUNTERS
        self._events: List[Event] = []
        self._bcasts: List[BcastInput] = []
        self._acks: List[AckOutput] = []
        self._recvs: List[RecvOutput] = []
        self._decides: List[DecideOutput] = []
        # The per-message ledger, kept as events are appended: message id ->
        # first bcast round, first ack round, {receiver: earliest recv round};
        # and vertex -> its bcast events in append order.
        self._bcast_round: Dict[Hashable, int] = {}
        self._ack_round: Dict[Hashable, int] = {}
        self._receivers: Dict[Hashable, Dict[Vertex, int]] = {}
        self._bcasts_of: Dict[Vertex, List[BcastInput]] = {}
        self._transmissions: Dict[int, Dict[Vertex, Any]] = {}
        self._receptions: Dict[int, Dict[Vertex, Optional[Any]]] = {}
        self._num_rounds = 0
        self._event_counts: Dict[str, int] = {
            "bcast": 0,
            "ack": 0,
            "recv": 0,
            "decide": 0,
            "other": 0,
        }
        self._num_transmissions = 0
        self._num_receptions = 0

    # ------------------------------------------------------------------
    # recording (called by the simulator)
    # ------------------------------------------------------------------
    def note_round(self, round_number: int) -> None:
        if round_number > self._num_rounds:
            self._num_rounds = round_number

    def record_event(self, event: Event) -> None:
        counts = self._event_counts
        if isinstance(event, BcastInput):
            counts["bcast"] += 1
            if self._record_events:
                self._bcasts.append(event)
                self._bcast_round.setdefault(event.message.message_id, event.round_number)
                self._bcasts_of.setdefault(event.vertex, []).append(event)
        elif isinstance(event, AckOutput):
            counts["ack"] += 1
            if self._record_events:
                self._acks.append(event)
                self._ack_round.setdefault(event.message.message_id, event.round_number)
        elif isinstance(event, RecvOutput):
            counts["recv"] += 1
            if self._record_events:
                self._recvs.append(event)
                heard = self._receivers.setdefault(event.message.message_id, {})
                rnd = event.round_number
                heard[event.vertex] = min(heard.get(event.vertex, rnd), rnd)
        elif isinstance(event, DecideOutput):
            counts["decide"] += 1
            if self._record_events:
                self._decides.append(event)
        else:
            counts["other"] += 1
        if self._record_events:
            self._events.append(event)

    def record_transmissions(self, round_number: int, frames: Dict[Vertex, Any]) -> None:
        if frames:
            self._num_transmissions += len(frames)
            if self._keep_frames:
                self._transmissions[round_number] = dict(frames)

    def record_receptions(self, round_number: int, frames: Dict[Vertex, Optional[Any]]) -> None:
        if self._keep_frames:
            received = {v: f for v, f in frames.items() if f is not None}
            if received:
                self._num_receptions += len(received)
                self._receptions[round_number] = received
        else:
            for frame in frames.values():
                if frame is not None:
                    self._num_receptions += 1

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mode(self) -> TraceMode:
        """The retention mode this trace was recorded under."""
        return self._mode

    @property
    def num_rounds(self) -> int:
        """The number of rounds the simulation ran."""
        return self._num_rounds

    @property
    def event_counts(self) -> Dict[str, int]:
        """Aggregate event counts by kind (maintained in every mode)."""
        return dict(self._event_counts)

    @property
    def num_transmissions(self) -> int:
        """Total frames transmitted across all rounds (every mode)."""
        return self._num_transmissions

    @property
    def num_receptions(self) -> int:
        """Total successful receptions across all rounds (every mode)."""
        return self._num_receptions

    @property
    def events(self) -> Tuple[Event, ...]:
        return tuple(self._events)

    @property
    def bcast_inputs(self) -> Tuple[BcastInput, ...]:
        return tuple(self._bcasts)

    @property
    def ack_outputs(self) -> Tuple[AckOutput, ...]:
        return tuple(self._acks)

    @property
    def recv_outputs(self) -> Tuple[RecvOutput, ...]:
        return tuple(self._recvs)

    @property
    def decide_outputs(self) -> Tuple[DecideOutput, ...]:
        return tuple(self._decides)

    def transmissions_in_round(self, round_number: int) -> Dict[Vertex, Any]:
        """Vertex -> frame transmitted, for one round (empty if none recorded)."""
        return dict(self._transmissions.get(round_number, {}))

    def receptions_in_round(self, round_number: int) -> Dict[Vertex, Any]:
        """Vertex -> frame received, for one round (only successful receptions)."""
        return dict(self._receptions.get(round_number, {}))

    def receptions_by_round(self) -> Iterator[Tuple[int, Mapping[Vertex, Any]]]:
        """``(round, vertex -> frame)`` for every round with a recorded
        reception, in ascending round order (empty unless ``FULL``).

        The maps are the trace's own, not copies: read them, do not mutate
        them.  Rounds without a reception are absent, so a scan over the
        receptions costs what was received, not the run's length.
        """
        return iter(self._receptions.items())

    # ------------------------------------------------------------------
    # derived views used by spec checkers and metrics
    # ------------------------------------------------------------------
    def bcasts_by_vertex(self) -> Dict[Vertex, List[BcastInput]]:
        return {v: list(evs) for v, evs in self._bcasts_of.items()}

    def acks_by_vertex(self) -> Dict[Vertex, List[AckOutput]]:
        result: Dict[Vertex, List[AckOutput]] = defaultdict(list)
        for ev in self._acks:
            result[ev.vertex].append(ev)
        return dict(result)

    def recvs_by_vertex(self) -> Dict[Vertex, List[RecvOutput]]:
        result: Dict[Vertex, List[RecvOutput]] = defaultdict(list)
        for ev in self._recvs:
            result[ev.vertex].append(ev)
        return dict(result)

    def decides_by_vertex(self) -> Dict[Vertex, List[DecideOutput]]:
        result: Dict[Vertex, List[DecideOutput]] = defaultdict(list)
        for ev in self._decides:
            result[ev.vertex].append(ev)
        return dict(result)

    def ack_round_for(self, message: Message) -> Optional[int]:
        """The round of the first ``ack(message)`` output recorded (or None)."""
        return self._ack_round.get(message.message_id)

    def bcast_round_for(self, message: Message) -> Optional[int]:
        """The round of the first ``bcast(message)`` input recorded (or None)."""
        return self._bcast_round.get(message.message_id)

    def active_interval(self, message: Message) -> Optional[Tuple[int, Optional[int]]]:
        """The rounds during which ``message`` was actively broadcast.

        Returns ``(start, end)`` where ``start`` is the bcast round and ``end``
        is the ack round (``None`` if never acknowledged).  Per Section 4.1 a
        node is *actively broadcasting* ``m`` in every round of
        ``[start, end]`` -- acks happen at the end of their round, so the ack
        round itself still counts as active.
        """
        start = self.bcast_round_for(message)
        if start is None:
            return None
        return start, self.ack_round_for(message)

    def actively_broadcasting(self, vertex: Vertex, round_number: int) -> List[Message]:
        """All messages ``vertex`` is actively broadcasting in ``round_number``."""
        result = []
        for ev in self._bcasts_of.get(vertex, ()):
            if ev.round_number > round_number:
                continue
            ack_round = self._ack_round.get(ev.message.message_id)
            if ack_round is None or ack_round >= round_number:
                result.append(ev.message)
        return result

    def is_active(self, vertex: Vertex, round_number: int) -> bool:
        """True iff ``vertex`` is actively broadcasting some message."""
        return bool(self.actively_broadcasting(vertex, round_number))

    def receivers_of(self, message: Message) -> Dict[Vertex, int]:
        """Vertices that output ``recv(message)`` mapped to the earliest round."""
        return dict(self._receivers.get(message.message_id, {}))

    def __repr__(self) -> str:
        return (
            f"ExecutionTrace(rounds={self._num_rounds}, events={len(self._events)}, "
            f"bcasts={len(self._bcasts)}, acks={len(self._acks)}, "
            f"recvs={len(self._recvs)}, decides={len(self._decides)})"
        )
