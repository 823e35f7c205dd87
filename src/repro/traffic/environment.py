"""The queue-backed environment: per-node FIFO backlogs under real load.

:class:`QueuedEnvironment` is the bridge between arrival processes and the
one-outstanding-message restriction of the local broadcast problem: arrivals
enqueue into a per-node FIFO (optionally capacity-bounded, overflow counted as
drops), and whenever a node's MAC slot is free -- no outstanding unacked
message -- the head-of-line message is submitted.  Enqueue, dequeue, delivery
and ack rounds are recorded per message, giving the queue metrics their
backlog, waiting-time and latency distributions.

Delivery semantics follow the paper's abstract MAC layer: a message counts as
*delivered* once every reliable neighbor of its origin has produced a
``recv`` for it -- the event the ack is supposed to certify.  Tracking that
requires observing ``RecvOutput`` events, so this environment overrides
``_on_recv``; the engine materializes those events under every trace mode,
so queued workloads run on the kernel or the reference resolver alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.events import AckOutput, RecvOutput
from repro.simulation.environment import Environment
from repro.traffic.arrivals import ArrivalProcess

Vertex = Hashable


@dataclass
class _InFlight:
    """Book-keeping for one message between dequeue and ack."""

    origin: Vertex
    enqueue_round: int
    dequeue_round: int
    waiting: Set[Vertex]
    delivered_round: Optional[int] = None


class QueuedEnvironment(Environment):
    """Per-node FIFO backlogs fed by an :class:`ArrivalProcess`.

    Parameters
    ----------
    graph:
        The trial's dual graph (reliable neighborhoods define delivery).
    arrival:
        The arrival process; its ``sources`` are the queue-owning vertices.
    capacity:
        Per-node queue bound; ``0`` (default) means unbounded.  Arrivals to a
        full queue are counted in :attr:`dropped` and discarded.
    """

    def __init__(self, graph, arrival: ArrivalProcess, capacity: int = 0) -> None:
        super().__init__()
        if capacity < 0:
            raise ValueError("capacity must be non-negative (0 = unbounded)")
        self._graph = graph
        self._arrival = arrival
        self._capacity = int(capacity)
        try:
            self._order: List[Vertex] = sorted(arrival.sources)
        except TypeError:
            self._order = sorted(arrival.sources, key=repr)
        self._queues: Dict[Vertex, Deque[Tuple[str, int]]] = {
            v: deque() for v in self._order
        }
        self._pending: Dict[str, _InFlight] = {}
        #: Messages queued over all vertices, kept in step with the queues.
        self._backlog = 0
        # Aggregate counters and per-message samples the queue metric reads.
        self.offered = 0
        self.enqueued = 0
        self.dropped = 0
        self.acked = 0
        self.delivered_before_ack = 0
        self.rounds_observed = 0
        self.backlog_samples: List[int] = []
        self.wait_samples: List[int] = []
        self.delivery_latencies: List[int] = []
        self.ack_latencies: List[int] = []

    @property
    def arrival(self) -> ArrivalProcess:
        return self._arrival

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def delivered(self) -> int:
        """Messages received by the origin's entire reliable neighborhood."""
        return len(self.delivery_latencies)

    def backlog(self, vertex: Vertex) -> int:
        """Messages queued (not yet submitted) at one vertex, right now."""
        queue = self._queues.get(vertex)
        return len(queue) if queue is not None else 0

    def total_backlog(self) -> int:
        """Messages queued (not yet submitted) over all vertices, right now."""
        return self._backlog

    # ------------------------------------------------------------------
    # environment hooks
    # ------------------------------------------------------------------
    def _enqueue_arrivals(self, round_number: int) -> None:
        """Realize the round's arrivals: enqueue each, or drop it when the
        vertex's queue is full."""
        for vertex, count in self._arrival.arrivals_for_round(round_number):
            queue = self._queues[vertex]
            for index in range(count):
                self.offered += 1
                if self._capacity and len(queue) >= self._capacity:
                    self.dropped += 1
                    continue
                queue.append((f"traffic-{vertex}-r{round_number}-{index}", round_number))
                self.enqueued += 1
                self._backlog += 1

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        self._enqueue_arrivals(round_number)
        ready = []
        # With nothing queued there is nothing to dequeue.
        for vertex in self._order if self._backlog else ():
            if vertex in self._busy:
                continue
            queue = self._queues[vertex]
            if not queue:
                continue
            payload, enqueue_round = queue.popleft()
            self._backlog -= 1
            record = _InFlight(
                origin=vertex,
                enqueue_round=enqueue_round,
                dequeue_round=round_number,
                waiting=set(self._graph.reliable_neighbors(vertex)),
            )
            if not record.waiting:
                # An isolated origin has nobody to deliver to: delivery is
                # vacuously complete the moment the message hits the air.
                record.delivered_round = round_number
                self.delivery_latencies.append(round_number - enqueue_round)
            self._pending[payload] = record
            self.wait_samples.append(round_number - enqueue_round)
            ready.append((vertex, payload))
        # Sampled after arrivals and head-of-line dequeues: the backlog that
        # actually waits through the round.
        self.backlog_samples.append(self._backlog)
        self.rounds_observed = round_number
        return ready

    def next_busy_round(self, round_number: int) -> Optional[int]:
        """``round_number`` while an idle vertex has a queued message, else
        the arrival process's next arrival at an idle vertex.

        An arrival at a busy vertex only enqueues, which :meth:`skip_rounds`
        does for the skipped rounds; the busy set changes only on acks, which
        come in stepped rounds.
        """
        busy = self._busy
        if self._backlog and any(
            queue and vertex not in busy for vertex, queue in self._queues.items()
        ):
            return round_number
        return self._arrival.next_arrival(round_number, busy)

    def skip_rounds(self, first: int, count: int) -> None:
        """Realize the skipped rounds' arrivals in order, each at its own
        round number, and sample the backlog once per round, exactly as
        stepping them would (nothing is dequeued: every vertex with a queue
        is busy throughout)."""
        samples = self.backlog_samples
        for round_number in range(first, first + count):
            self._enqueue_arrivals(round_number)
            samples.append(self._backlog)
        self.rounds_observed = first + count - 1

    def _on_recv(self, round_number: int, event: RecvOutput) -> None:
        record = self._pending.get(event.message.payload)
        if record is None or record.delivered_round is not None:
            return
        record.waiting.discard(event.vertex)
        if not record.waiting:
            record.delivered_round = round_number
            self.delivery_latencies.append(round_number - record.enqueue_round)

    def _on_ack(self, round_number: int, event: AckOutput) -> None:
        record = self._pending.pop(event.message.payload, None)
        if record is None:
            return
        self.acked += 1
        self.ack_latencies.append(round_number - record.enqueue_round)
        if record.delivered_round is not None:
            self.delivered_before_ack += 1
