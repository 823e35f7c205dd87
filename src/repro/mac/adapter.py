"""Hosting MAC clients on top of the local broadcast service.

The abstract MAC layer's clients hand the layer ``bcast`` inputs and take its
``rcv`` / ``ack`` outputs, which is exactly the role of the *environment* in
the Section 2 model.  :class:`MacEnvironment` is therefore an
:class:`~repro.simulation.environment.Environment`: it starts every
:class:`~repro.mac.spec.MacClient` with a per-vertex handle, queues the
payloads a client hands its handle, submits a vertex's next payload as a
``bcast`` input once the vertex is idle (the base class's one-outstanding-
message bookkeeping), and turns the ``recv`` / ``ack`` outputs it observes
into client callbacks.

The processes below it are a plain broadcast population -- normally
:func:`~repro.core.local_broadcast.make_lb_processes`, but any process
speaking the ``Message`` / ``AckOutput`` / ``RecvOutput`` vocabulary (the
baselines do too) can back the layer -- so the engine batches them and skips
their silent rounds like any other population.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional

from repro.core.events import AckOutput, RecvOutput
from repro.mac.spec import MacClient
from repro.simulation.environment import Environment

Vertex = Hashable


class _MacHandle:
    """The :class:`~repro.mac.spec.MacApi` handle a client gets at start-up."""

    __slots__ = ("vertex", "_environment")

    def __init__(self, environment: "MacEnvironment", vertex: Vertex) -> None:
        self.vertex = vertex
        self._environment = environment

    def mac_bcast(self, payload: Any) -> bool:
        return self._environment._mac_bcast(self.vertex, payload)


class MacEnvironment(Environment):
    """The environment that hosts one :class:`MacClient` per vertex.

    Every client is started (``on_mac_start``) here, before the first round,
    with a handle carrying its ``vertex`` and ``mac_bcast``.
    """

    def __init__(self, clients: Mapping[Vertex, MacClient]) -> None:
        super().__init__()
        self._clients: Dict[Vertex, MacClient] = dict(clients)
        # Only vertices with at least one payload waiting.
        self._queues: Dict[Vertex, deque] = {}
        for vertex, client in self._clients.items():
            client.on_mac_start(_MacHandle(self, vertex))

    def _mac_bcast(self, vertex: Vertex, payload: Any) -> bool:
        queue = self._queues.setdefault(vertex, deque())
        queue.append(payload)
        return vertex not in self._busy and len(queue) == 1

    def _wanted_submissions(self, round_number: int) -> Iterable[tuple]:
        busy = self._busy
        ready = [vertex for vertex in self._queues if vertex not in busy]
        wanted = []
        for vertex in ready:
            queue = self._queues[vertex]
            wanted.append((vertex, queue.popleft()))
            if not queue:
                del self._queues[vertex]
        return wanted

    def next_busy_round(self, round_number: int) -> Optional[int]:
        # A queued payload waits for its vertex's ack, which only a stepped
        # round produces; once the vertex is idle it goes out this round.
        busy = self._busy
        if any(vertex not in busy for vertex in self._queues):
            return round_number
        return None

    def _on_recv(self, round_number: int, event: RecvOutput) -> None:
        self._clients[event.vertex].on_mac_recv(event.message.payload, round_number)

    def _on_ack(self, round_number: int, event: AckOutput) -> None:
        self._clients[event.vertex].on_mac_ack(event.message.payload, round_number)
