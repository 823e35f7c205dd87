"""Multi-hop flooding over the abstract MAC layer.

Global (network-wide) broadcast by flooding is the canonical algorithm built
on the abstract MAC layer: a source hands the layer a token; every node that
hears the token for the first time re-broadcasts it once.  Against a layer
with acknowledgment bound ``f_ack`` the token reaches every node of a
connected reliable graph of diameter ``D`` within roughly ``D · f_ack``
rounds -- which is what the E8 benchmark measures on line and grid networks
in the dual graph model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional

from repro.core.local_broadcast import make_lb_processes
from repro.core.params import LBParams
from repro.dualgraph.adversary import LinkScheduler
from repro.dualgraph.graph import DualGraph
from repro.mac.adapter import MacEnvironment
from repro.mac.spec import MacApi, MacClient
from repro.simulation.engine import Simulator

Vertex = Hashable


@dataclass(frozen=True)
class FloodToken:
    """The payload carried by the flood: an identifier and a hop counter."""

    flood_id: str
    hops: int


class FloodClient(MacClient):
    """Per-node flooding logic.

    The source submits the token at start-up; every other node re-submits it
    (with an incremented hop count) the first time it hears it.  The client
    records when it first received the token and when its own relay was
    acknowledged, which is all the harness needs.
    """

    def __init__(self, vertex: Vertex, is_source: bool, flood_id: str = "flood") -> None:
        self.vertex = vertex
        self.is_source = is_source
        self.flood_id = flood_id
        self.received_round: Optional[int] = None
        self.received_hops: Optional[int] = None
        self.relayed = False
        self.relay_ack_round: Optional[int] = None
        self._api: Optional[MacApi] = None

    def on_mac_start(self, api: MacApi) -> None:
        self._api = api
        if self.is_source:
            self.received_round = 0
            self.received_hops = 0
            self.relayed = True
            api.mac_bcast(FloodToken(flood_id=self.flood_id, hops=0))

    def on_mac_recv(self, payload, round_number: int) -> None:
        if not isinstance(payload, FloodToken) or payload.flood_id != self.flood_id:
            return
        if self.received_round is None:
            self.received_round = round_number
            self.received_hops = payload.hops
        if not self.relayed:
            self.relayed = True
            self._api.mac_bcast(FloodToken(flood_id=self.flood_id, hops=payload.hops + 1))

    def on_mac_ack(self, payload, round_number: int) -> None:
        if isinstance(payload, FloodToken) and payload.flood_id == self.flood_id:
            self.relay_ack_round = round_number


@dataclass
class FloodResult:
    """Outcome of one flood execution."""

    source: Vertex
    rounds_run: int
    receive_rounds: Dict[Vertex, Optional[int]] = field(default_factory=dict)
    receive_hops: Dict[Vertex, Optional[int]] = field(default_factory=dict)

    @property
    def covered(self) -> int:
        """Number of vertices (including the source) that got the token."""
        return sum(1 for rnd in self.receive_rounds.values() if rnd is not None)

    @property
    def coverage(self) -> float:
        """Fraction of vertices reached."""
        if not self.receive_rounds:
            return 0.0
        return self.covered / len(self.receive_rounds)

    @property
    def complete(self) -> bool:
        return self.covered == len(self.receive_rounds)

    @property
    def completion_round(self) -> Optional[int]:
        """The round by which every vertex had the token (None if incomplete)."""
        if not self.complete:
            return None
        return max(rnd for rnd in self.receive_rounds.values())


def run_flood(
    graph: DualGraph,
    params: LBParams,
    source: Vertex,
    scheduler: Optional[LinkScheduler] = None,
    rng: Optional[random.Random] = None,
    max_phases: Optional[int] = None,
    flood_id: str = "flood",
) -> FloodResult:
    """Run a complete flood experiment and return its result.

    Parameters
    ----------
    source:
        The vertex that originates the token.
    scheduler:
        Link scheduler (default: no unreliable edges).
    max_phases:
        Cap on LBAlg phases to simulate; defaults to
        ``(reliable diameter + 2) * (tack_phases + 1)`` which comfortably
        covers a hop-by-hop relay across the network.
    """
    if source not in graph:
        raise KeyError(f"source vertex {source!r} is not in the graph")
    if rng is None:
        rng = random.Random(0)

    clients: Dict[Vertex, FloodClient] = {
        vertex: FloodClient(vertex, is_source=(vertex == source), flood_id=flood_id)
        for vertex in graph.vertices
    }
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, rng),
        scheduler=scheduler,
        environment=MacEnvironment(clients),
    )

    if max_phases is None:
        diameter = graph.reliable_eccentricity(source)
        max_phases = (diameter + 2) * (params.tack_phases + 1)
    max_rounds = max_phases * params.phase_length

    def complete(_trace) -> bool:
        return all(client.received_round is not None for client in clients.values())

    simulator.run_until(complete, max_rounds=max_rounds, check_every=params.phase_length)

    result = FloodResult(source=source, rounds_run=simulator.current_round)
    for vertex, client in clients.items():
        result.receive_rounds[vertex] = client.received_round
        result.receive_hops[vertex] = client.received_hops
    return result
