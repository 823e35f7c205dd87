"""Neighbor discovery over the abstract MAC layer.

Neighbor discovery is one of the original applications written against the
abstract MAC layer (Cornejo, Lynch, Viqar, Welch): every node hands the layer
a single announcement carrying its id; the layer's acknowledgment guarantee
then implies that, within ``f_ack`` rounds of a node's announcement, every
reliable neighbor has heard it (with probability ``1 − ε`` each).  Running
the layer over LBAlg therefore gives a neighbor discovery service for the
dual graph model for free.

:func:`run_neighbor_discovery` runs the complete experiment and reports, per
node, which reliable neighbors it discovered and how long the slowest
discovery took.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Set

from repro.core.local_broadcast import make_lb_processes
from repro.core.params import LBParams
from repro.dualgraph.adversary import LinkScheduler
from repro.dualgraph.graph import DualGraph
from repro.mac.adapter import MacEnvironment
from repro.mac.spec import MacApi, MacClient
from repro.simulation.engine import Simulator

Vertex = Hashable


@dataclass(frozen=True)
class Announcement:
    """The payload every node broadcasts once: its own identity."""

    vertex: Vertex


class NeighborDiscoveryClient(MacClient):
    """Per-node discovery logic: announce once, remember everyone heard."""

    def __init__(self, vertex: Vertex) -> None:
        self.vertex = vertex
        self.announced_round: Optional[int] = None
        self.discovered: Dict[Vertex, int] = {}

    def on_mac_start(self, api: MacApi) -> None:
        api.mac_bcast(Announcement(vertex=self.vertex))

    def on_mac_recv(self, payload, round_number: int) -> None:
        if isinstance(payload, Announcement) and payload.vertex not in self.discovered:
            self.discovered[payload.vertex] = round_number

    def on_mac_ack(self, payload, round_number: int) -> None:
        if isinstance(payload, Announcement) and payload.vertex == self.vertex:
            self.announced_round = round_number


@dataclass
class NeighborDiscoveryResult:
    """Outcome of one neighbor discovery execution."""

    rounds_run: int
    discovered: Dict[Vertex, Dict[Vertex, int]] = field(default_factory=dict)
    reliable_neighbors: Dict[Vertex, FrozenSet[Vertex]] = field(default_factory=dict)

    def discovery_fraction(self, vertex: Vertex) -> float:
        """Fraction of ``vertex``'s reliable neighbors it discovered."""
        neighbors = self.reliable_neighbors[vertex]
        if not neighbors:
            return 1.0
        found = sum(1 for v in neighbors if v in self.discovered[vertex])
        return found / len(neighbors)

    @property
    def mean_discovery_fraction(self) -> float:
        fractions = [self.discovery_fraction(v) for v in self.discovered]
        return sum(fractions) / len(fractions) if fractions else 0.0

    @property
    def complete(self) -> bool:
        """True iff every node discovered every reliable neighbor."""
        return all(self.discovery_fraction(v) == 1.0 for v in self.discovered)

    @property
    def last_discovery_round(self) -> Optional[int]:
        rounds = [r for table in self.discovered.values() for r in table.values()]
        return max(rounds) if rounds else None

    def false_positives(self, graph: DualGraph) -> Dict[Vertex, Set[Vertex]]:
        """Discovered vertices that are not even G' neighbors (must be empty)."""
        result: Dict[Vertex, Set[Vertex]] = {}
        for vertex, table in self.discovered.items():
            extras = {
                v for v in table if v != vertex and v not in graph.potential_neighbors(vertex)
            }
            if extras:
                result[vertex] = extras
        return result


def run_neighbor_discovery(
    graph: DualGraph,
    params: LBParams,
    scheduler: Optional[LinkScheduler] = None,
    rng: Optional[random.Random] = None,
    phases: Optional[int] = None,
) -> NeighborDiscoveryResult:
    """Run neighbor discovery over the LBAlg-backed MAC layer.

    Parameters
    ----------
    phases:
        How many LBAlg phases to simulate; defaults to one full acknowledgment
        period plus one phase of slack (every announcement is submitted in the
        very first round, so that is enough for every ack to land).
    """
    if rng is None:
        rng = random.Random(0)
    clients = {v: NeighborDiscoveryClient(v) for v in graph.vertices}
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, rng),
        scheduler=scheduler,
        environment=MacEnvironment(clients),
    )
    if phases is None:
        phases = params.tack_phases + 2
    rounds = phases * params.phase_length
    simulator.run(rounds)

    result = NeighborDiscoveryResult(rounds_run=rounds)
    for vertex, client in clients.items():
        result.discovered[vertex] = dict(client.discovered)
        result.reliable_neighbors[vertex] = graph.reliable_neighbors(vertex)
    return result
