"""Multi-message global broadcast over the abstract MAC layer.

The paper highlights multi-message broadcast with abstract MAC layers and
unreliable links (Ghaffari, Kantor, Lynch, Newport PODC 2014) as one of the
results that port to the dual graph model once the layer is implemented.
This module provides the straightforward flood-per-message variant: ``k``
source nodes each inject their own token; every node relays every token it
has not seen before, letting the MAC environment queue relays while a previous
one is still being acknowledged.

:func:`run_multi_message_broadcast` runs the experiment and reports per-token
coverage and completion rounds.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional

from repro.core.local_broadcast import make_lb_processes
from repro.core.params import LBParams
from repro.dualgraph.adversary import LinkScheduler
from repro.dualgraph.graph import DualGraph
from repro.mac.adapter import MacEnvironment
from repro.mac.spec import MacApi, MacClient
from repro.simulation.engine import Simulator

Vertex = Hashable


@dataclass(frozen=True)
class Token:
    """One of the k messages being disseminated."""

    token_id: str
    source: Vertex


class MultiMessageClient(MacClient):
    """Relay every token once; the MAC environment serializes outstanding relays."""

    def __init__(self, vertex: Vertex, own_tokens: Iterable[Token] = ()) -> None:
        self.vertex = vertex
        self.own_tokens: List[Token] = list(own_tokens)
        self.received_round: Dict[str, int] = {}
        self.relayed: set = set()
        self._api: Optional[MacApi] = None

    def on_mac_start(self, api: MacApi) -> None:
        self._api = api
        for token in self.own_tokens:
            self.received_round[token.token_id] = 0
            self.relayed.add(token.token_id)
            api.mac_bcast(token)

    def on_mac_recv(self, payload, round_number: int) -> None:
        if not isinstance(payload, Token):
            return
        if payload.token_id not in self.received_round:
            self.received_round[payload.token_id] = round_number
        if payload.token_id not in self.relayed:
            self.relayed.add(payload.token_id)
            self._api.mac_bcast(payload)


@dataclass
class MultiMessageResult:
    """Outcome of one multi-message broadcast execution."""

    tokens: List[Token]
    rounds_run: int
    receive_rounds: Dict[str, Dict[Vertex, Optional[int]]] = field(default_factory=dict)

    def coverage(self, token_id: str) -> float:
        table = self.receive_rounds[token_id]
        if not table:
            return 0.0
        return sum(1 for rnd in table.values() if rnd is not None) / len(table)

    @property
    def mean_coverage(self) -> float:
        if not self.tokens:
            return 0.0
        return sum(self.coverage(t.token_id) for t in self.tokens) / len(self.tokens)

    @property
    def complete(self) -> bool:
        return all(self.coverage(t.token_id) == 1.0 for t in self.tokens)

    def completion_round(self, token_id: str) -> Optional[int]:
        table = self.receive_rounds[token_id]
        if any(rnd is None for rnd in table.values()):
            return None
        return max(table.values())

    @property
    def overall_completion_round(self) -> Optional[int]:
        rounds = [self.completion_round(t.token_id) for t in self.tokens]
        if any(r is None for r in rounds):
            return None
        return max(rounds) if rounds else None


def run_multi_message_broadcast(
    graph: DualGraph,
    params: LBParams,
    sources: Iterable[Vertex],
    scheduler: Optional[LinkScheduler] = None,
    rng: Optional[random.Random] = None,
    max_phases: Optional[int] = None,
) -> MultiMessageResult:
    """Disseminate one token per source to every vertex of the network."""
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    for source in sources:
        if source not in graph:
            raise KeyError(f"source vertex {source!r} is not in the graph")
    if rng is None:
        rng = random.Random(0)

    tokens = [Token(token_id=f"token-{source}", source=source) for source in sources]
    tokens_by_source: Dict[Vertex, List[Token]] = {}
    for token in tokens:
        tokens_by_source.setdefault(token.source, []).append(token)

    clients = {
        vertex: MultiMessageClient(vertex, own_tokens=tokens_by_source.get(vertex, ()))
        for vertex in graph.vertices
    }
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, rng),
        scheduler=scheduler,
        environment=MacEnvironment(clients),
    )

    if max_phases is None:
        diameter = max(graph.reliable_eccentricity(source) for source in sources)
        # Each node may have to relay every token sequentially, hence the k factor.
        max_phases = (diameter + 2) * (params.tack_phases + 1) * max(len(tokens), 1)
    max_rounds = max_phases * params.phase_length

    def complete(_trace) -> bool:
        return all(
            len(client.received_round) == len(tokens) for client in clients.values()
        )

    simulator.run_until(complete, max_rounds=max_rounds, check_every=params.phase_length)

    result = MultiMessageResult(tokens=tokens, rounds_run=simulator.current_round)
    for token in tokens:
        result.receive_rounds[token.token_id] = {
            vertex: clients[vertex].received_round.get(token.token_id)
            for vertex in graph.vertices
        }
    return result
