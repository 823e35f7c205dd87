"""Shared non-fixture helpers used by unit and integration tests."""

from __future__ import annotations

import random

import pytest

from repro import DualGraph, IIDScheduler, LBParams, SeedParams, Simulator, SingleShotEnvironment
from repro import make_lb_processes
from repro.core.seed_agreement import SeedAgreementProcess
from repro.simulation.process import ProcessContext


def make_context(
    vertex,
    delta: int = 8,
    delta_prime: int = 16,
    r: float = 2.0,
    seed: int = 0,
) -> ProcessContext:
    """A process context with a deterministic private RNG."""
    return ProcessContext(
        vertex=vertex,
        delta=delta,
        delta_prime=delta_prime,
        r=r,
        rng=random.Random(seed),
    )


def make_seed_processes(graph: DualGraph, params: SeedParams, master_seed: int = 0):
    """One SeedAgreementProcess per vertex with derived private RNGs."""
    master = random.Random(master_seed)
    delta, delta_prime = graph.degree_bounds()
    processes = {}
    for vertex in sorted(graph.vertices, key=repr):
        ctx = ProcessContext(
            vertex=vertex,
            delta=max(delta, params.delta),
            delta_prime=max(delta_prime, delta),
            rng=random.Random(master.getrandbits(64)),
        )
        processes[vertex] = SeedAgreementProcess(ctx, params)
    return processes


def run_lb_scenario(
    graph: DualGraph,
    params: LBParams,
    senders,
    rounds: int,
    scheduler=None,
    master_seed: int = 0,
    scheduler_probability: float = 0.5,
):
    """Run LBAlg with a single-shot workload and return (simulator, trace)."""
    rng = random.Random(master_seed)
    if scheduler is None:
        scheduler = IIDScheduler(graph, probability=scheduler_probability, seed=master_seed)
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, rng),
        scheduler=scheduler,
        environment=SingleShotEnvironment(senders=senders),
    )
    trace = simulator.run(rounds)
    return simulator, trace


def assert_frozen(graph: DualGraph) -> None:
    """Both edge mutators refuse the (already indexed) graph, which stays
    unchanged."""
    reliable, unreliable = graph.reliable_edges, graph.unreliable_edges
    u, v = sorted(graph.vertices, key=repr)[:2]
    for add in (graph.add_reliable_edge, graph.add_unreliable_edge):
        with pytest.raises(RuntimeError, match="build a new DualGraph"):
            add(u, v)
    assert graph.reliable_edges == reliable
    assert graph.unreliable_edges == unreliable
