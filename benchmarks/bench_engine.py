"""Engine throughput benchmark: reference vs production rounds/sec.

This is the repo's engine yardstick.  For each network size it runs the same
fixed-seed LBAlg workload (saturating senders, i.i.d. link scheduler)
through the engine's two lanes:

* the **reference** engine (``fast_path=False, batch_path=False``: the
  generic resolver over per-round topology edge frozensets, every process
  stepped individually -- the Section-2 reference), under ``FULL`` traces;
* the **production** engine (all defaults: the bitmask kernel resolver with
  scheduler deltas and scheduled-edge masks shared across runs, batch cohort
  drivers with bulk cohort decode), under ``FULL`` traces (lane ``kernel``,
  identity-checked against the reference frame by frame).

It writes ``BENCH_engine.json`` at the repo root with rounds/sec, the
production-over-reference speedup, and each lane's per-section time shares
(from the engine's always-on section timers).  The lanes are timed in
interleaved (reference, kernel) pairs, and the speedup is the median of the
per-pair ratios, so load on a shared host slows both sides of the pairs it
covers instead of one lane's whole sample.  The five-lane history this
ladder replaced is summarized in ``docs/performance.md``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full grid
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke

Grid points run one after another: a throughput benchmark must not time
them side by side.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from typing import Any, Dict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro import (
    IIDScheduler,
    LBParams,
    Simulator,
    TraceMode,
    make_lb_processes,
    random_geographic_network,
)
from repro.analysis.sweep import format_table
from repro.simulation.environment import SaturatingEnvironment

from benchmarks.common import run_sweep, save_table

#: Approximate points per unit area; keeps the reliable degree roughly
#: constant as n grows (side scales with sqrt(n)).
DENSITY = 2.55

FULL_SIZES = (25, 100, 400)
QUICK_SIZES = (25, 100)
FULL_ROUNDS = {25: 1200, 100: 600, 400: 300}
#: Quick-mode rounds stay closer to the full run's steady state at n=100 so
#: the CI regression check is not dominated by warm-up rounds.
QUICK_ROUNDS = {25: 200, 100: 300}
MASTER_SEED = 2015  # PODC 2015

#: lane -> (fast_path, batch_path); both run under FULL traces.
ENGINES = {
    "reference": (False, False),
    "kernel": (True, True),
}

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_engine.json"
)


def build_workload(n: int, engine: str):
    """One fixed-seed LBAlg workload; identical construction for every lane."""
    import random

    fast_path, batch_path = ENGINES[engine]
    side = math.sqrt(n / DENSITY)
    graph, _ = random_geographic_network(n, side=side, r=2.0, rng=MASTER_SEED + n)
    delta, delta_prime = graph.degree_bounds()
    params = LBParams.small_for_testing(delta=delta, delta_prime=delta_prime)
    senders = sorted(graph.vertices)[: max(2, n // 5)]
    simulator = Simulator(
        graph,
        make_lb_processes(graph, params, random.Random(MASTER_SEED)),
        scheduler=IIDScheduler(graph, probability=0.5, seed=MASTER_SEED),
        environment=SaturatingEnvironment(senders=senders),
        trace_mode=TraceMode.FULL,
        fast_path=fast_path,
        batch_path=batch_path,
    )
    return simulator, params


#: Interleaved (reference, kernel) sample pairs per network size; the
#: speedup is the median of the per-pair ratios.
PAIRS = 7
#: Kernel samples per pair; the fastest is the pair's kernel figure.  A
#: kernel sample finishes in milliseconds, where a single GC pause or
#: scheduler hiccup skews it by double digits.
KERNEL_SAMPLES_PER_PAIR = 5


def _interleaved_samples(n: int, rounds: int):
    """Time both lanes in :data:`PAIRS` interleaved pairs.

    Every sample constructs an identical fixed-seed simulator, so the traces
    are interchangeable.  Returns each lane's first ``(simulator, trace)``
    for the identity checks and each lane's per-pair rounds/sec.
    """
    first: Dict[str, Any] = {}
    rps: Dict[str, list] = {engine: [] for engine in ENGINES}
    for _ in range(PAIRS):
        for engine, samples in (("reference", 1), ("kernel", KERNEL_SAMPLES_PER_PAIR)):
            best = 0.0
            for _ in range(samples):
                sim, _ = build_workload(n, engine)
                start = time.perf_counter()
                trace = sim.run(rounds)
                best = max(best, rounds / (time.perf_counter() - start))
                first.setdefault(engine, (sim, trace))
            rps[engine].append(best)
    return first, rps


def _breakdown(simulator) -> Dict[str, float]:
    """Each round-loop section's share of the run (always-on timers)."""
    total = sum(simulator.perf_stats.values()) or 1.0
    return {section: t / total for section, t in sorted(simulator.perf_stats.items())}


def _traces_identical(trace_a, trace_b, rounds: int) -> bool:
    if trace_a.events != trace_b.events:
        return False
    for round_number in range(1, rounds + 1):
        if trace_a.transmissions_in_round(round_number) != trace_b.transmissions_in_round(
            round_number
        ):
            return False
        if trace_a.receptions_in_round(round_number) != trace_b.receptions_in_round(
            round_number
        ):
            return False
    return True


def run_workload_point(n: int, rounds_by_n: Dict[int, int]) -> Dict[str, Any]:
    """Benchmark one network size across the engine lanes."""
    rounds = rounds_by_n[n]
    first, rps = _interleaved_samples(n, rounds)
    reference_sim, reference_trace = first["reference"]
    kernel_sim, kernel_trace = first["kernel"]
    assert reference_sim.lane == "reference"
    assert not reference_sim.uses_batch_stepping
    assert kernel_sim.lane == "kernel" and kernel_sim.uses_batch_stepping
    identical = _traces_identical(reference_trace, kernel_trace, rounds)

    graph = reference_sim.graph
    return {
        "delta": graph.max_reliable_degree,
        "delta_prime": graph.max_potential_degree,
        "reliable_edges": len(graph.reliable_edges),
        "unreliable_edges": len(graph.unreliable_edges),
        "rounds": rounds,
        "reference_rps": max(rps["reference"]),
        "kernel_rps": max(rps["kernel"]),
        "speedup_kernel": statistics.median(
            k / r for k, r in zip(rps["kernel"], rps["reference"])
        ),
        "trace_identical": identical,
        "events": len(reference_trace.events),
        "breakdown_reference": _breakdown(reference_sim),
        "breakdown_kernel": _breakdown(kernel_sim),
    }


def run_engine_benchmark(quick: bool = False):
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rounds_by_n = QUICK_ROUNDS if quick else FULL_ROUNDS
    return run_sweep(
        {"n": list(sizes)}, run_workload_point, common={"rounds_by_n": rounds_by_n}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grid for CI smoke runs")
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help="path of the JSON report")
    args = parser.parse_args(argv)

    result = run_engine_benchmark(quick=args.quick)

    columns = [
        "n",
        "delta",
        "rounds",
        "reference_rps",
        "kernel_rps",
        "speedup_kernel",
        "trace_identical",
    ]
    table = format_table(
        result.rows,
        columns=columns,
        title="Engine throughput: reference vs production (rounds/sec), IID scheduler",
    )
    print(table)
    # Quick smoke runs save under a separate name so they never clobber the
    # committed full-grid table that evidences the headline numbers.
    save_table("BENCH_engine_quick" if args.quick else "BENCH_engine", table)

    largest = max(row["n"] for row in result)
    headline = next(row for row in result if row["n"] == largest)
    report = {
        "benchmark": "bench_engine",
        "workload": "LBAlg, saturating senders, IIDScheduler(p=0.5), fixed seeds",
        "quick": bool(args.quick),
        "python": sys.version.split()[0],
        "headline_n": largest,
        # The headline is the production (kernel) lane over the reference
        # engine, both under FULL traces.
        "headline_speedup": headline["speedup_kernel"],
        "all_traces_identical": all(row["trace_identical"] for row in result),
        "workloads": result.rows,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {args.output}")
    print(
        f"n={largest}: kernel lane {headline['speedup_kernel']:.1f}x "
        f"rounds/sec vs the reference engine; "
        f"traces identical: {report['all_traces_identical']}"
    )

    if not report["all_traces_identical"]:
        print("ERROR: the production engine diverged from the reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
