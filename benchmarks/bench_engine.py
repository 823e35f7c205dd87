"""Engine throughput benchmark: reference vs production rounds/sec.

This is the repo's engine yardstick.  For each network size it runs the same
fixed-seed LBAlg workload (saturating senders, i.i.d. link scheduler)
through the engine's two lanes:

* the **reference** engine (``fast_path=False, batch_path=False``: the
  generic resolver over per-round topology edge frozensets, every process
  stepped individually -- the Section-2 reference), under ``FULL`` traces;
* the **production** engine (all defaults: the bitmask kernel resolver with
  scheduler deltas and scheduled-edge masks shared across runs, batch cohort
  drivers with bulk cohort decode), once under ``FULL`` traces (lane
  ``kernel``, identity-checked against the reference frame by frame) and
  once under ``COUNTERS`` (lane ``counters-kernel``, the counters-only loop,
  checked against the reference's aggregate counters).

It writes ``BENCH_engine.json`` at the repo root with rounds/sec, the
production-over-reference speedups, and each lane's per-section time shares
(from the engine's always-on section timers).  The five-lane history this
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
#: The acceptance bar: the counters-only production lane over the reference
#: engine at the largest n (this is the report's ``headline_speedup``).
TARGET_SPEEDUP = 150.0

#: lane -> (fast_path, batch_path, trace_mode).
ENGINES = {
    "reference": (False, False, TraceMode.FULL),
    "kernel": (True, True, TraceMode.FULL),
    "kernel_counters": (True, True, TraceMode.COUNTERS),
}

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_engine.json"
)


def build_workload(n: int, engine: str):
    """One fixed-seed LBAlg workload; identical construction for every lane."""
    import random

    fast_path, batch_path, trace_mode = ENGINES[engine]
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
        trace_mode=trace_mode,
        fast_path=fast_path,
        batch_path=batch_path,
    )
    return simulator, params


#: Timing samples per engine config; rounds/sec is the best of these.  The
#: fastest configs finish a whole sample in tens of milliseconds, where a
#: single GC pause or scheduler hiccup skews one sample by double digits --
#: best-of-N keeps the committed numbers and the CI regression gate stable.
TIMING_REPEATS = 3
#: Keep sampling (beyond ``TIMING_REPEATS``) until this much wall-clock has
#: been spent inside timed runs, up to ``TIMING_MAX_REPEATS``.  Slow configs
#: (the reference spends seconds per sample) stay at the minimum; the kernel
#: lanes finish a sample in tens of milliseconds and get best-of-~20, which
#: is what makes a microsecond-scale per-round headline reproducible on a
#: machine with double-digit run-to-run noise.
TIMING_MIN_SECONDS = 1.0
TIMING_MAX_REPEATS = 20


def _timed_run(n: int, rounds: int, engine: str):
    """Build and run the workload repeatedly; report the best rounds/sec.

    Every repeat constructs an identical fixed-seed simulator, so the traces
    are interchangeable; the first run's simulator and trace are returned for
    the identity checks.
    """
    simulator = trace = None
    best_rps = 0.0
    spent = 0.0
    for repeat in range(TIMING_MAX_REPEATS):
        if repeat >= TIMING_REPEATS and spent >= TIMING_MIN_SECONDS:
            break
        sim, _ = build_workload(n, engine)
        start = time.perf_counter()
        this_trace = sim.run(rounds)
        elapsed = time.perf_counter() - start
        spent += elapsed
        best_rps = max(best_rps, rounds / elapsed)
        if simulator is None:
            simulator, trace = sim, this_trace
    return simulator, trace, best_rps


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


def _counters_match(full_trace, counters_trace) -> bool:
    """Aggregate-counter parity: all a COUNTERS-mode trace retains."""
    return (
        counters_trace.num_rounds == full_trace.num_rounds
        and counters_trace.event_counts == full_trace.event_counts
        and counters_trace.num_transmissions == full_trace.num_transmissions
        and counters_trace.num_receptions == full_trace.num_receptions
    )


def run_workload_point(n: int, rounds_by_n: Dict[int, int]) -> Dict[str, Any]:
    """Benchmark one network size across the engine lanes."""
    rounds = rounds_by_n[n]
    reference_sim, reference_trace, reference_rps = _timed_run(n, rounds, "reference")
    kernel_sim, kernel_trace, kernel_rps = _timed_run(n, rounds, "kernel")
    counters_sim, counters_trace, kernel_counters_rps = _timed_run(
        n, rounds, "kernel_counters"
    )
    assert reference_sim.lane == "reference"
    assert not reference_sim.uses_batch_stepping
    assert kernel_sim.lane == "kernel" and kernel_sim.uses_batch_stepping
    assert counters_sim.lane == "counters-kernel", (
        "the benchmark workload must engage the counters-only loop"
    )
    identical = _traces_identical(
        reference_trace, kernel_trace, rounds
    ) and _counters_match(reference_trace, counters_trace)

    graph = reference_sim.graph
    return {
        "delta": graph.max_reliable_degree,
        "delta_prime": graph.max_potential_degree,
        "reliable_edges": len(graph.reliable_edges),
        "unreliable_edges": len(graph.unreliable_edges),
        "rounds": rounds,
        "reference_rps": reference_rps,
        "kernel_rps": kernel_rps,
        "kernel_counters_rps": kernel_counters_rps,
        "speedup_kernel": kernel_rps / reference_rps,
        "speedup_kernel_counters": kernel_counters_rps / reference_rps,
        "trace_identical": identical,
        "events": len(reference_trace.events),
        "breakdown_reference": _breakdown(reference_sim),
        "breakdown_kernel": _breakdown(kernel_sim),
        "breakdown_kernel_counters": _breakdown(counters_sim),
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
        "kernel_counters_rps",
        "speedup_kernel",
        "speedup_kernel_counters",
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
        "target_speedup": TARGET_SPEEDUP,
        "headline_n": largest,
        # The headline is the counters-only production lane over the
        # reference engine's FULL-trace rounds/sec.
        "headline_speedup": headline["speedup_kernel_counters"],
        "headline_speedup_kernel": headline["speedup_kernel"],
        "all_traces_identical": all(row["trace_identical"] for row in result),
        "workloads": result.rows,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\nwrote {args.output}")
    print(
        f"n={largest}: counters lane {headline['speedup_kernel_counters']:.1f}x "
        f"rounds/sec vs the reference engine (target {TARGET_SPEEDUP:.0f}x; "
        f"kernel FULL {headline['speedup_kernel']:.1f}x); "
        f"traces identical: {report['all_traces_identical']}"
    )

    if not report["all_traces_identical"]:
        print("ERROR: the production engine diverged from the reference", file=sys.stderr)
        return 1
    if not args.quick and report["headline_speedup"] < TARGET_SPEEDUP:
        # Full-grid runs evidence the committed headline; warn loudly (but do
        # not fail -- machine variance is not a correctness problem).
        print(
            f"WARNING: headline speedup {report['headline_speedup']:.1f}x is below "
            f"the {TARGET_SPEEDUP:.0f}x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
