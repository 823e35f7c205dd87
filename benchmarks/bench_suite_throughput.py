"""Suite throughput benchmark: cold vs warm (result store) vs fleet runs.

This is the performance yardstick for the content-addressed
:class:`~repro.scenarios.store.ResultStore` and the fleet executor.  It
builds a synthetic seed-agreement suite (every trial is a standalone
``SeedAlg`` run to completion -- cheap enough to benchmark, expensive enough
that recomputation dominates store I/O) and times two executions:

* **cold** -- a fresh store: every trial executes and is written back;
* **warm** -- the same store again: every trial must be a cache hit
  (``store.misses == 0``) and the assembled metric rows must be
  *byte-identical* to the cold run's.

The headline is ``warm_speedup = cold_s / warm_s``: how much faster a rerun
is when every record is served from the store.  The committed baseline at
the repo root is ``BENCH_suite.json``; CI regenerates a ``--quick`` report
and gates ``warm_speedup`` (and the identity booleans) through
``check_bench_regression.py --suite-fresh``.  The speedup is a ratio of two
runs on the same host, so it is comparable across machines.

The PR-10 ``fleet`` section benchmarks the multi-process work-stealing
executor (:func:`~repro.scenarios.fleet.run_suite_fleet`) on a *skewed*
workload -- one task modeled several times heavier than the rest, the case
where a fixed ``1/N`` split of the task list would straggle behind its heavy
slice.
Per-task cost is modeled as blocking latency through the executor's
``task_runner`` seam and **both arms run the same executor** (``workers=1``
vs ``workers=4``), so the ratio measures dispatch overlap and steal balance
-- properties of the lease protocol -- rather than CPU core count, and the
``>= 2.5x`` gate (``--min-fleet-speedup``) holds even on single-core CI
runners.  Merge identity is asserted separately on the *real* suite: a cold
fleet-of-4 run must produce a report byte-identical (modulo timings) to the
serial ``run_suite`` report.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_suite_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_suite_throughput.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.analysis.sweep import format_table
from repro.scenarios import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    SuiteEntry,
    SuiteReport,
    SuiteSpec,
    TopologySpec,
    deterministic_report_dict,
    run_suite,
    run_suite_fleet,
)
from repro.scenarios.fleet import default_task_runner

from benchmarks.common import add_jobs_argument, default_jobs, save_table

#: The PR-7 acceptance bar: a fully warm rerun over cold execution.
TARGET_WARM_SPEEDUP = 20.0

#: The PR-10 acceptance bar: cold fleet-of-4 over cold serial on the skewed
#: modeled-latency workload (same executor both arms; see module docstring).
TARGET_FLEET_SPEEDUP = 2.5

FLEET_WORKERS = 4

#: Skew workload: one heavy task pinned at exactly total/4 so a perfectly
#: balanced 4-worker fleet bottoms out on it -- any steal imbalance or
#: dispatch serialization shows up directly in the measured wall time.
SKEW_LIGHT_TASKS = 15
SKEW_LIGHT_S = 0.2
SKEW_HEAVY_S = 1.0

#: spec.name -> modeled blocking latency, populated before the fleet forks so
#: workers inherit it through fork memory (module-level: fork-visible without
#: pickling, exactly like the executor's own task_runner seam).
_MODELED_LATENCIES: Dict[str, float] = {}


def modeled_latency_task_runner(spec, trial_index):
    """Sleep the task's modeled cost, then run the real (cheap) trial.

    Records stay genuine -- content-addressed, mergeable, byte-identical
    across arms -- while wall time is dominated by the modeled latency."""
    time.sleep(_MODELED_LATENCIES.get(spec.name, 0.0))
    return default_task_runner(spec, trial_index)

FULL_GRID = {"deltas": (8, 16), "epsilons": (0.2, 0.1), "trials": 6}
QUICK_GRID = {"deltas": (8,), "epsilons": (0.2,), "trials": 6}

OUTPUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_suite.json"
)

THROUGHPUT_METRICS = (
    MetricSpec("params"),
    MetricSpec("seed_owners"),
    MetricSpec("commit_latency"),
)


def build_throughput_suite(quick: bool = False) -> SuiteSpec:
    """A deterministic seed-agreement grid sized for benchmarking the store."""
    grid = QUICK_GRID if quick else FULL_GRID
    entries: List[SuiteEntry] = []
    for target_delta in grid["deltas"]:
        for epsilon in grid["epsilons"]:
            for trial in range(grid["trials"]):
                spec = ScenarioSpec(
                    name=f"store-bench-d{target_delta}-e{epsilon}-t{trial}",
                    topology=TopologySpec(
                        "target_degree",
                        {"target_delta": target_delta, "seed": 500 * target_delta + trial},
                    ),
                    algorithm=AlgorithmSpec("seed_agreement", {"epsilon": epsilon}),
                    scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": trial}),
                    environment=EnvironmentSpec("null", {}),
                    engine=EngineConfig(trace_mode="auto"),
                    run=RunPolicy(
                        rounds=1,
                        rounds_unit="algorithm",
                        trials=1,
                        master_seed=trial,
                        seed_policy="fixed",
                    ),
                    metrics=THROUGHPUT_METRICS,
                )
                entries.append(
                    SuiteEntry(
                        id=spec.name,
                        scenario=spec,
                        group=f"d{target_delta}-e{epsilon}",
                    )
                )
    return SuiteSpec(
        name="bench-suite-throughput",
        description="synthetic grid exercising the result store and sharding",
        entries=tuple(entries),
    )


def build_skew_suite() -> SuiteSpec:
    """16 trivially-cheap tasks whose *modeled* costs are heavily skewed.

    Entry 0 carries :data:`SKEW_HEAVY_S`; the rest carry
    :data:`SKEW_LIGHT_S`.  A static ``1/4`` split would leave the heavy
    slice straggling ~2x behind; dynamic leases let the other workers
    drain the light tail while one worker sits on the heavy task.
    """
    entries: List[SuiteEntry] = []
    _MODELED_LATENCIES.clear()
    for index in range(1 + SKEW_LIGHT_TASKS):
        spec = ScenarioSpec(
            name=f"skew-bench-{index}",
            topology=TopologySpec("line", {"n": 5}),
            algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
            scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": index}),
            environment=EnvironmentSpec("single_shot", {"senders": [0]}),
            engine=EngineConfig(trace_mode="auto"),
            run=RunPolicy(
                rounds=1,
                rounds_unit="tack",
                trials=1,
                master_seed=index,
                seed_policy="fixed",
            ),
            metrics=(MetricSpec("counters"),),
        )
        _MODELED_LATENCIES[spec.name] = SKEW_HEAVY_S if index == 0 else SKEW_LIGHT_S
        entries.append(SuiteEntry(id=spec.name, scenario=spec, group="skew"))
    return SuiteSpec(
        name="bench-fleet-skew",
        description="skewed modeled-latency workload for the fleet executor",
        entries=tuple(entries),
    )


def run_fleet_benchmark(
    real_suite: SuiteSpec, workdir: str, real_serial_det: Dict[str, Any]
) -> Dict[str, Any]:
    """The PR-10 fleet section: skewed speedup + real-suite merge identity.

    ``real_serial_det`` is the deterministic dict of the cold serial run of
    ``real_suite`` (already measured by the caller -- no need to rerun it).
    """
    skew = build_skew_suite()
    modeled_total = SKEW_HEAVY_S + SKEW_LIGHT_TASKS * SKEW_LIGHT_S

    serial_dir = os.path.join(workdir, "fleet-serial")
    serial, serial_s = _timed(
        lambda: run_suite_fleet(
            skew,
            workers=1,
            store=serial_dir,
            prebuild=False,
            task_runner=modeled_latency_task_runner,
        )
    )
    fleet_dir = os.path.join(workdir, "fleet-skew")
    fleet, fleet_s = _timed(
        lambda: run_suite_fleet(
            skew,
            workers=FLEET_WORKERS,
            store=fleet_dir,
            chunk_size=1,
            prebuild=False,
            task_runner=modeled_latency_task_runner,
        )
    )

    # Merge identity on the *real* throughput suite: a cold fleet run must
    # reproduce the serial run_suite report (modulo wall-clock fields).
    real_fleet_dir = os.path.join(workdir, "fleet-real")
    real_fleet = run_suite_fleet(
        real_suite, workers=FLEET_WORKERS, store=real_fleet_dir
    )
    return {
        "workers": FLEET_WORKERS,
        "tasks": 1 + SKEW_LIGHT_TASKS,
        "modeled_total_s": modeled_total,
        "modeled_heavy_s": SKEW_HEAVY_S,
        "modeled_light_s": SKEW_LIGHT_S,
        "serial_s": serial_s,
        "fleet_s": fleet_s,
        "speedup": serial_s / fleet_s if fleet_s > 0 else float("inf"),
        "steals": int(fleet.store_stats.get("steals", 0)),
        "skew_identical": deterministic_report_dict(fleet.to_dict())
        == deterministic_report_dict(serial.to_dict()),
        "merge_identical": deterministic_report_dict(real_fleet.to_dict())
        == real_serial_det,
        "cpu_count": os.cpu_count(),
        "target_speedup": TARGET_FLEET_SPEEDUP,
        "methodology": (
            "per-task cost modeled as blocking latency via the task_runner "
            "seam; both arms run run_suite_fleet (workers=1 vs "
            f"{FLEET_WORKERS}) so the ratio measures dispatch overlap and "
            "steal balance, not CPU core count"
        ),
    }


def _metric_rows_blob(report: SuiteReport) -> str:
    """Canonical serialization of every trial's metric row, for byte equality."""
    rows = [t.metric_row for e in report.entries for t in e.result.trials]
    return json.dumps(rows, sort_keys=True)


def _timed(fn) -> Tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def run_benchmark(quick: bool = False, jobs: Optional[int] = None) -> Dict[str, Any]:
    if jobs is None:
        jobs = default_jobs()
    suite = build_throughput_suite(quick=quick)
    task_count = sum(entry.scenario.run.trials for entry in suite.entries)

    workdir = tempfile.mkdtemp(prefix="bench-suite-store-")
    try:
        store_dir = os.path.join(workdir, "store")
        cold, cold_s = _timed(lambda: run_suite(suite, jobs=jobs, store=store_dir))
        warm, warm_s = _timed(lambda: run_suite(suite, jobs=jobs, store=store_dir))
        cold_det = deterministic_report_dict(cold.to_dict())
        fleet = run_fleet_benchmark(suite, workdir, cold_det)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    report: Dict[str, Any] = {
        "benchmark": "bench_suite_throughput",
        "quick": quick,
        "jobs": jobs,
        "suite_fingerprint": suite.fingerprint(),
        "entries": len(suite.entries),
        "tasks": task_count,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": warm_speedup,
        "warm_hits": int(warm.store_stats["hits"]),
        "warm_misses": int(warm.store_stats["misses"]),
        "rows_identical": _metric_rows_blob(cold) == _metric_rows_blob(warm),
        "target_warm_speedup": TARGET_WARM_SPEEDUP,
        "fleet": fleet,
    }
    return report


def render_table(report: Dict[str, Any]) -> str:
    rows = [
        {
            "mode": "cold (fresh store)",
            "elapsed_s": round(report["cold_s"], 4),
            "speedup_vs_cold": 1.0,
        },
        {
            "mode": "warm (all hits)",
            "elapsed_s": round(report["warm_s"], 4),
            "speedup_vs_cold": round(report["warm_speedup"], 1),
        },
    ]
    fleet = report.get("fleet")
    if fleet:
        rows.append(
            {
                "mode": f"fleet skew serial (workers=1, {fleet['tasks']} tasks)",
                "elapsed_s": round(fleet["serial_s"], 4),
                "speedup_vs_cold": "",
            }
        )
        rows.append(
            {
                "mode": f"fleet skew (workers={fleet['workers']}, work-stealing)",
                "elapsed_s": round(fleet["fleet_s"], 4),
                "speedup_vs_cold": "",
            }
        )
    title = (
        f"Suite throughput ({report['tasks']} tasks, jobs={report['jobs']}): "
        f"warm rerun {report['warm_speedup']:.0f}x over cold "
        f"(target >= {report['target_warm_speedup']:.0f}x); "
        f"warm misses={report['warm_misses']}, "
        f"rows identical={report['rows_identical']}"
    )
    if fleet:
        title += (
            f"; fleet-of-{fleet['workers']} skew speedup "
            f"{fleet['speedup']:.1f}x (target >= {fleet['target_speedup']:.1f}x, "
            f"{fleet['steals']} steal(s), fleet == serial: "
            f"{fleet['merge_identical']})"
        )
    return format_table(rows, columns=["mode", "elapsed_s", "speedup_vs_cold"], title=title)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        default=OUTPUT_PATH,
        help="where to write the JSON report (default: repo-root BENCH_suite.json)",
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick, jobs=args.jobs)
    table = render_table(report)
    print(table)
    # Quick smoke runs save under a separate name so they never clobber the
    # committed full-grid table.
    save_table("BENCH_suite_quick" if args.quick else "BENCH_suite", table)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.output}")

    failures = []
    if not report["rows_identical"]:
        failures.append("warm rerun's metric rows differ from the cold run's")
    if report["warm_misses"] != 0:
        failures.append(f"warm rerun recomputed {report['warm_misses']} trial(s)")
    fleet = report.get("fleet", {})
    if not fleet.get("skew_identical"):
        failures.append("fleet skew report differs from its serial (workers=1) run")
    if not fleet.get("merge_identical"):
        failures.append("cold fleet report differs from the serial run_suite report")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
