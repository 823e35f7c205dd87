"""CI guard: fail when engine throughput regresses against the committed baseline.

Compares a freshly produced ``bench_engine`` JSON report (e.g. from
``bench_engine.py --quick``) against the repo's committed
``BENCH_engine.json`` at one network size and exits non-zero when a gated
engine's rounds/sec regressed by more than the allowed fraction.

Raw rounds/sec are only comparable between runs on the same machine, and CI
runners are not the machine the baseline was committed from.  The default
mode therefore gates each report's engine/reference speedup (the
``speedup_<engine>`` column: the median of per-pair ratios over interleaved
reference and engine samples), which cancels most of the hardware factor
and regresses only when the engine got slower *relative to the same code's
reference engine*.  Pass ``--absolute`` for raw rounds/sec comparisons
between runs on one machine.

The production lane ``kernel`` (FULL traces) is gated by default
(``--engines``).  Naming a lane the engine no longer has (``fast``,
``batched``, ``vector``, ``kernel_counters``) fails the gate rather than
skipping it.  A baseline that lacks an engine's column or
the requested network size is skipped for that engine with a warning.

The PR-7 suite-throughput report (``bench_suite_throughput.py`` writing
``BENCH_suite.json``) is gated separately via ``--suite-fresh``: its headline
``warm_speedup`` (warm store-served rerun over cold execution) is a
same-host ratio, so it is compared against an absolute floor
(``--min-warm-speedup``) rather than a committed baseline, and the report's
correctness claims (byte-identical warm rows, zero warm misses) must both
hold.

The PR-10 ``fleet`` section of the same report (multi-process work-stealing
executor on a skewed modeled-latency workload) is gated by
``--min-fleet-speedup``: fleet-of-4 over the workers=1 arm of the *same*
executor, a core-count-independent ratio, plus its two identity booleans
(fleet report == serial report, both on the skew suite and the real one).
Reports predating the section are skipped with a warning.

Usage (the CI smoke steps)::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick --output /tmp/smoke.json
    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --baseline BENCH_engine.json --fresh /tmp/smoke.json \
        --at-n 100 --max-regression 0.30

    PYTHONPATH=src:. python benchmarks/bench_suite_throughput.py \
        --quick --output /tmp/suite.json
    PYTHONPATH=src python benchmarks/check_bench_regression.py \
        --suite-fresh /tmp/suite.json --min-warm-speedup 20
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional


def _row_for(report: dict, n: int) -> Optional[dict]:
    for row in report.get("workloads", []):
        if row.get("n") == n:
            return row
    return None


#: Engine lanes deleted from the engine; gating one is a configuration error.
REMOVED_LANES = ("fast", "batched", "vector", "kernel_counters")


def _metric(row: dict, engine: str, absolute: bool):
    """``(value, None)`` for the gated metric, or ``(None, reason)``."""
    column = f"{engine}_rps" if absolute else f"speedup_{engine}"
    value = row.get(column)
    if value is None:
        return None, f"lacks the '{column}' column"
    return value, None


def check_engine(
    engine: str,
    baseline: dict,
    fresh: dict,
    at_n: int,
    max_regression: float,
    absolute: bool,
) -> Optional[bool]:
    """Gate one engine; True=pass, False=fail, None=skipped (data missing)."""
    if engine in REMOVED_LANES:
        print(
            f"FAIL [{engine}]: the {engine} lane was removed from the engine; "
            "gate 'kernel' instead",
            file=sys.stderr,
        )
        return False
    unit = "rounds/sec" if absolute else f"{engine}/reference speedup"
    for name, report in (("baseline", baseline), ("fresh", fresh)):
        if _row_for(report, at_n) is None:
            sizes = [r.get("n") for r in report.get("workloads", [])]
            print(f"SKIP [{engine}]: {name} report has no n={at_n} row (sizes: {sizes})")
            return None
    base_value, base_reason = _metric(_row_for(baseline, at_n), engine, absolute)
    fresh_value, fresh_reason = _metric(_row_for(fresh, at_n), engine, absolute)
    for name, value, reason in (
        ("baseline", base_value, base_reason),
        ("fresh", fresh_value, fresh_reason),
    ):
        if value is None:
            print(
                f"SKIP [{engine}]: {name} report {reason} at n={at_n} "
                f"(older benchmark format?)"
            )
            return None

    floor = base_value * (1.0 - max_regression)
    ratio = fresh_value / base_value if base_value else float("inf")
    allowed = 1.0 - max_regression
    print(
        f"n={at_n} [{engine}]: baseline {unit} {base_value:.2f}, fresh {fresh_value:.2f}, "
        f"floor {floor:.2f} (max regression {max_regression:.0%})"
    )
    if fresh_value < floor:
        print(
            f"FAIL [{engine}]: measured fresh/baseline ratio {ratio:.3f} is below the "
            f"allowed {allowed:.3f} -- the {engine} engine {unit} at n={at_n} "
            f"regressed more than {max_regression:.0%} vs the committed baseline",
            file=sys.stderr,
        )
        return False
    print(f"OK [{engine}]: ratio {ratio:.3f} >= allowed {allowed:.3f}")
    return True


def check_fleet(fresh: dict, min_fleet_speedup: float) -> Optional[bool]:
    """Gate the PR-10 ``fleet`` section; True=pass, False=fail, None=skipped.

    Like ``warm_speedup``, the fleet speedup divides two same-host timings --
    and because both arms run the same executor on a *modeled-latency*
    workload (see ``bench_suite_throughput.py``), it measures dispatch
    overlap and steal balance rather than CPU core count, so the absolute
    floor holds even on single-core runners.  The identity booleans are hard
    correctness claims: a fast fleet that produced a different report is a
    lease-protocol bug, not a perf number.
    """
    fleet = fresh.get("fleet")
    if not fleet:
        print(
            "SKIP [fleet]: report has no 'fleet' section "
            "(pre-fleet benchmark format?)"
        )
        return None
    ok = True
    for key, meaning in (
        ("skew_identical", "fleet skew report equals its serial (workers=1) run"),
        ("merge_identical", "cold fleet report equals the serial run_suite report"),
    ):
        if not fleet.get(key, False):
            print(f"FAIL [fleet]: report says not {key} ({meaning})", file=sys.stderr)
            ok = False
    speedup = fleet.get("speedup")
    if speedup is None:
        print("FAIL [fleet]: section lacks a 'speedup' column", file=sys.stderr)
        return False
    print(
        f"fleet: skew speedup {speedup:.1f} over workers=1, "
        f"floor {min_fleet_speedup:.1f} "
        f"(serial {fleet.get('serial_s', float('nan')):.4f}s, "
        f"fleet {fleet.get('fleet_s', float('nan')):.4f}s, "
        f"workers={fleet.get('workers', '?')}, "
        f"steals={fleet.get('steals', '?')}, "
        f"cpu_count={fleet.get('cpu_count', '?')})"
    )
    if speedup < min_fleet_speedup:
        print(
            f"FAIL [fleet]: fleet-of-{fleet.get('workers', '?')} is only "
            f"{speedup:.1f}x faster than the workers=1 arm on the skewed "
            f"workload, below the required {min_fleet_speedup:.1f}x -- "
            "dispatch overlap or lease balance regressed",
            file=sys.stderr,
        )
        ok = False
    elif ok:
        print(f"OK [fleet]: speedup {speedup:.1f} >= floor {min_fleet_speedup:.1f}")
    return ok


def check_suite(fresh: dict, min_warm_speedup: float) -> bool:
    """Gate a bench_suite_throughput report; True=pass, False=fail.

    The warm-over-cold speedup divides two timings from the same run on the
    same host, so (unlike raw rounds/sec) an absolute floor is meaningful on
    any machine.  The identity booleans are hard correctness claims -- a
    fast warm rerun that recomputed trials or changed a row is a cache bug,
    not a perf regression -- so they fail the gate regardless of timing.
    """
    ok = True
    if not fresh.get("rows_identical", False):
        print(
            "FAIL [suite]: report says not rows_identical (warm rerun reproduced "
            "the cold run's metric rows)",
            file=sys.stderr,
        )
        ok = False
    warm_misses = fresh.get("warm_misses")
    if warm_misses != 0:
        print(
            f"FAIL [suite]: warm rerun recomputed {warm_misses} trial(s) "
            "(expected every record served from the store)",
            file=sys.stderr,
        )
        ok = False
    speedup = fresh.get("warm_speedup")
    if speedup is None:
        print("FAIL [suite]: report lacks a 'warm_speedup' column", file=sys.stderr)
        return False
    print(
        f"suite: warm/cold speedup {speedup:.1f}, floor {min_warm_speedup:.1f} "
        f"(cold {fresh.get('cold_s', float('nan')):.4f}s, "
        f"warm {fresh.get('warm_s', float('nan')):.4f}s, "
        f"{fresh.get('tasks', '?')} tasks)"
    )
    if speedup < min_warm_speedup:
        print(
            f"FAIL [suite]: warm rerun is only {speedup:.1f}x faster than cold, "
            f"below the required {min_warm_speedup:.1f}x -- the result store's "
            "warm path regressed",
            file=sys.stderr,
        )
        ok = False
    elif ok:
        print(f"OK [suite]: speedup {speedup:.1f} >= floor {min_warm_speedup:.1f}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed BENCH_engine.json")
    parser.add_argument("--fresh", help="freshly produced engine report to check")
    parser.add_argument("--at-n", type=int, default=100, help="network size to compare")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum allowed fractional drop (0.30 = fail below 70%% of baseline)",
    )
    parser.add_argument(
        "--engines",
        default="kernel",
        help="comma-separated engine names to gate (each needs an <engine>_rps "
        "column; engines missing from either report are skipped with a "
        "warning, removed lanes fail)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw rounds/sec (same-machine runs only) instead of the "
        "hardware-independent engine/reference speedup",
    )
    parser.add_argument(
        "--suite-fresh",
        help="freshly produced bench_suite_throughput report (BENCH_suite.json "
        "format) to gate on warm-over-cold speedup and cache correctness",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=20.0,
        help="minimum required warm/cold speedup in the --suite-fresh report",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=2.5,
        help="minimum required fleet-over-serial speedup on the skewed "
        "workload in the --suite-fresh report's 'fleet' section (sections "
        "missing from older reports are skipped with a warning)",
    )
    args = parser.parse_args(argv)

    if args.suite_fresh is None and (args.baseline is None or args.fresh is None):
        parser.error("nothing to gate: pass --baseline/--fresh and/or --suite-fresh")
    if (args.baseline is None) != (args.fresh is None):
        parser.error("--baseline and --fresh must be given together")

    failed = False

    if args.suite_fresh is not None:
        with open(args.suite_fresh) as handle:
            suite_fresh = json.load(handle)
        if not check_suite(suite_fresh, args.min_warm_speedup):
            failed = True
        if check_fleet(suite_fresh, args.min_fleet_speedup) is False:
            failed = True

    if args.baseline is not None:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.fresh) as handle:
            fresh = json.load(handle)

        if not fresh.get("all_traces_identical", False):
            print("FAIL: fresh report says engine traces diverged", file=sys.stderr)
            return 1

        engines = [name.strip() for name in args.engines.split(",") if name.strip()]
        if not engines:
            print("FAIL: --engines selected nothing to gate", file=sys.stderr)
            return 1

        verdicts = [
            check_engine(
                engine, baseline, fresh, args.at_n, args.max_regression, args.absolute
            )
            for engine in engines
        ]
        if any(verdict is False for verdict in verdicts):
            failed = True
        if all(verdict is None for verdict in verdicts):
            # Nothing was comparable at all -- almost certainly a
            # misconfiguration (wrong --at-n, or a report from a different
            # benchmark entirely).
            print(
                "FAIL: no engine could be compared between the two reports",
                file=sys.stderr,
            )
            return 1

    if failed:
        return 1
    print("OK: no throughput regression beyond the allowed margin")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
