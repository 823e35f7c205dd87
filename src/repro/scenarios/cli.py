"""The ``python -m repro`` command line: run scenario JSON files end to end.

Subcommands:

* ``run SCENARIO.json`` -- execute one scenario and print (or write) its
  :class:`~repro.scenarios.runtime.RunResult` summary.  Exits non-zero when
  the result is empty (no trial ran a round / nothing was ever transmitted),
  which is what the CI smoke job asserts against.
* ``sweep SCENARIO.json --grid path=v1,v2,...`` -- run an override grid as a
  suite (one entry per point, optionally on a ``--jobs`` worker pool) and
  print the result table.
* ``suite SUITE.json`` -- run a scenario-suite manifest (every entry, every
  trial, optionally on a worker pool) and print its pooled per-group report;
  ``--json`` / ``--markdown`` write the full :class:`~repro.scenarios.suite.SuiteReport`.
  ``--store DIR`` serves/persists trials through the content-addressed
  result store, which is also the checkpoint: rerunning a killed run against
  the same store executes only what is missing.  ``--fleet N`` dispatches
  the task list across N OS worker processes with crash-safe work-stealing
  leases (:func:`repro.scenarios.fleet.run_suite_fleet`).
* ``serve --store DIR`` -- run the async scenario service: an HTTP job
  queue accepting suite/scenario submissions with in-flight + at-rest
  dedup, NDJSON progress streaming, per-job retry, and graceful shutdown
  that resumes from the store (see docs/service.md).
* ``store stats|gc DIR`` -- inspect or compact a result store.
* ``list`` -- the registered components (including metrics), with their
  sample arguments.

Values on ``--set`` / ``--grid`` are parsed as JSON when possible and fall
back to strings, so ``--set scheduler.args.probability=0.25`` and
``--set topology.name=grid`` both do what they look like.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.analysis.sweep import format_table

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

# Each subcommand imports the layers it runs, so ``list`` and ``store`` do
# not load the runtime, and only ``suite --fleet`` and ``serve`` load the
# fleet and the service (with ``multiprocessing`` and ``asyncio``).


def run_suite_fleet(*args: Any, **kwargs: Any):
    """:func:`repro.scenarios.fleet.run_suite_fleet`, imported on first use.

    A module-level name, so ``perfbench/spans.py`` can time the fleet
    coordinator by wrapping it."""
    from repro.scenarios.fleet import run_suite_fleet as run_fleet

    return run_fleet(*args, **kwargs)


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_set_options(options: Optional[Sequence[str]]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for option in options or ():
        path, sep, value = option.partition("=")
        if not sep or not path:
            raise SystemExit(f"--set expects PATH=VALUE, got {option!r}")
        overrides[path] = _parse_value(value)
    return overrides


def _parse_grid_values(values: str) -> List[Any]:
    """Parse a ``--grid`` value list without shredding JSON on inner commas.

    The text is first tried as one JSON array (``[values]``), which handles
    list- and object-valued entries like ``[0,1],[2,3]`` or
    ``{"select":"first","count":1},{"select":"all"}``; only if that fails is
    it split on top-level commas with each fragment parsed individually
    (JSON when possible, bare string otherwise).
    """
    try:
        parsed = json.loads(f"[{values}]")
        if isinstance(parsed, list) and parsed:
            return parsed
    except ValueError:
        pass
    return [_parse_value(value) for value in values.split(",")]


def _parse_grid_options(options: Optional[Sequence[str]]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for option in options or ():
        path, sep, values = option.partition("=")
        if not sep or not path or not values:
            raise SystemExit(f"--grid expects PATH=V1,V2,..., got {option!r}")
        grid[path] = _parse_grid_values(values)
    return grid


def _load_spec(path: str, set_options: Optional[Sequence[str]]) -> ScenarioSpec:
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec.load(path)
    overrides = _parse_set_options(set_options)
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios.runtime import run

    spec = _load_spec(args.scenario, args.set)
    result = run(spec, keep=False)
    summary = result.to_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if not args.quiet:
        print(f"scenario   : {spec.name}  (fingerprint {result.fingerprint})")
        if spec.description:
            print(f"description: {spec.description}")
        print(
            f"components : topology={spec.topology.name} algorithm={spec.algorithm.name} "
            f"scheduler={spec.scheduler.name} environment={spec.environment.name}"
        )
        print(
            format_table(
                [t.to_dict()["metrics"] | {"trial": t.trial_index, "seed": t.seed} for t in result.trials],
                columns=["trial", "seed", "rounds", "transmissions", "receptions", "bcasts", "acks", "recvs", "rounds_per_s"],
                title="per-trial results:",
            )
        )
        print()
        print("aggregate  : " + json.dumps(result.metrics, sort_keys=True, default=str))
    if not result or result.metrics.get("transmissions", 0) == 0:
        print("ERROR: scenario produced an empty result", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios.runtime import run_many

    spec = _load_spec(args.scenario, args.set)
    grid = _parse_grid_options(args.grid)
    if not grid:
        raise SystemExit("sweep needs at least one --grid PATH=V1,V2,... option")
    result = run_many(
        spec,
        grid,
        jobs=args.jobs,
        base_seed=args.base_seed,
    )
    columns = list(grid) + [
        "trials",
        "rounds",
        "transmissions",
        "receptions",
        "acks",
        "recvs",
        "rounds_per_s",
    ]
    print(format_table(result.rows, columns=columns, title=f"sweep over {spec.name}:"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {"scenario": spec.to_dict(), "grid": grid, "rows": result.rows},
                handle,
                indent=2,
                sort_keys=True,
                default=str,
            )
        print(f"wrote {args.json}")
    # Mirror `run`'s emptiness check: a sweep that completes but never
    # transmitted anywhere is a degenerate configuration, not a result.
    if not any(row.get("transmissions", 0) > 0 for row in result.rows):
        print("ERROR: sweep produced no transmissions in any grid point", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.scenarios.suite import SuiteSpec, run_suite

    suite = SuiteSpec.load(args.suite)
    if args.fleet is not None:
        if args.fleet < 1:
            raise SystemExit(f"--fleet needs at least 1 worker, got {args.fleet}")
        report = run_suite_fleet(
            suite,
            workers=args.fleet,
            store=args.store,
            prebuild=not args.no_prebuild,
        )
        if not args.quiet and report.store_stats is not None:
            stats = report.store_stats
            print(
                f"fleet      : {stats['workers']} worker process(es), "
                f"{stats['steals']} lease steal(s)"
            )
    else:
        report = run_suite(
            suite,
            jobs=args.jobs,
            prebuild=not args.no_prebuild,
            store=args.store,
        )
    if not args.quiet:
        print(
            f"suite      : {suite.name}  (fingerprint {report.fingerprint}, "
            f"{len(suite.entries)} entries, {report.elapsed_s:.2f}s)"
        )
        if suite.description:
            print(f"description: {suite.description}")
        if report.store_stats is not None:
            stats = report.store_stats
            print(
                f"store      : {stats['hits']} of {stats['tasks']} task(s) from the "
                f"store, {stats['misses']} executed"
            )
        print()
        print(report.format_table(by="entry", columns=args.columns))
        print()
        print(report.format_table(by="group", columns=args.columns))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown())
        print(f"wrote {args.markdown}")
    # Mirror `run`/`sweep`: a suite that completes without a single
    # transmission anywhere is a degenerate configuration, not a result.
    if not report or not any(
        e.result.metrics.get("transmissions", 0) > 0 for e in report.entries
    ):
        print("ERROR: suite produced an empty report", file=sys.stderr)
        return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.scenarios.store import ResultStore

    store = ResultStore(args.dir)
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"store      : {stats['root']}")
        print(f"buckets    : {stats['files']} file(s), {stats['bytes']} bytes")
        print(f"entries    : {stats['entries']} distinct key(s) over {stats['lines']} line(s)")
        corrupt = stats["corrupt_lines"]
        superseded = stats["lines"] - stats["entries"] - corrupt
        if superseded:
            print(
                f"             ({superseded} superseded/duplicate "
                "line(s); `store gc` compacts them)"
            )
        hint = "; `store gc` drops them" if corrupt else ""
        print(f"corrupt    : {corrupt} line(s){hint}")
        return 0
    # args.action == "gc"
    outcome = store.gc(
        drop_fingerprints=tuple(args.drop_fingerprint or ()), dry_run=args.dry_run
    )
    verb = "would drop" if args.dry_run else "dropped"
    print(
        f"gc {store.root}: kept {outcome['kept']}, {verb} "
        f"{outcome['dropped_superseded']} superseded, "
        f"{outcome['dropped_corrupt']} corrupt, "
        f"{outcome['dropped_evicted']} evicted by fingerprint"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.service import serve_main

    return serve_main(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        jobs=args.jobs,
        prebuild=args.prebuild,
        retries=args.retries,
        backoff_s=args.backoff,
        timeout_s=args.timeout,
        quiet=args.quiet,
        max_pending_tasks=args.max_pending_tasks,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.scenarios.metrics import METRICS
    from repro.scenarios.registry import ALGORITHMS, ENVIRONMENTS, SCHEDULERS, TOPOLOGIES

    registries = {
        "topology": TOPOLOGIES,
        "scheduler": SCHEDULERS,
        "algorithm": ALGORITHMS,
        "environment": ENVIRONMENTS,
        "metric": METRICS,
    }
    if args.kind:
        registries = {args.kind: registries[args.kind]}
    if args.json:
        payload = {
            kind: {name: registry.sample_args(name) for name in registry.names()}
            for kind, registry in registries.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for kind, registry in registries.items():
        print(f"{kind} ({len(registry)}):")
        for name in registry.names():
            sample = registry.sample_args(name)
            suffix = f"  e.g. args={json.dumps(sample, sort_keys=True)}" if sample else ""
            print(f"  {name}{suffix}")
        print()
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative experiment scenarios (see docs/scenarios.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute one scenario JSON end to end")
    run_parser.add_argument("scenario", help="path of the scenario JSON file")
    run_parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a spec field (dotted path), e.g. run.trials=3",
    )
    run_parser.add_argument("--json", help="also write the RunResult summary JSON here")
    run_parser.add_argument("--quiet", "-q", action="store_true", help="suppress the table")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="run an override grid over a scenario")
    sweep_parser.add_argument("scenario", help="path of the scenario JSON file")
    sweep_parser.add_argument(
        "--grid",
        action="append",
        metavar="PATH=V1,V2,...",
        help="one grid dimension (repeatable), e.g. scheduler.args.probability=0.25,0.5",
    )
    sweep_parser.add_argument(
        "--set", action="append", metavar="PATH=VALUE", help="fixed override applied first"
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep worker processes (default 1 = serial; values above 1 use a process pool)",
    )
    sweep_parser.add_argument(
        "--base-seed", type=int, default=None, help="derive per-point master seeds from this"
    )
    sweep_parser.add_argument("--json", help="also write the sweep rows JSON here")
    sweep_parser.set_defaults(func=_cmd_sweep)

    suite_parser = sub.add_parser(
        "suite", help="run a scenario-suite manifest end to end (see docs/suites.md)"
    )
    suite_parser.add_argument("suite", help="path of the suite manifest JSON file")
    suite_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the flattened (entry, trial) task list "
        "(default 1 = serial; values above 1 use a process pool)",
    )
    suite_parser.add_argument(
        "--no-prebuild",
        action="store_true",
        help="skip the upfront scheduler-delta prebuild pass",
    )
    suite_parser.add_argument(
        "--columns",
        nargs="+",
        default=None,
        help="restrict the printed tables to these columns",
    )
    suite_parser.add_argument("--json", help="also write the full SuiteReport JSON here")
    suite_parser.add_argument("--markdown", help="also write the group table as markdown here")
    suite_parser.add_argument("--quiet", "-q", action="store_true", help="suppress the tables")
    suite_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed result store: completed trials are served from "
        "here instead of re-executing, fresh ones are persisted, so rerunning "
        "a killed run resumes it (see docs/store.md)",
    )
    suite_parser.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="execute across N OS worker processes with dynamic work-stealing "
        "leases (crash-safe; the --store is the resume checkpoint)",
    )
    suite_parser.set_defaults(func=_cmd_suite)

    serve_parser = sub.add_parser(
        "serve",
        help="run the async scenario service over HTTP (see docs/service.md)",
    )
    serve_parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="result-store root: trial records, at-rest dedup, the job journal "
        "and persisted reports all live here",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8653,
        help="TCP port (0 = let the OS pick; the ready line prints the result)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="concurrent suite executions"
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="default per-suite worker processes (submissions may override "
        "via options.jobs)",
    )
    serve_parser.add_argument(
        "--prebuild",
        action="store_true",
        help="default the scheduler-delta prebuild pass to on",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts after a crashed or timed-out execution",
    )
    serve_parser.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="first retry delay (doubles per attempt)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget (default: unlimited)",
    )
    serve_parser.add_argument(
        "--quiet", "-q", action="store_true", help="only print the ready line"
    )
    serve_parser.add_argument(
        "--max-pending-tasks",
        type=int,
        default=None,
        metavar="TASKS",
        help="queue-depth backpressure: reject (HTTP 429) submissions that "
        "would push the pending-task backlog past this bound",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    store_parser = sub.add_parser(
        "store", help="inspect or compact a content-addressed result store"
    )
    store_sub = store_parser.add_subparsers(dest="action", required=True)
    stats_parser = store_sub.add_parser("stats", help="entry/size/hit counters")
    stats_parser.add_argument("dir", help="store root directory")
    stats_parser.add_argument("--json", action="store_true", help="machine-readable output")
    stats_parser.set_defaults(func=_cmd_store)
    gc_parser = store_sub.add_parser(
        "gc",
        help="compact buckets: drop corrupt/superseded lines (safe alongside "
        "live writers; buckets are file-locked)",
    )
    gc_parser.add_argument("dir", help="store root directory")
    gc_parser.add_argument(
        "--drop-fingerprint",
        action="append",
        metavar="FP",
        help="also evict every record produced by this spec fingerprint (repeatable)",
    )
    gc_parser.add_argument(
        "--dry-run", action="store_true", help="report what would change, touch nothing"
    )
    gc_parser.set_defaults(func=_cmd_store)

    list_parser = sub.add_parser("list", help="list registered scenario components")
    list_parser.add_argument(
        "--kind",
        choices=["topology", "scheduler", "algorithm", "environment", "metric"],
        help="restrict to one registry",
    )
    list_parser.add_argument("--json", action="store_true", help="machine-readable output")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
