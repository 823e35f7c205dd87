"""Shared machinery for the benchmark harnesses.

Every experiment follows the same recipe: build networks with a target degree
bound, run a workload for some rounds over several independent trials, reduce
the traces to a few numbers, and print a table whose rows mirror the data
series a figure in a systems paper would show.  The helpers here keep the
individual ``bench_*.py`` modules short and uniform.
"""

from __future__ import annotations

import argparse
import os
import warnings
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.analysis.sweep import SweepResult, format_table, sweep

# The density-profile table and degree-targeted sampler moved into the
# scenario component library (so the ``target_degree`` registered topology
# and the benches share one source of truth); re-exported here because the
# bench harnesses historically import them from this module.
from repro.scenarios.components import DENSITY_PROFILES, network_with_target_degree
from repro.scenarios.spec import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Environment variable consulted when no explicit --jobs value is given, so
#: the pytest-driven harnesses can be parallelized without changing call sites
#: (``BENCH_JOBS=8 pytest benchmarks/...``).
JOBS_ENV_VAR = "BENCH_JOBS"


def ensure_results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def save_table(name: str, table: str) -> str:
    """Write a rendered table under benchmarks/results/ and return the path."""
    path = os.path.join(ensure_results_dir(), f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(table + "\n")
    return path


def lb_point_spec(
    name: str,
    target_delta: int,
    graph_seed: int,
    trial_seed: int,
    epsilon: float,
    environment: str,
    senders: Any,
    rounds: int,
    rounds_unit: str,
    trace_mode: str = "full",
    scheduler: str = "iid",
    scheduler_args: Optional[Mapping[str, Any]] = None,
    metrics: Sequence[MetricSpec] = (),
) -> ScenarioSpec:
    """The standard bench workload as a :class:`~repro.scenarios.spec.ScenarioSpec`.

    One trial of the classic experiment recipe: a degree-targeted random
    geographic network (``graph_seed`` pins the sample), LBAlg with
    parameters derived from the measured bounds, an i.i.d. link scheduler
    seeded by the trial, and process RNGs rooted at ``trial_seed``, so every
    harness built on it runs the same workload and keeps its traces
    byte-for-byte across changes.  ``metrics`` declares the
    :class:`~repro.scenarios.spec.MetricSpec` entries the harness reads back
    (``trace_mode="auto"`` then records exactly what they need).
    """
    if scheduler_args is None:
        # Only the i.i.d. scheduler takes these; parameter-free schedulers
        # ("none", "full", "adaptive_collision") default to empty args.
        scheduler_args = (
            {"probability": 0.5, "seed": trial_seed} if scheduler == "iid" else {}
        )
    return ScenarioSpec(
        name=name,
        topology=TopologySpec(
            "target_degree", {"target_delta": target_delta, "seed": graph_seed}
        ),
        algorithm=AlgorithmSpec("lbalg", {"epsilon": epsilon, "preset": "derived"}),
        scheduler=SchedulerSpec(scheduler, dict(scheduler_args)),
        environment=EnvironmentSpec(environment, {"senders": senders}),
        engine=EngineConfig(trace_mode=trace_mode),
        run=RunPolicy(
            rounds=rounds,
            rounds_unit=rounds_unit,
            trials=1,
            master_seed=trial_seed,
            seed_policy="fixed",
        ),
        metrics=tuple(metrics),
    )


def print_and_save(name: str, title: str, result: SweepResult, columns=None) -> str:
    """Render, print, and persist an experiment table; returns the rendering."""
    table = format_table(result.rows, columns=columns, title=title)
    print()
    print(table)
    save_table(name, table)
    return table


def run_once_benchmark(benchmark, fn: Callable[[], SweepResult]) -> SweepResult:
    """Run an experiment harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def default_jobs() -> int:
    """The sweep worker count when no --jobs flag is given (``BENCH_JOBS`` or 1).

    An unparseable ``BENCH_JOBS`` value falls back to 1 **with a warning** --
    a silent fallback here once meant "BENCH_JOBS=all" quietly ran a long
    sweep serially.
    """
    raw = os.environ.get(JOBS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring unparseable {JOBS_ENV_VAR}={raw!r} (expected an integer); "
            "running sweeps serially with jobs=1",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1


def add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--jobs`` flag to a benchmark's CLI parser."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for the sweep (default: $BENCH_JOBS or 1; "
            "values above 1 use a process pool over grid points)"
        ),
    )


def run_sweep(
    grid: Mapping[str, Sequence[Any]],
    run: Callable[..., Mapping[str, Any]],
    common: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Run a benchmark grid serially (:func:`repro.analysis.sweep.sweep`).

    ``common`` keyword arguments (fixed workload/engine configuration) are
    passed to ``run`` at every grid point -- grid values win on collision --
    and stay out of the result rows.
    """
    fixed = dict(common or {})
    return sweep(grid, lambda **point: run(**{**fixed, **point}))
