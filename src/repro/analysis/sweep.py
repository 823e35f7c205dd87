"""Parameter sweeps and result tables.

Every benchmark harness has the same outer shape: iterate over a grid of
parameters (Δ, ε, scheduler, algorithm), run trials, collect a record per
grid point, and print a table whose rows mirror a figure's data series.  This
module factors that shape out so the benchmarks stay small and uniform.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence


@dataclass
class SweepResult:
    """The collected records of one parameter sweep."""

    rows: List[Dict[str, Any]] = field(default_factory=list)

    def append(self, row: Mapping[str, Any]) -> None:
        self.rows.append(dict(row))

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def where(self, **conditions: Any) -> "SweepResult":
        """Rows matching all the given column=value conditions."""
        selected = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in conditions.items())
        ]
        return SweepResult(rows=selected)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def iter_grid_points(grid: Mapping[str, Sequence[Any]]) -> Iterator[Dict[str, Any]]:
    """Yield the points of the Cartesian grid in canonical (row) order."""
    names = list(grid)
    for values in itertools.product(*(grid[name] for name in names)):
        yield dict(zip(names, values))


def sweep(
    grid: Mapping[str, Sequence[Any]],
    run: Callable[..., Mapping[str, Any]],
) -> SweepResult:
    """Run ``run(**point)`` for every point of the Cartesian grid.

    ``run`` returns a mapping of result columns; the sweep merges the grid
    point into the record so every row is self-describing.
    """
    result = SweepResult()
    for point in iter_grid_points(grid):
        record = dict(run(**point))
        merged = {**point, **record}
        result.append(merged)
    return result


def derive_point_seed(base_seed: int, point_index: int) -> int:
    """A stable 63-bit RNG seed for one grid point.

    Hash-derived (rather than ``base_seed + index``) so that sweeps with
    nearby base seeds do not share per-point seeds, and stable across runs,
    platforms, and worker scheduling order.
    """
    payload = f"{base_seed}|{point_index}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


#: The seed policies :func:`derive_trial_seed` implements (shared with
#: ``repro.scenarios.spec.RunPolicy``, whose ``seed_policy`` field takes
#: exactly these values).
TRIAL_SEED_POLICIES = ("fixed", "sequential", "derived")


def derive_trial_seed(master_seed: int, trial_index: int, seed_policy: str = "derived") -> int:
    """THE per-trial seed derivation, shared by every execution path.

    This is the single documented helper behind
    :meth:`repro.scenarios.spec.RunPolicy.trial_seed`: serial ``run()``
    loops, ``run(jobs=...)`` worker pools, suite and fleet workers, and the
    result store's cache keys all resolve trial ``i`` of a scenario
    through this function, so they provably draw identical seeds.

    Policies:

    * ``"fixed"`` -- every trial uses ``master_seed`` verbatim;
    * ``"sequential"`` -- trial ``i`` uses ``master_seed + i``;
    * ``"derived"`` -- trial ``i`` uses :func:`derive_point_seed`
      (SHA-derived, so nearby master seeds never share trial seeds).
    """
    if seed_policy == "fixed":
        return master_seed
    if seed_policy == "sequential":
        return master_seed + trial_index
    if seed_policy == "derived":
        return derive_point_seed(master_seed, trial_index)
    raise ValueError(
        f"seed_policy must be one of {TRIAL_SEED_POLICIES}, got {seed_policy!r}"
    )


#: Reserved ``common`` kwarg: a prebuilt ``{(delta_cache_key, round): ids}``
#: table (see :func:`repro.dualgraph.adversary.prebuild_scheduler_deltas`).
#: It is *not* passed to ``run``; instead each worker preloads its process-wide
#: :class:`~repro.dualgraph.adversary.SchedulerDeltaCache` with it before the
#: first grid point runs, so every scheduler the trials construct starts with
#: the sweep's per-round deltas already computed.
SCHEDULER_DELTA_TABLE_KWARG = "scheduler_delta_table"


def _preload_worker_deltas(delta_table: Mapping) -> None:
    """Process-pool initializer: preload the delta table once per worker."""
    from repro.dualgraph.adversary import preload_process_delta_cache

    preload_process_delta_cache(delta_table)


def _run_grid_point(
    run: Callable[..., Mapping[str, Any]],
    point: Dict[str, Any],
    seed_arg: Optional[str],
    seed: Optional[int],
    common: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Top-level worker target (must be picklable for the process pool)."""
    kwargs = dict(common) if common else {}
    delta_table = kwargs.pop(SCHEDULER_DELTA_TABLE_KWARG, None)
    if delta_table:
        # Normally stripped by ParallelSweepRunner.run (which ships the table
        # through the pool initializer, once per worker); handled here too so
        # direct callers get the same behavior.
        _preload_worker_deltas(delta_table)
    kwargs.update(point)
    if seed_arg is not None and seed is not None:
        kwargs[seed_arg] = seed
    record = dict(run(**kwargs))
    return {**point, **record}


class ParallelSweepRunner:
    """Run a parameter sweep's grid points on a process pool.

    Grid points are independent by construction (each ``run`` call builds its
    own networks and simulators), so the sweep parallelizes trivially; rows
    come back in the same canonical order that the serial :func:`sweep`
    produces, and the output is the same :class:`SweepResult`.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means "all cores" (``os.cpu_count()``)
        and values below 2 mean "run serially in this process" (useful as a
        uniform call site behind a ``--jobs`` flag).  Serial runs accept any
        callable; actual pools need ``run`` to be picklable.
    base_seed:
        When given, each grid point receives a deterministic derived seed
        (:func:`derive_point_seed`) as the keyword argument named by
        ``seed_arg`` -- identical whether the sweep runs serially or on any
        number of workers.  When ``None`` (default), no seed is injected and
        the runner matches :func:`sweep` exactly.
    seed_arg:
        Name of the seed keyword argument injected into ``run``.

    Notes
    -----
    ``run`` must be picklable (a module-level function), as must every grid
    value and returned record -- the standard multiprocessing constraint.
    Fixed configuration shared by every grid point (engine selection, round
    budgets, trial counts) goes through :meth:`run`'s ``common`` mapping
    rather than ``functools.partial``, keeping the worker payload uniform
    and the configuration out of the result rows.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        base_seed: Optional[int] = None,
        seed_arg: str = "seed",
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, int(jobs))
        self.base_seed = base_seed
        self.seed_arg = seed_arg

    def run(
        self,
        grid: Mapping[str, Sequence[Any]],
        run: Callable[..., Mapping[str, Any]],
        common: Optional[Mapping[str, Any]] = None,
        on_result: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SweepResult:
        """Execute the sweep and return its rows in canonical grid order.

        ``common`` holds keyword arguments passed to ``run`` at *every* grid
        point (grid values win on collision).  It is how benchmarks thread
        fixed configuration -- round budgets, engine selection such as the
        simulator's ``fast_path`` / ``batch_path`` flags --
        through the process pool without baking it into the grid or the
        result rows.

        One key is reserved: :data:`SCHEDULER_DELTA_TABLE_KWARG`
        (``"scheduler_delta_table"``).  Its value -- a prebuilt per-round
        delta table from
        :func:`repro.dualgraph.adversary.prebuild_scheduler_deltas` -- is
        stripped before ``run`` is called and instead preloaded into each
        worker's process-wide scheduler delta cache, so trials on every
        worker share the parent's precomputed schedules instead of re-hashing
        them per process.

        ``on_result``, when given, is called in the parent process with each
        completed row *in canonical grid order* (serial and pooled runs
        alike) before the row is appended to the result -- the hook
        :func:`repro.scenarios.suite.run_suite` uses to write each record to
        the result store as it lands: when the process dies mid-sweep, every
        row already handed to ``on_result`` is a canonical-order prefix of
        the full sweep.
        """
        points = list(iter_grid_points(grid))
        seeds: List[Optional[int]] = [
            derive_point_seed(self.base_seed, i) if self.base_seed is not None else None
            for i in range(len(points))
        ]
        seed_arg = self.seed_arg if self.base_seed is not None else None
        common = dict(common) if common else None
        delta_table = common.pop(SCHEDULER_DELTA_TABLE_KWARG, None) if common else None

        result = SweepResult()
        if self.jobs <= 1 or len(points) <= 1:
            if delta_table:
                _preload_worker_deltas(delta_table)
            for point, seed in zip(points, seeds):
                row = _run_grid_point(run, point, seed_arg, seed, common)
                if on_result is not None:
                    on_result(row)
                result.append(row)
            return result

        workers = min(self.jobs, len(points))
        # The delta table rides in the pool initializer -- pickled once per
        # worker -- rather than in every grid point's common mapping.
        pool_kwargs: Dict[str, Any] = {"max_workers": workers}
        if delta_table:
            pool_kwargs["initializer"] = _preload_worker_deltas
            pool_kwargs["initargs"] = (delta_table,)
        with ProcessPoolExecutor(**pool_kwargs) as pool:
            futures = [
                pool.submit(_run_grid_point, run, point, seed_arg, seed, common)
                for point, seed in zip(points, seeds)
            ]
            try:
                for future in futures:
                    row = future.result()
                    if on_result is not None:
                        on_result(row)
                    result.append(row)
            except BaseException:
                # An on_result hook aborting the sweep (e.g. suite
                # cancellation) should not wait out the whole queue: drop
                # every not-yet-started grid point before the pool shutdown
                # joins the in-flight ones.
                for future in futures:
                    future.cancel()
                raise
        return result


def parallel_sweep(
    grid: Mapping[str, Sequence[Any]],
    run: Callable[..., Mapping[str, Any]],
    jobs: Optional[int] = None,
    base_seed: Optional[int] = None,
    common: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Convenience wrapper: ``ParallelSweepRunner(jobs, base_seed).run(grid, run)``."""
    return ParallelSweepRunner(jobs=jobs, base_seed=base_seed).run(grid, run, common=common)


def format_table(
    rows: Iterable[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table (what the benchmarks print).

    Parameters
    ----------
    columns:
        Column order; defaults to the keys of the first row.
    float_format:
        Format applied to float values.
    title:
        Optional heading line.
    """
    rows = [dict(row) for row in rows]
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0])

    def render(value: Any) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    table = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in table
    )
    pieces = []
    if title:
        pieces.append(title)
    pieces.extend([header, separator, body])
    return "\n".join(pieces)
