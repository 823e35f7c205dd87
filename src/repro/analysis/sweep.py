"""Parameter sweeps and result tables.

Every benchmark harness has the same outer shape: iterate over a grid of
parameters (Δ, ε, scheduler, algorithm), run trials, collect a record per
grid point, and print a table whose rows mirror a figure's data series.  This
module factors that shape out so the benchmarks stay small and uniform.

:func:`sweep` runs its grid serially in this process.  Multi-trial work that
should fan out over processes is expressed as scenario specs and executed by
:func:`repro.scenarios.suite.run_suite` (``runtime.run_many`` builds such a
suite from an override grid); the seed helpers below are shared by both.
"""

from __future__ import annotations

import hashlib
import itertools
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
    loops, suite pool and fleet workers, and the
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
