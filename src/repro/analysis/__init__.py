"""Analysis helpers: theoretical bounds, statistics, parameter sweeps.

* :mod:`repro.analysis.theory` -- closed-form versions of the paper's bounds
  (Theorem 3.1, Theorem 4.1, Lemma 4.2, and the lower-bound context of §1),
  used to plot/tabulate predicted shapes next to measured ones.
* :mod:`repro.analysis.stats` -- empirical error rates, Wilson confidence
  intervals, and small summary statistics used by the benchmark harnesses.
* :mod:`repro.analysis.sweep` -- a tiny parameter-sweep driver and table
  formatter so every benchmark prints its figure/table data the same way.
"""

from repro.analysis import theory
from repro.analysis.stats import (
    empirical_error_rate,
    mean,
    quantile,
    std,
    summarize,
    wilson_interval,
)
from repro.analysis.sweep import (
    SweepResult,
    derive_point_seed,
    format_table,
    iter_grid_points,
    sweep,
)

__all__ = [
    "theory",
    "mean",
    "std",
    "quantile",
    "summarize",
    "empirical_error_rate",
    "wilson_interval",
    "sweep",
    "iter_grid_points",
    "derive_point_seed",
    "SweepResult",
    "format_table",
]
