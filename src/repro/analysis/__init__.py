"""Analysis helpers: theoretical bounds, statistics, parameter sweeps.

* :mod:`repro.analysis.theory` -- closed-form versions of the paper's bounds
  (Theorem 3.1, Theorem 4.1, Lemma 4.2, and the lower-bound context of §1),
  used to plot/tabulate predicted shapes next to measured ones.
* :mod:`repro.analysis.stats` -- empirical error rates, Wilson confidence
  intervals, and small summary statistics used by the benchmark harnesses.
* :mod:`repro.analysis.sweep` -- a tiny parameter-sweep driver and table
  formatter so every benchmark prints its figure/table data the same way.
"""

from repro._lazy import lazy_exports

# ``sweep`` names both a submodule and the function it defines.  Binding the
# function here, before anything imports the submodule, keeps
# ``repro.analysis.sweep`` the function, as it has always been.
from repro.analysis.sweep import sweep

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "theory": "repro.analysis.theory",
    "mean": "repro.analysis.stats",
    "std": "repro.analysis.stats",
    "quantile": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "empirical_error_rate": "repro.analysis.stats",
    "wilson_interval": "repro.analysis.stats",
    "iter_grid_points": "repro.analysis.sweep",
    "derive_point_seed": "repro.analysis.sweep",
    "SweepResult": "repro.analysis.sweep",
    "format_table": "repro.analysis.sweep",
}

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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
