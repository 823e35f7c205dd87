"""Baseline broadcast strategies used as comparison points.

The paper's introduction explains why *fixed* broadcast-probability schedules
are defeated by an oblivious link scheduler that inverts contention against
them, which is the motivation for LBAlg's seed-permuted schedule.  This
package implements the classic fixed strategies so the benchmarks can stage
that comparison:

* :class:`~repro.baselines.decay.DecayProcess` -- the Bar-Yehuda / Goldreich /
  Itai Decay protocol (geometrically decreasing probabilities on a fixed
  cycle).
* :class:`~repro.baselines.uniform.UniformProcess` -- a single fixed broadcast
  probability.
* :class:`~repro.baselines.round_robin.RoundRobinProcess` -- deterministic
  TDMA by process id (Clementi et al.'s round robin).

All three speak the same ``bcast/ack/recv`` event vocabulary as LBAlg, so
traces produced by any of them feed the same metrics and spec checkers.
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "DecayProcess": "repro.baselines.decay",
    "UniformProcess": "repro.baselines.uniform",
    "RoundRobinProcess": "repro.baselines.round_robin",
    "make_baseline_processes": "repro.baselines.factory",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
