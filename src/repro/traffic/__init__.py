"""Queue-backed workloads and traffic-aware scheduling (``docs/traffic.md``).

The traffic subsystem turns the stateless environments of
:mod:`repro.simulation.environment` into load-driven ones:

* :mod:`repro.traffic.arrivals` -- deterministic, seed-derived arrival
  processes (poisson-like, periodic, bursty, convergecast);
* :mod:`repro.traffic.environment` -- :class:`QueuedEnvironment`, per-node
  FIFO backlogs with head-of-line submission and per-message timestamps;
* :mod:`repro.traffic.schedulers` -- the TASA-style
  :class:`TrafficAwareScheduler` family (slot frames prioritized by
  forecast subtree load over a routing tree).

Declaratively, scenarios opt in through the ``traffic`` node of
:class:`~repro.scenarios.spec.ScenarioSpec` (a
:class:`~repro.scenarios.spec.TrafficSpec`); the registered components are
the ``queued`` environment and the ``tasa`` / ``longest_queue`` schedulers,
and the ``queue`` metric reports backlog percentiles, waiting times and
delivery latency with pooled Wilson intervals.
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "ARRIVAL_KINDS": "repro.traffic.arrivals",
    "ArrivalProcess": "repro.traffic.arrivals",
    "BurstyArrivals": "repro.traffic.arrivals",
    "ConvergecastArrivals": "repro.traffic.arrivals",
    "PeriodicArrivals": "repro.traffic.arrivals",
    "PoissonArrivals": "repro.traffic.arrivals",
    "build_arrival_process": "repro.traffic.arrivals",
    "derive_stream_seed": "repro.traffic.arrivals",
    "QueuedEnvironment": "repro.traffic.environment",
    "TrafficAwareScheduler": "repro.traffic.schedulers",
    "build_routing_tree": "repro.traffic.schedulers",
    "subtree_loads": "repro.traffic.schedulers",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
