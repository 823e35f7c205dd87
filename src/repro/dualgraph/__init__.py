"""Dual graph radio network substrate.

This package implements the network model of Section 2 of the paper:

* :mod:`repro.dualgraph.graph` -- the :class:`DualGraph` structure ``(G, G')``
  with reliable edges ``E`` and unreliable-capable edges ``E'``.
* :mod:`repro.dualgraph.geometric` -- Euclidean embeddings and the
  *r-geographic* property.
* :mod:`repro.dualgraph.generators` -- families of dual graph networks used by
  tests, examples, and benchmarks.
* :mod:`repro.dualgraph.regions` -- the plane partition into convex regions and
  the region graph of Appendix A.1.
* :mod:`repro.dualgraph.adversary` -- oblivious link schedulers deciding which
  unreliable edges appear in each round's communication topology.
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "DualGraph": "repro.dualgraph.graph",
    "Edge": "repro.dualgraph.graph",
    "TopologyIndex": "repro.dualgraph.graph",
    "normalize_edge": "repro.dualgraph.graph",
    "Embedding": "repro.dualgraph.geometric",
    "euclidean_distance": "repro.dualgraph.geometric",
    "geographic_dual_graph": "repro.dualgraph.geometric",
    "is_r_geographic": "repro.dualgraph.geometric",
    "random_geographic_network": "repro.dualgraph.generators",
    "line_network": "repro.dualgraph.generators",
    "grid_network": "repro.dualgraph.generators",
    "clique_network": "repro.dualgraph.generators",
    "star_network": "repro.dualgraph.generators",
    "cluster_network": "repro.dualgraph.generators",
    "two_clusters_network": "repro.dualgraph.generators",
    "GridRegionPartition": "repro.dualgraph.regions",
    "RegionGraph": "repro.dualgraph.regions",
    "LinkScheduler": "repro.dualgraph.adversary",
    "AdaptiveLinkScheduler": "repro.dualgraph.adversary",
    "CollisionAdaptiveAdversary": "repro.dualgraph.adversary",
    "FullInclusionScheduler": "repro.dualgraph.adversary",
    "NoUnreliableScheduler": "repro.dualgraph.adversary",
    "IIDScheduler": "repro.dualgraph.adversary",
    "PeriodicScheduler": "repro.dualgraph.adversary",
    "AntiScheduleAdversary": "repro.dualgraph.adversary",
    "TraceScheduler": "repro.dualgraph.adversary",
    "SchedulerDeltaCache": "repro.dualgraph.adversary",
    "prebuild_scheduler_deltas": "repro.dualgraph.adversary",
    "preload_process_delta_cache": "repro.dualgraph.adversary",
    "process_delta_cache": "repro.dualgraph.adversary",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
