"""repro: a local broadcast layer for unreliable (dual graph) radio networks.

This package reproduces, as a runnable Python library, the system described in
*“A (Truly) Local Broadcast Layer for Unreliable Radio Networks”*
(Nancy Lynch and Calvin Newport, PODC 2015):

* :mod:`repro.dualgraph` -- the dual graph network model ``(G, G')`` with
  reliable and unreliable links, r-geographic embeddings, region partitions,
  and oblivious link schedulers (the adversary).
* :mod:`repro.simulation` -- a synchronous round-based radio simulator with
  the paper's collision rules, deterministic environments, execution traces,
  and metrics.
* :mod:`repro.core` -- the paper's contribution: the ``Seed(δ, ε)`` seed
  agreement specification and the ``SeedAlg`` algorithm, the
  ``LB(t_ack, t_prog, ε)`` local broadcast specification and the ``LBAlg``
  algorithm, and the parameter calculus connecting them.
* :mod:`repro.baselines` -- Decay, uniform-probability, and round-robin
  broadcast strategies used as comparison points.
* :mod:`repro.mac` -- the abstract MAC layer interpretation of the service and
  applications built on top of it (multi-hop flooding).
* :mod:`repro.analysis` -- the paper's theoretical bound formulas, statistics
  helpers, and parameter sweep utilities used by the benchmarks.
* :mod:`repro.scenarios` -- the declarative experiment layer: serializable
  :class:`ScenarioSpec` trees over component registries, ``build`` / ``run``
  / ``run_many``, and the ``python -m repro`` CLI (see ``docs/scenarios.md``).

Quickstart
----------
>>> import random
>>> from repro import (
...     random_geographic_network, IIDScheduler, LBParams, make_lb_processes,
...     Simulator, SingleShotEnvironment, check_lb_execution,
... )
>>> graph, _ = random_geographic_network(20, side=3.0, rng=7, require_connected=True)
>>> params = LBParams.small_for_testing(delta=graph.max_reliable_degree,
...                                     delta_prime=graph.max_potential_degree)
>>> rng = random.Random(7)
>>> sim = Simulator(
...     graph,
...     make_lb_processes(graph, params, rng),
...     scheduler=IIDScheduler(graph, probability=0.5, seed=7),
...     environment=SingleShotEnvironment(senders=[0]),
... )
>>> trace = sim.run(params.tack_rounds)
>>> report = check_lb_execution(trace, graph, params.tack_rounds, params.tprog_rounds)
>>> report.deterministic_ok
True
"""

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    # dual graph substrate
    "DualGraph": "repro.dualgraph.graph",
    "TopologyIndex": "repro.dualgraph.graph",
    "Embedding": "repro.dualgraph.geometric",
    "geographic_dual_graph": "repro.dualgraph.geometric",
    "is_r_geographic": "repro.dualgraph.geometric",
    "GridRegionPartition": "repro.dualgraph.regions",
    "RegionGraph": "repro.dualgraph.regions",
    "random_geographic_network": "repro.dualgraph.generators",
    "grid_network": "repro.dualgraph.generators",
    "line_network": "repro.dualgraph.generators",
    "clique_network": "repro.dualgraph.generators",
    "star_network": "repro.dualgraph.generators",
    "cluster_network": "repro.dualgraph.generators",
    "two_clusters_network": "repro.dualgraph.generators",
    "LinkScheduler": "repro.dualgraph.adversary",
    "AdaptiveLinkScheduler": "repro.dualgraph.adversary",
    "CollisionAdaptiveAdversary": "repro.dualgraph.adversary",
    "NoUnreliableScheduler": "repro.dualgraph.adversary",
    "FullInclusionScheduler": "repro.dualgraph.adversary",
    "IIDScheduler": "repro.dualgraph.adversary",
    "PeriodicScheduler": "repro.dualgraph.adversary",
    "AntiScheduleAdversary": "repro.dualgraph.adversary",
    "TraceScheduler": "repro.dualgraph.adversary",
    "SchedulerDeltaCache": "repro.dualgraph.adversary",
    # simulation substrate
    "Process": "repro.simulation.process",
    "ProcessContext": "repro.simulation.process",
    "Simulator": "repro.simulation.engine",
    "Environment": "repro.simulation.environment",
    "NullEnvironment": "repro.simulation.environment",
    "SingleShotEnvironment": "repro.simulation.environment",
    "SaturatingEnvironment": "repro.simulation.environment",
    "ScriptedEnvironment": "repro.simulation.environment",
    "BurstyEnvironment": "repro.simulation.environment",
    "ExecutionTrace": "repro.simulation.trace",
    "TraceMode": "repro.simulation.trace",
    "ack_delays": "repro.simulation.metrics",
    "delivery_report": "repro.simulation.metrics",
    "progress_report": "repro.simulation.metrics",
    "unique_seed_owner_counts": "repro.simulation.metrics",
    # core contribution
    "Message": "repro.core.messages",
    "make_message": "repro.core.messages",
    "ParamMode": "repro.core.constants",
    "SeedConstants": "repro.core.constants",
    "LBConstants": "repro.core.constants",
    "SeedParams": "repro.core.params",
    "LBParams": "repro.core.params",
    "SeedBitStream": "repro.core.seedbits",
    "SeedAgreementProcess": "repro.core.seed_agreement",
    "SeedSpecReport": "repro.core.seed_spec",
    "check_seed_execution": "repro.core.seed_spec",
    "LocalBroadcastProcess": "repro.core.local_broadcast",
    "make_lb_processes": "repro.core.local_broadcast",
    "LBSpecReport": "repro.core.lb_spec",
    "check_lb_execution": "repro.core.lb_spec",
    # baselines
    "DecayProcess": "repro.baselines.decay",
    "UniformProcess": "repro.baselines.uniform",
    "RoundRobinProcess": "repro.baselines.round_robin",
    "make_baseline_processes": "repro.baselines.factory",
    # abstract MAC layer
    "MacEnvironment": "repro.mac.adapter",
    "MacClient": "repro.mac.spec",
    "FloodClient": "repro.mac.applications.flood",
    "run_flood": "repro.mac.applications.flood",
    # declarative scenarios
    "scenarios": "repro.scenarios",
    "ScenarioSpec": "repro.scenarios.spec",
    "TopologySpec": "repro.scenarios.spec",
    "SchedulerSpec": "repro.scenarios.spec",
    "AlgorithmSpec": "repro.scenarios.spec",
    "EnvironmentSpec": "repro.scenarios.spec",
    "EngineConfig": "repro.scenarios.spec",
    "RunPolicy": "repro.scenarios.spec",
    "RunResult": "repro.scenarios.runtime",
    "register_topology": "repro.scenarios.registry",
    "register_scheduler": "repro.scenarios.registry",
    "register_algorithm": "repro.scenarios.registry",
    "register_environment": "repro.scenarios.registry",
    # analysis
    "theory": "repro.analysis",
    "empirical_error_rate": "repro.analysis.stats",
    "wilson_interval": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "sweep": "repro.analysis.sweep",
    "SweepResult": "repro.analysis.sweep",
    "format_table": "repro.analysis.sweep",
}

__version__ = "1.1.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
