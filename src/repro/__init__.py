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

from repro.dualgraph import (
    AdaptiveLinkScheduler,
    SchedulerDeltaCache,
    AntiScheduleAdversary,
    CollisionAdaptiveAdversary,
    DualGraph,
    Embedding,
    TopologyIndex,
    FullInclusionScheduler,
    GridRegionPartition,
    IIDScheduler,
    LinkScheduler,
    NoUnreliableScheduler,
    PeriodicScheduler,
    RegionGraph,
    TraceScheduler,
    clique_network,
    cluster_network,
    geographic_dual_graph,
    grid_network,
    is_r_geographic,
    line_network,
    random_geographic_network,
    star_network,
    two_clusters_network,
)
from repro.simulation import (
    BurstyEnvironment,
    Environment,
    ExecutionTrace,
    NullEnvironment,
    Process,
    ProcessContext,
    SaturatingEnvironment,
    ScriptedEnvironment,
    Simulator,
    SingleShotEnvironment,
    TraceMode,
    ack_delays,
    delivery_report,
    progress_report,
    unique_seed_owner_counts,
)
from repro.core import (
    LBConstants,
    LBParams,
    LBSpecReport,
    LocalBroadcastProcess,
    Message,
    ParamMode,
    SeedAgreementProcess,
    SeedBitStream,
    SeedConstants,
    SeedParams,
    SeedSpecReport,
    check_lb_execution,
    check_seed_execution,
    make_message,
)
from repro.core.local_broadcast import make_lb_processes
from repro.baselines import (
    DecayProcess,
    RoundRobinProcess,
    UniformProcess,
    make_baseline_processes,
)
from repro.mac import AbstractMacNode, FloodClient, MacClient, run_flood
from repro.analysis import theory
from repro.analysis.stats import empirical_error_rate, summarize, wilson_interval
from repro.analysis.sweep import SweepResult, format_table, sweep
from repro import scenarios
from repro.scenarios import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    RunPolicy,
    RunResult,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    register_algorithm,
    register_environment,
    register_scheduler,
    register_topology,
)

__version__ = "1.1.0"

__all__ = [
    # dual graph substrate
    "DualGraph",
    "TopologyIndex",
    "Embedding",
    "GridRegionPartition",
    "RegionGraph",
    "geographic_dual_graph",
    "is_r_geographic",
    "random_geographic_network",
    "grid_network",
    "line_network",
    "clique_network",
    "star_network",
    "cluster_network",
    "two_clusters_network",
    "LinkScheduler",
    "AdaptiveLinkScheduler",
    "CollisionAdaptiveAdversary",
    "NoUnreliableScheduler",
    "FullInclusionScheduler",
    "IIDScheduler",
    "PeriodicScheduler",
    "AntiScheduleAdversary",
    "TraceScheduler",
    "SchedulerDeltaCache",
    # simulation substrate
    "Process",
    "ProcessContext",
    "Simulator",
    "Environment",
    "NullEnvironment",
    "SingleShotEnvironment",
    "SaturatingEnvironment",
    "ScriptedEnvironment",
    "BurstyEnvironment",
    "ExecutionTrace",
    "TraceMode",
    "ack_delays",
    "delivery_report",
    "progress_report",
    "unique_seed_owner_counts",
    # core contribution
    "Message",
    "make_message",
    "ParamMode",
    "SeedConstants",
    "LBConstants",
    "SeedParams",
    "LBParams",
    "SeedBitStream",
    "SeedAgreementProcess",
    "SeedSpecReport",
    "check_seed_execution",
    "LocalBroadcastProcess",
    "make_lb_processes",
    "LBSpecReport",
    "check_lb_execution",
    # baselines
    "DecayProcess",
    "UniformProcess",
    "RoundRobinProcess",
    "make_baseline_processes",
    # abstract MAC layer
    "AbstractMacNode",
    "MacClient",
    "FloodClient",
    "run_flood",
    # declarative scenarios
    "scenarios",
    "ScenarioSpec",
    "TopologySpec",
    "SchedulerSpec",
    "AlgorithmSpec",
    "EnvironmentSpec",
    "EngineConfig",
    "RunPolicy",
    "RunResult",
    "register_topology",
    "register_scheduler",
    "register_algorithm",
    "register_environment",
    # analysis
    "theory",
    "empirical_error_rate",
    "wilson_interval",
    "summarize",
    "sweep",
    "SweepResult",
    "format_table",
    "__version__",
]
