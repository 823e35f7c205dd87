"""Declarative scenario layer: serializable experiment specs and registries.

``repro.scenarios`` turns an experiment into *data*: a
:class:`~repro.scenarios.spec.ScenarioSpec` tree that names registered
components (topology, scheduler, algorithm, environment) plus engine and run
policy, round-trips through JSON, and carries a stable
:meth:`~repro.scenarios.spec.ScenarioSpec.fingerprint`.  On top of it:

* :func:`~repro.scenarios.runtime.build` -- spec to a configured
  :class:`~repro.simulation.engine.Simulator`;
* :func:`~repro.scenarios.runtime.run` -- spec to a
  :class:`~repro.scenarios.runtime.RunResult` (metrics, traces, perf stats);
* :func:`~repro.scenarios.runtime.run_many` -- an override grid over a spec,
  run as a one-entry-per-point suite through
  :func:`~repro.scenarios.suite.run_suite`;
* :mod:`repro.scenarios.metrics` -- the declarative metrics pipeline:
  registered trace reducers (``register_metric``) with minimum-trace-mode
  metadata and :mod:`repro.analysis.stats`-backed aggregation, named by
  :class:`~repro.scenarios.spec.MetricSpec` entries on a scenario;
* :mod:`repro.scenarios.suite` -- scenario suites: a JSON
  :class:`~repro.scenarios.suite.SuiteSpec` manifest of many specs run (with
  per-spec and per-trial parallelism, serially, on a pool, or on the
  :mod:`repro.scenarios.fleet` of leased OS workers) into one
  :class:`~repro.scenarios.suite.SuiteReport`;
* :mod:`repro.scenarios.store` -- the content-addressed
  :class:`~repro.scenarios.store.ResultStore`: per-trial records keyed by
  (scenario content identity, trial seed, metrics signature), consulted by
  every execution path before re-running a trial, and the only checkpoint:
  a killed run resumes by rerunning against the same store;
* :mod:`repro.scenarios.jobs` / :mod:`repro.scenarios.service` -- the async
  scenario service (``python -m repro serve``): a durable, deduplicating
  HTTP job queue over :func:`~repro.scenarios.suite.run_suite`, with NDJSON
  progress streaming, retry with backoff, and graceful shutdown that
  resumes from the store (:class:`~repro.scenarios.jobs.JobManager`);
* ``python -m repro`` -- the ``run`` / ``sweep`` / ``suite`` / ``serve`` /
  ``store`` / ``list`` CLI over scenario and suite JSON files
  (:mod:`repro.scenarios.cli`).

See ``docs/scenarios.md`` for the spec schema and the registry catalogue,
``docs/suites.md`` for the metrics pipeline and suite manifests,
``docs/store.md`` for the result-store layout and keying, and
``docs/service.md`` for the serving API.
"""

from repro.scenarios import components  # noqa: F401  (registers built-ins)
from repro.scenarios.components import AlgorithmBuild, resolve_senders
from repro.scenarios.metrics import (
    METRICS,
    MetricContext,
    MetricRegistry,
    aggregate_metric_rows,
    evaluate_metrics,
    flatten_aggregates,
    register_metric,
    required_trace_mode,
)
from repro.scenarios.registry import (
    ALGORITHMS,
    ENVIRONMENTS,
    SCHEDULERS,
    TOPOLOGIES,
    Registry,
    register_algorithm,
    register_environment,
    register_scheduler,
    register_topology,
)
from repro.scenarios.runtime import (
    BuiltScenario,
    RunResult,
    TrialRunResult,
    build,
    materialize,
    prebuild_delta_table,
    resolve_params,
    resolve_trace_mode,
    run,
    run_many,
    run_trial,
)
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
from repro.scenarios.store import (
    ResultStore,
    metrics_signature,
    scenario_trial_identity,
    trial_key,
)
from repro.scenarios.suite import (
    SuiteCancelled,
    SuiteEntry,
    SuiteEntryResult,
    SuiteReport,
    SuiteSpec,
    deterministic_report_dict,
    run_suite,
)
from repro.scenarios.fleet import (
    DEFAULT_LEASE_TTL_S,
    FleetTaskError,
    default_task_runner,
    run_suite_fleet,
)
from repro.scenarios.jobs import (
    FaultPlan,
    Job,
    JobManager,
    JobRejected,
    parse_submission,
)

__all__ = [
    # spec tree
    "ScenarioSpec",
    "TopologySpec",
    "SchedulerSpec",
    "AlgorithmSpec",
    "EnvironmentSpec",
    "MetricSpec",
    "EngineConfig",
    "RunPolicy",
    # registries
    "Registry",
    "MetricRegistry",
    "TOPOLOGIES",
    "SCHEDULERS",
    "ALGORITHMS",
    "ENVIRONMENTS",
    "METRICS",
    "register_topology",
    "register_scheduler",
    "register_algorithm",
    "register_environment",
    "register_metric",
    # metrics pipeline
    "MetricContext",
    "evaluate_metrics",
    "aggregate_metric_rows",
    "flatten_aggregates",
    "required_trace_mode",
    # runtime
    "AlgorithmBuild",
    "BuiltScenario",
    "RunResult",
    "TrialRunResult",
    "build",
    "materialize",
    "resolve_params",
    "resolve_trace_mode",
    "run",
    "run_trial",
    "run_many",
    "prebuild_delta_table",
    "resolve_senders",
    # result store
    "ResultStore",
    "metrics_signature",
    "scenario_trial_identity",
    "trial_key",
    # suites
    "SuiteSpec",
    "SuiteEntry",
    "SuiteEntryResult",
    "SuiteReport",
    "run_suite",
    "deterministic_report_dict",
    "SuiteCancelled",
    # fleet execution
    "run_suite_fleet",
    "default_task_runner",
    "DEFAULT_LEASE_TTL_S",
    "FleetTaskError",
    # service
    "JobManager",
    "Job",
    "JobRejected",
    "FaultPlan",
    "parse_submission",
]
