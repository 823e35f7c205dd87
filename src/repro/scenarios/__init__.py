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

from repro._lazy import lazy_exports
from repro.scenarios import components  # noqa: F401  (registers built-ins, eagerly)

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "AlgorithmBuild": "repro.scenarios.components",
    "resolve_senders": "repro.scenarios.components",
    "METRICS": "repro.scenarios.metrics",
    "MetricContext": "repro.scenarios.metrics",
    "MetricRegistry": "repro.scenarios.metrics",
    "aggregate_metric_rows": "repro.scenarios.metrics",
    "evaluate_metrics": "repro.scenarios.metrics",
    "flatten_aggregates": "repro.scenarios.metrics",
    "register_metric": "repro.scenarios.metrics",
    "required_trace_mode": "repro.scenarios.metrics",
    "ALGORITHMS": "repro.scenarios.registry",
    "ENVIRONMENTS": "repro.scenarios.registry",
    "SCHEDULERS": "repro.scenarios.registry",
    "TOPOLOGIES": "repro.scenarios.registry",
    "Registry": "repro.scenarios.registry",
    "register_algorithm": "repro.scenarios.registry",
    "register_environment": "repro.scenarios.registry",
    "register_scheduler": "repro.scenarios.registry",
    "register_topology": "repro.scenarios.registry",
    "BuiltScenario": "repro.scenarios.runtime",
    "RunResult": "repro.scenarios.runtime",
    "TrialRunResult": "repro.scenarios.runtime",
    "build": "repro.scenarios.runtime",
    "materialize": "repro.scenarios.runtime",
    "prebuild_delta_table": "repro.scenarios.runtime",
    "resolve_params": "repro.scenarios.runtime",
    "resolve_trace_mode": "repro.scenarios.runtime",
    "run": "repro.scenarios.runtime",
    "run_many": "repro.scenarios.runtime",
    "run_trial": "repro.scenarios.runtime",
    "AlgorithmSpec": "repro.scenarios.spec",
    "EngineConfig": "repro.scenarios.spec",
    "EnvironmentSpec": "repro.scenarios.spec",
    "MetricSpec": "repro.scenarios.spec",
    "RunPolicy": "repro.scenarios.spec",
    "ScenarioSpec": "repro.scenarios.spec",
    "SchedulerSpec": "repro.scenarios.spec",
    "TopologySpec": "repro.scenarios.spec",
    "ResultStore": "repro.scenarios.store",
    "metrics_signature": "repro.scenarios.store",
    "scenario_trial_identity": "repro.scenarios.store",
    "trial_key": "repro.scenarios.store",
    "SuiteCancelled": "repro.scenarios.suite",
    "SuiteEntry": "repro.scenarios.suite",
    "SuiteEntryResult": "repro.scenarios.suite",
    "SuiteReport": "repro.scenarios.suite",
    "SuiteSpec": "repro.scenarios.suite",
    "SuiteTaskError": "repro.scenarios.suite",
    "deterministic_report_dict": "repro.scenarios.suite",
    "run_suite": "repro.scenarios.suite",
    "DEFAULT_LEASE_TTL_S": "repro.scenarios.fleet",
    "FleetTaskError": "repro.scenarios.fleet",
    "default_task_runner": "repro.scenarios.fleet",
    "run_suite_fleet": "repro.scenarios.fleet",
    "FaultPlan": "repro.scenarios.jobs",
    "Job": "repro.scenarios.jobs",
    "JobManager": "repro.scenarios.jobs",
    "JobRejected": "repro.scenarios.jobs",
    "parse_submission": "repro.scenarios.jobs",
}

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
    "SuiteTaskError",
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

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
