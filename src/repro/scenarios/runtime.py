"""Materializing and executing :class:`~repro.scenarios.spec.ScenarioSpec` trees.

The runtime is the bridge from declarative specs to the live simulation
stack:

* :func:`materialize` resolves a spec's registry names into a graph,
  processes, scheduler, environment, and a configured
  :class:`~repro.simulation.engine.Simulator` (one trial's worth);
* :func:`build` is the ``spec -> Simulator`` convenience;
* :func:`run` executes every trial of the spec's
  :class:`~repro.scenarios.spec.RunPolicy` and reduces the traces to a
  :class:`RunResult` (aggregate metrics + optional per-trial traces +
  ``perf_stats``);
* :func:`run_many` runs a dotted-path override grid as a suite with one
  entry per grid point.

Every multi-trial batch -- :func:`run` with ``jobs`` or a ``store``, and
:func:`run_many` -- executes through :func:`repro.scenarios.suite.run_suite`,
the one place that consults the result store, prebuilds scheduler-delta
tables and dispatches trials to a process pool.

The raw :class:`~repro.simulation.engine.Simulator` constructor remains the
supported low-level escape hatch for experiments whose wiring a spec cannot
express (hand-built process populations, adaptive environments, mid-run graph
mutation); everything a spec *can* express behaves identically either way --
:func:`build` produces byte-identical traces to the equivalent hand
construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweep import SweepResult, derive_point_seed, iter_grid_points
from repro.dualgraph.adversary import prebuild_scheduler_deltas
from repro.scenarios import components as _components  # noqa: F401  (populates registries)
from repro.scenarios.metrics import (
    MetricContext,
    aggregate_metric_rows,
    evaluate_metrics,
    flatten_aggregates,
    is_metric_column,
    required_trace_mode,
)
from repro.scenarios.registry import ALGORITHMS, ENVIRONMENTS, SCHEDULERS, TOPOLOGIES
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.engine import Simulator
from repro.simulation.metrics import ack_delays
from repro.simulation.trace import ExecutionTrace, TraceMode


@dataclass
class BuiltScenario:
    """One trial's worth of live objects materialized from a spec."""

    spec: ScenarioSpec
    trial_index: int
    trial_seed: int
    graph: Any
    embedding: Any
    processes: Dict[Hashable, Any]
    params: Any
    scheduler: Any
    environment: Any
    simulator: Simulator
    total_rounds: int
    algorithm_build: Any


def _resolve_total_rounds(spec: ScenarioSpec, build) -> int:
    policy = spec.run
    unit = policy.rounds_unit
    if unit == "rounds":
        return policy.rounds
    lengths = {
        "phases": build.phase_length,
        "tack": build.tack_rounds,
        "algorithm": build.natural_rounds,
    }
    length = lengths[unit]
    if length is None:
        raise ValueError(
            f"rounds_unit={unit!r} needs the {spec.algorithm.name!r} algorithm to "
            "report that length; use rounds_unit='rounds' for this algorithm"
        )
    return policy.rounds * length


def resolve_trace_mode(spec: ScenarioSpec) -> TraceMode:
    """The :class:`TraceMode` a spec's trials record under.

    Explicit engine modes are taken verbatim (and validated against the
    declared metrics at evaluation time); ``engine.trace_mode="auto"``
    resolves to the cheapest mode covering every metric in ``spec.metrics``
    (``FULL`` when the spec declares none).
    """
    if spec.engine.is_auto_trace_mode:
        return required_trace_mode(spec.metrics)
    return spec.engine.trace_mode_enum


def resolve_params(spec: ScenarioSpec, trial_index: int = 0, graph: Any = None):
    """Resolve one trial's derived algorithm build **without processes**.

    Uses the algorithm builder's params-only resolution mode when it declares
    one (see :meth:`repro.scenarios.registry.Registry.supports_params_only`),
    falling back to a full build otherwise.  ``graph`` lets callers that have
    already sampled the trial's topology skip resampling it.

    This is what lets a spec that needs a derived quantity to finish its own
    configuration -- e.g. a burst period in phase-length units -- ask for the
    params without materializing a throwaway process population
    (``examples/sensor_field_monitoring.py`` does exactly that).
    """
    trial_seed = spec.run.trial_seed(trial_index)
    if graph is None:
        graph, _ = TOPOLOGIES.get(spec.topology.name)(trial_seed, **spec.topology.args)
    builder = ALGORITHMS.get(spec.algorithm.name)
    rng = random.Random(trial_seed)
    if ALGORITHMS.supports_params_only(spec.algorithm.name):
        return builder(graph, rng, params_only=True, **spec.algorithm.args)
    return builder(graph, rng, **spec.algorithm.args)


def materialize(spec: ScenarioSpec, trial_index: int = 0) -> BuiltScenario:
    """Resolve one trial of a spec into live objects (without running it).

    Construction order (topology, then algorithm processes from a fresh
    ``random.Random(trial_seed)``, then scheduler, then environment) is part
    of the determinism contract: a spec-built simulator is byte-identical to
    the equivalent hand construction that follows the same order (the
    convention used throughout the examples and benchmarks).
    """
    trial_seed = spec.run.trial_seed(trial_index)

    topology_builder = TOPOLOGIES.get(spec.topology.name)
    graph, embedding = topology_builder(trial_seed, **spec.topology.args)

    algorithm_builder = ALGORITHMS.get(spec.algorithm.name)
    rng = random.Random(trial_seed)
    build = algorithm_builder(graph, rng, **spec.algorithm.args)

    scheduler_builder = SCHEDULERS.get(spec.scheduler.name)
    scheduler_kwargs: Dict[str, Any] = {}
    if SCHEDULERS.supports_traffic(spec.scheduler.name):
        # Traffic-aware schedulers (declared via a `traffic` keyword; see
        # Registry.supports_traffic) get the scenario's TrafficSpec so their
        # slot frames can be sized from the declared arrival forecast.
        scheduler_kwargs["traffic"] = spec.traffic
    scheduler = scheduler_builder(
        graph, trial_seed, **scheduler_kwargs, **spec.scheduler.args
    )

    environment_builder = ENVIRONMENTS.get(spec.environment.name)
    environment_kwargs: Dict[str, Any] = {}
    if ENVIRONMENTS.supports_embedding(spec.environment.name):
        # Embedding-aware environments (declared via an `embedding` keyword;
        # see Registry.supports_embedding) get the topology's embedding so
        # sender selections can place themselves geometrically.
        environment_kwargs["embedding"] = embedding
    if ENVIRONMENTS.supports_traffic(spec.environment.name):
        environment_kwargs["traffic"] = spec.traffic
    if ENVIRONMENTS.supports_trial_seed(spec.environment.name):
        environment_kwargs["trial_seed"] = trial_seed
    environment = environment_builder(
        graph, **environment_kwargs, **spec.environment.args
    )

    engine = spec.engine
    simulator = Simulator(
        graph,
        build.processes,
        scheduler=scheduler,
        environment=environment,
        trace_mode=resolve_trace_mode(spec),
        fast_path=engine.fast_path,
        batch_path=engine.batch_path,
    )
    return BuiltScenario(
        spec=spec,
        trial_index=trial_index,
        trial_seed=trial_seed,
        graph=graph,
        embedding=embedding,
        processes=build.processes,
        params=build.params,
        scheduler=scheduler,
        environment=environment,
        simulator=simulator,
        total_rounds=_resolve_total_rounds(spec, build),
        algorithm_build=build,
    )


def build(spec: ScenarioSpec) -> Simulator:
    """``spec -> Simulator`` for trial 0 (the declarative front door)."""
    return materialize(spec).simulator


@dataclass
class TrialRunResult:
    """One executed trial: summary metrics plus (optionally) the live objects."""

    trial_index: int
    seed: int
    rounds: int
    metrics: Dict[str, Any]
    trace: Optional[ExecutionTrace] = None
    simulator: Optional[Simulator] = None
    graph: Any = None
    params: Any = None
    environment: Any = None
    # Which engine lane actually ran and (when the counters lane did not
    # engage) the first disqualifying reason -- captured before the simulator
    # is dropped under keep=False, surfaced via perf_stats.  Deterministic
    # for a given host/install, so excluded from to_dict()'s metric payload.
    lane: Optional[Dict[str, Any]] = None

    @property
    def metric_row(self) -> Dict[str, Any]:
        """Only the declared-metric columns (``"<metric>.<key>"``).

        These are deterministic -- no wall-clock timing -- so the row is
        byte-identical whether the trial ran serially in :func:`run` or as a
        suite task (serial, pooled or on the fleet).
        """
        return {k: v for k, v in self.metrics.items() if is_metric_column(k)}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "rounds": self.rounds,
            "metrics": dict(self.metrics),
        }


@dataclass
class RunResult:
    """The outcome of :func:`run`: per-trial records plus aggregate metrics.

    ``metrics`` carries the flat aggregate row (legacy counter totals plus
    one representative value per declared-metric column);
    ``metric_summaries`` carries the full per-column statistics from
    :func:`repro.scenarios.metrics.aggregate_metric_rows` -- mean / std /
    quantiles for plain columns, pooled values with Wilson intervals for
    declared ratio / rate columns.
    """

    spec: ScenarioSpec
    fingerprint: str
    trials: List[TrialRunResult] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    metric_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Timing sections (floats, summed across trials) plus the engine-lane
    # report: "lane" (the lane that actually ran) and "lane_fallback" (why
    # the counters-only lane did not engage; None when it did).
    perf_stats: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        """Non-empty iff at least one trial ran at least one round."""
        return any(t.rounds > 0 for t in self.trials)

    @property
    def metric_rows(self) -> List[Dict[str, Any]]:
        """The per-trial declared-metric rows, in trial order."""
        return [t.metric_row for t in self.trials]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable summary (no traces / simulators)."""
        data = {
            "scenario": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "trials": [t.to_dict() for t in self.trials],
            "metrics": dict(self.metrics),
            "perf_stats": dict(self.perf_stats),
        }
        if self.metric_summaries:
            data["metric_summaries"] = {
                key: dict(entry) for key, entry in self.metric_summaries.items()
            }
        return data

    def to_row(self) -> Dict[str, Any]:
        """A flat record for sweep tables (aggregate metrics only)."""
        row = {"scenario": self.spec.name, "fingerprint": self.fingerprint}
        row.update(self.metrics)
        return row


def _trial_metrics(trace: ExecutionTrace, rounds: int, elapsed: float) -> Dict[str, Any]:
    counts = trace.event_counts
    metrics: Dict[str, Any] = {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "rounds_per_s": rounds / elapsed if elapsed > 0 else 0.0,
        "transmissions": trace.num_transmissions,
        "receptions": trace.num_receptions,
        "bcasts": counts["bcast"],
        "acks": counts["ack"],
        "recvs": counts["recv"],
        "decides": counts["decide"],
    }
    if trace.mode is not TraceMode.COUNTERS and counts["ack"]:
        delays = [r.delay for r in ack_delays(trace) if r.delay is not None]
        if delays:
            metrics["ack_delay_mean"] = sum(delays) / len(delays)
            metrics["ack_delay_max"] = max(delays)
    return metrics


def run_trial(spec: ScenarioSpec, trial_index: int, keep: bool = True) -> TrialRunResult:
    """Execute exactly one trial of a spec.

    Builds the trial (:func:`materialize`), runs it, computes the built-in
    counter metrics plus every declared metric
    (:func:`repro.scenarios.metrics.evaluate_metrics`, namespaced columns
    merged into ``metrics``).  This single code path backs the serial
    :func:`run` loop and every suite task (through :func:`trial_record`) --
    which is why their metric rows are identical.
    """
    built = materialize(spec, trial_index)
    start = time.perf_counter()
    trace = built.simulator.run(built.total_rounds)
    elapsed = time.perf_counter() - start
    metrics = _trial_metrics(trace, built.total_rounds, elapsed)
    if spec.metrics:
        ctx = MetricContext(
            trace=trace,
            graph=built.graph,
            params=built.params,
            spec=spec,
            trial_index=trial_index,
            seed=built.trial_seed,
            rounds=built.total_rounds,
            environment=built.environment,
            algorithm_build=built.algorithm_build,
            embedding=built.embedding,
        )
        metrics.update(evaluate_metrics(spec.metrics, ctx))
    return TrialRunResult(
        trial_index=trial_index,
        seed=built.trial_seed,
        rounds=built.total_rounds,
        metrics=metrics,
        trace=trace if keep else None,
        # Profiling runs keep the simulator even under keep=False: its
        # perf_stats sections are the whole point of profile=True.
        simulator=built.simulator if keep or spec.engine.profile else None,
        graph=built.graph if keep else None,
        params=built.params if keep else None,
        environment=built.environment if keep else None,
        lane={
            "lane": built.simulator.lane,
            "lane_fallback": built.simulator.lane_fallback,
        },
    )


def trial_record(spec: ScenarioSpec, trial_index: int) -> Dict[str, Any]:
    """Execute one trial and return its plain-data (picklable) record.

    :meth:`TrialRunResult.to_dict` plus the simulator's perf sections when
    profiling -- the wire format every suite task produces (serially, in
    ``run_suite_task`` pool workers and in fleet workers), the result store
    keeps, and :func:`absorb_trial_record` consumes.
    """
    trial = run_trial(spec, trial_index, keep=False)
    record = trial.to_dict()
    # The lane report travels with every record (it is how a silent fallback
    # -- e.g. QueuedEnvironment's _on_recv hook dropping a traffic workload
    # off the counters lane -- becomes visible in RunResult.perf_stats);
    # profiling merges its timing sections alongside.
    perf: Dict[str, Any] = dict(trial.lane or {})
    if spec.engine.profile and trial.simulator is not None:
        perf.update(trial.simulator.perf_stats)
    record["perf_stats"] = perf
    return record


def absorb_trial_record(result: RunResult, record: Mapping[str, Any]) -> None:
    """Append one :func:`trial_record` to a :class:`RunResult` (the pool-side
    counterpart: reconstructs the :class:`TrialRunResult` and accumulates the
    perf sections)."""
    result.trials.append(
        TrialRunResult(
            trial_index=record["trial_index"],
            seed=record["seed"],
            rounds=record["rounds"],
            metrics=dict(record["metrics"]),
        )
    )
    for section, value in record.get("perf_stats", {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            # Lane identity (strings / None): identical across a spec's
            # trials, so plain assignment -- summing would be nonsense.
            result.perf_stats[section] = value
        else:
            result.perf_stats[section] = result.perf_stats.get(section, 0.0) + value


def _aggregate(result: RunResult) -> None:
    """Fill ``result.metrics`` / ``result.metric_summaries`` from its trials."""
    totals: Dict[str, float] = {}
    for trial in result.trials:
        for key, value in trial.metrics.items():
            if is_metric_column(key):
                continue
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0.0) + value
    aggregate: Dict[str, Any] = {"trials": len(result.trials)}
    for key in ("rounds", "transmissions", "receptions", "bcasts", "acks", "recvs", "decides"):
        aggregate[key] = int(totals.get(key, 0))
    aggregate["elapsed_s"] = totals.get("elapsed_s", 0.0)
    aggregate["rounds_per_s"] = (
        aggregate["rounds"] / aggregate["elapsed_s"] if aggregate["elapsed_s"] > 0 else 0.0
    )
    delay_means = [
        t.metrics["ack_delay_mean"] for t in result.trials if "ack_delay_mean" in t.metrics
    ]
    if delay_means:
        aggregate["ack_delay_mean"] = sum(delay_means) / len(delay_means)
        aggregate["ack_delay_max"] = max(
            t.metrics["ack_delay_max"] for t in result.trials if "ack_delay_max" in t.metrics
        )
    if result.spec.metrics:
        result.metric_summaries = aggregate_metric_rows(
            result.spec.metrics, [t.metric_row for t in result.trials]
        )
        aggregate.update(flatten_aggregates(result.metric_summaries))
    result.metrics = aggregate


def run(
    spec: ScenarioSpec,
    keep: bool = True,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    prebuild: bool = True,
    store: Any = None,
) -> RunResult:
    """Execute every trial of the spec and aggregate the results.

    ``keep=True`` (default) retains each trial's trace, simulator, graph and
    derived params on the :class:`TrialRunResult` -- what the examples and
    benchmark harnesses consume.  ``keep=False`` drops the live objects
    (the CLI JSON output needs only the metrics).

    ``jobs`` above 1 or a ``store`` switches to record mode: the spec runs
    as a one-entry suite through :func:`repro.scenarios.suite.run_suite`
    (``jobs``, ``cache_dir`` and ``prebuild`` mean what they mean there,
    except that ``jobs=None`` stays serial).  Live traces do not cross
    process boundaries or come out of the store, so record mode ignores
    ``keep``; metric rows are byte-identical to the live path, in trial
    order.  ``store`` (a :class:`~repro.scenarios.store.ResultStore` or its
    root path) serves every trial whose key (content identity + seed +
    metrics signature; see :func:`repro.scenarios.store.trial_key`) is
    already stored and writes each computed record back.
    """
    pooled = jobs is not None and jobs > 1 and spec.run.trials > 1
    if store is not None or pooled:
        from repro.scenarios.suite import SuiteEntry, SuiteSpec, run_suite

        suite = SuiteSpec(name=spec.name, entries=(SuiteEntry(id=spec.name, scenario=spec),))
        report = run_suite(
            suite, jobs=jobs or 1, cache_dir=cache_dir, prebuild=prebuild, store=store
        )
        return report.entries[0].result

    result = RunResult(spec=spec, fingerprint=spec.fingerprint())
    for trial_index in range(spec.run.trials):
        trial = run_trial(spec, trial_index, keep=keep)
        result.trials.append(trial)
        if trial.lane:
            result.perf_stats.update(trial.lane)
        if spec.engine.profile and trial.simulator is not None:
            for section, seconds in trial.simulator.perf_stats.items():
                result.perf_stats[section] = result.perf_stats.get(section, 0.0) + seconds
    _aggregate(result)
    return result


# ----------------------------------------------------------------------
# delta-table prebuilding (spec-keyed, optionally disk-backed)
# ----------------------------------------------------------------------
def _delta_identity(spec: ScenarioSpec) -> str:
    """Canonical identity of the delta table a spec's variant would prebuild.

    Two grid variants that differ only in fields the table does not depend on
    (environment, trace mode, name, trial count, ...) map to the same
    identity, so the suite prebuild pass computes their shared table once.  The
    identity covers the topology and scheduler specs, the engine's fast-path
    eligibility, the seed root (``master_seed`` + ``seed_policy`` determine
    trial 0's seed), whether the spec runs more than one trial (which can
    disqualify a per-trial re-randomized spec from prebuilding), and the
    round budget -- including the algorithm spec exactly when the round unit
    derives the budget from it.
    """
    from repro.scenarios.spec import _json_canonical

    payload: Dict[str, Any] = {
        "topology": spec.topology.to_dict(),
        "scheduler": spec.scheduler.to_dict(),
        "fast": spec.engine.fast_path,
        "master_seed": spec.run.master_seed,
        "seed_policy": spec.run.seed_policy,
        "multi_trial": spec.run.trials > 1,
        "rounds": spec.run.rounds,
        "rounds_unit": spec.run.rounds_unit,
    }
    if spec.run.rounds_unit != "rounds":
        payload["algorithm"] = spec.algorithm.to_dict()
    if spec.traffic is not None and SCHEDULERS.supports_traffic(spec.scheduler.name):
        # A traffic-aware scheduler's slot frame depends on the declared
        # workload forecast; traffic-agnostic schedulers keep sharing tables
        # across load grid points.
        payload["traffic"] = spec.traffic.to_dict()
    return _json_canonical(payload)


def _component_rerandomizes_per_trial(registry, component) -> bool:
    """Whether a component's sample differs from trial to trial.

    True exactly when the builder declared itself trial-seeded at
    registration (see :meth:`~repro.scenarios.registry.Registry.register`)
    and the spec does not pin an explicit ``seed`` argument -- the rule holds
    for downstream-registered components too, with no name lists to maintain.
    """
    return registry.is_trial_seeded(component.name) and "seed" not in component.args


def prebuild_delta_table(
    spec: ScenarioSpec,
    rounds: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Optional[Dict[Tuple[Hashable, int], Tuple[int, ...]]]:
    """Prebuild (or load) the spec's scheduler-delta table, or ``None``.

    Builds trial 0's topology and scheduler, asks the scheduler for its
    :meth:`~repro.dualgraph.adversary.LinkScheduler.delta_cache_key`, and --
    when the deltas are cacheable -- computes rounds ``1..rounds`` through
    :func:`repro.dualgraph.adversary.prebuild_scheduler_deltas`, keyed on
    disk (under ``cache_dir``) by ``spec.fingerprint()``.  Returns ``None``
    for non-cacheable schedulers (adaptive adversaries, unkeyed subclasses),
    for engines that bypass the delta interface (``fast_path=False``), and
    for multi-trial specs whose topology or scheduler re-randomizes per trial
    (their per-trial delta streams have distinct cache keys, so a trial-0
    table would mostly miss).

    No process population is constructed: literal round budgets never touch
    the algorithm, and derived budgets (``"phases"`` / ``"tack"`` /
    ``"algorithm"``) resolve through :func:`resolve_params` -- the builder's
    params-only mode -- against the already-sampled topology (one topology
    sample per call, never a throwaway simulator).
    """
    if not spec.engine.fast_path:
        return None
    if spec.run.trials > 1 and spec.run.seed_policy != "fixed":
        if _component_rerandomizes_per_trial(TOPOLOGIES, spec.topology):
            return None
        if _component_rerandomizes_per_trial(SCHEDULERS, spec.scheduler):
            return None
    trial_seed = spec.run.trial_seed(0)
    graph, _ = TOPOLOGIES.get(spec.topology.name)(trial_seed, **spec.topology.args)
    scheduler_kwargs: Dict[str, Any] = {}
    if SCHEDULERS.supports_traffic(spec.scheduler.name):
        # Must mirror materialize(): a traffic-aware scheduler built without
        # the workload forecast would prebuild a different slot schedule.
        scheduler_kwargs["traffic"] = spec.traffic
    scheduler = SCHEDULERS.get(spec.scheduler.name)(
        graph, trial_seed, **scheduler_kwargs, **spec.scheduler.args
    )
    if scheduler.delta_cache_key() is None:
        return None
    if rounds is None:
        if spec.run.rounds_unit == "rounds":
            rounds = spec.run.rounds
        else:
            # Params-only resolution: derived round lengths without a
            # throwaway process population (falls back to a full build only
            # for algorithms that never declared the mode).
            algorithm_build = resolve_params(spec, graph=graph)
            rounds = _resolve_total_rounds(spec, algorithm_build)
    return prebuild_scheduler_deltas(
        scheduler,
        rounds,
        cache_dir=cache_dir,
        cache_key=spec.fingerprint(),
    )


def run_many(
    spec: ScenarioSpec,
    overrides_grid: Optional[Mapping[str, Sequence[Any]]] = None,
    jobs: Optional[int] = None,
    base_seed: Optional[int] = None,
    cache_dir: Optional[str] = None,
    prebuild: bool = True,
    store: Any = None,
) -> SweepResult:
    """Run a grid of spec variants as one suite, serially or on a process pool.

    Each grid point becomes one entry of a suite executed by
    :func:`repro.scenarios.suite.run_suite`; ``jobs``, ``cache_dir``,
    ``prebuild`` and ``store`` are passed through and mean what they mean
    there.

    Parameters
    ----------
    overrides_grid:
        Dotted-path -> value sequence, e.g.
        ``{"scheduler.args.probability": [0.25, 0.5, 0.75]}``.  Each grid
        point yields one row (the overrides plus the variant's
        :meth:`RunResult.to_row`), in canonical grid order regardless of
        worker count.
    jobs:
        Worker processes (``None`` = all cores; <2 = serial).
    base_seed:
        When given, each grid point's ``run.master_seed`` is replaced by
        :func:`~repro.analysis.sweep.derive_point_seed` of the point's index
        (stable across worker counts).
    cache_dir:
        Directory for on-disk scheduler-delta tables; repeated invocations of
        the same sweep then skip the per-round schedule hashing entirely.
    prebuild:
        Prebuild the variants' delta tables before any trial runs (set
        ``False`` to skip the upfront cost for short exploratory sweeps).
    store:
        A content-addressed :class:`~repro.scenarios.store.ResultStore` (or
        its root path): each variant's trials are looked up before executing
        and written back after, so re-running a sweep -- or a sweep that
        shares grid points with an earlier one -- recomputes only unseen
        trials.
    """
    from repro.scenarios.suite import SuiteEntry, SuiteSpec, run_suite

    points = list(iter_grid_points(dict(overrides_grid or {})))
    entries = []
    for index, point in enumerate(points):
        variant = spec.with_overrides(point) if point else spec
        if base_seed is not None:
            variant = variant.with_overrides(
                {"run.master_seed": derive_point_seed(base_seed, index)}
            )
        entries.append(SuiteEntry(id=f"point-{index}", scenario=variant))
    report = run_suite(
        SuiteSpec(name=spec.name, entries=tuple(entries)),
        jobs=jobs,
        cache_dir=cache_dir,
        prebuild=prebuild,
        store=store,
    )
    result = SweepResult()
    for point, entry in zip(points, report.entries):
        result.append({**point, **entry.result.to_row()})
    return result
