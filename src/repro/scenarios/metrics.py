"""The declarative metrics pipeline: registered trace reducers + aggregation.

A **metric** is a named, JSON-configurable reducer from one executed trial
(trace, graph, derived params, ...) to a flat row of numbers.  Scenarios name
metrics declaratively (:class:`~repro.scenarios.spec.MetricSpec` entries on
:class:`~repro.scenarios.spec.ScenarioSpec`); the runtime evaluates them per
trial and aggregates the rows with the :mod:`repro.analysis.stats` helpers --
the same decorator-registry pattern as topologies/schedulers/algorithms/
environments, extended with two pieces of metadata:

* **minimum trace mode** -- each metric declares the cheapest
  :class:`~repro.simulation.trace.TraceMode` it can run under, so a scenario
  with ``engine.trace_mode="auto"`` records exactly as much trace as its
  metrics need (see :func:`required_trace_mode`);
* **pooled aggregates** -- a metric may declare *ratio* columns
  (``sum(numerator)/sum(denominator)`` pooled across trials -- the exact
  arithmetic the pre-pipeline benchmark scripts used for e.g. mean ack
  delay) and *rate* columns (pooled proportions with Wilson 95% intervals
  from :func:`repro.analysis.stats.wilson_interval`).

The built-in metrics wrap the existing reducers the repo already had -- the
:mod:`repro.simulation.metrics` helpers (ack delays, delivery, progress,
receive rate, seed owners) and the specification checkers
(:func:`repro.core.lb_spec.check_lb_execution`,
:func:`repro.core.seed_spec.check_seed_execution`,
:func:`repro.mac.spec.check_mac_guarantees`) -- so spec-checker verdicts are
first-class declarative metrics rather than ad-hoc post-processing.

Metric rows are **deterministic**: reducers see no wall-clock timing, so a
trial's metric row is byte-identical whether the trial ran serially, on a
suite's process pool, or on the fleet (pinned by
``tests/test_metrics_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import quantile, summarize, wilson_interval
from repro.scenarios.components import resolve_senders
from repro.scenarios.registry import Registry
from repro.scenarios.spec import MetricSpec
from repro.simulation.metrics import (
    ack_delays,
    data_reception_round_sets,
    data_reception_rounds,
    delivery_report,
    iter_data_reception_rounds,
    progress_report,
    receive_rates,
    unique_seed_owner_counts,
)
from repro.simulation.trace import ExecutionTrace, TraceMode

#: Namespace separator between a metric's registry name and its column keys:
#: metric ``"ack_delay"`` contributes row columns like ``"ack_delay.delay_max"``.
METRIC_KEY_SEPARATOR = "."


@dataclass
class MetricContext:
    """Everything a metric reducer may read about one executed trial.

    Reducers receive the context positionally plus their
    :class:`~repro.scenarios.spec.MetricSpec` args as keywords.  They must be
    pure functions of this data -- no wall clock, no randomness -- which is
    what keeps metric rows identical across serial and parallel execution.
    """

    trace: ExecutionTrace
    graph: Any
    params: Any = None
    spec: Any = None
    trial_index: int = 0
    seed: int = 0
    rounds: int = 0
    environment: Any = None
    algorithm_build: Any = None
    #: The topology builder's :class:`~repro.dualgraph.geometric.Embedding`
    #: (geometry-aware metrics such as ``probe_progress`` need it; ``None``
    #: for topologies without one).
    embedding: Any = None
    _memo: Dict[Hashable, Any] = field(default_factory=dict, init=False, repr=False)

    def shared(self, reducer: Callable[..., Any], *args: Hashable) -> Any:
        """``reducer(trace, graph, *args)``, evaluated once per trial: the
        progress windows and owner counts that several metrics report."""
        key = (reducer, args)
        if key not in self._memo:
            self._memo[key] = reducer(self.trace, self.graph, *args)
        return self._memo[key]


class MetricRegistry(Registry):
    """A :class:`~repro.scenarios.registry.Registry` of metric reducers.

    On top of the base name -> builder mapping it records, per metric, the
    minimum :class:`TraceMode` the reducer needs and the declarative pooled
    aggregate columns (``ratios`` / ``rates``) described in the module
    docstring.
    """

    def __init__(self) -> None:
        super().__init__("metric", leading=1)
        self._trace_modes: Dict[str, TraceMode] = {}
        self._ratios: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self._rates: Dict[str, Dict[str, Tuple[str, str]]] = {}

    def register(  # type: ignore[override]
        self,
        name: str,
        sample_args: Optional[Mapping[str, Any]] = None,
        trace_mode: TraceMode = TraceMode.FULL,
        ratios: Optional[Mapping[str, Tuple[str, str]]] = None,
        rates: Optional[Mapping[str, Tuple[str, str]]] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register ``reducer(ctx, **args) -> Mapping[str, number]``.

        Parameters
        ----------
        trace_mode:
            The *minimum* trace mode the reducer needs.  Evaluating the metric
            on a trace recorded under a poorer mode raises; scenarios with
            ``engine.trace_mode="auto"`` record the cheapest mode covering all
            their metrics.
        ratios:
            ``{column: (numerator_key, denominator_key)}`` -- aggregated as
            the pooled ratio ``sum(num)/sum(den)`` across trials (``None``
            when the pooled denominator is 0).
        rates:
            ``{column: (successes_key, trials_key)}`` -- aggregated as the
            pooled proportion ``sum(successes)/max(sum(trials), 1)`` plus its
            Wilson 95% interval.
        """
        decorator = super().register(name, sample_args=sample_args)

        def wrap(reducer: Callable[..., Any]) -> Callable[..., Any]:
            reducer = decorator(reducer)
            self._trace_modes[name] = trace_mode
            self._ratios[name] = dict(ratios or {})
            self._rates[name] = dict(rates or {})
            return reducer

        return wrap

    def min_trace_mode(self, name: str) -> TraceMode:
        """The cheapest :class:`TraceMode` the named metric can run under."""
        self.get(name)  # raise uniformly on unknown names
        return self._trace_modes[name]

    def ratios(self, name: str) -> Dict[str, Tuple[str, str]]:
        self.get(name)
        return dict(self._ratios[name])

    def rates(self, name: str) -> Dict[str, Tuple[str, str]]:
        self.get(name)
        return dict(self._rates[name])


#: The process-wide metric registry backing ``ScenarioSpec.metrics``.
METRICS = MetricRegistry()


def register_metric(
    name: str,
    sample_args: Optional[Mapping[str, Any]] = None,
    trace_mode: TraceMode = TraceMode.FULL,
    ratios: Optional[Mapping[str, Tuple[str, str]]] = None,
    rates: Optional[Mapping[str, Tuple[str, str]]] = None,
):
    """Register a metric reducer: ``f(ctx, **args) -> Mapping[str, number]``."""
    return METRICS.register(
        name, sample_args=sample_args, trace_mode=trace_mode, ratios=ratios, rates=rates
    )


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def required_trace_mode(metrics: Sequence[MetricSpec]) -> TraceMode:
    """The cheapest :class:`TraceMode` covering every declared metric.

    With no metrics declared the answer is ``FULL`` -- the safe historical
    default, since a metric-free scenario's consumer typically reads the kept
    traces directly.
    """
    if not metrics:
        return TraceMode.FULL
    needed = TraceMode.COUNTERS
    for metric in metrics:
        minimum = METRICS.min_trace_mode(metric.name)
        if minimum.richness > needed.richness:
            needed = minimum
    return needed


def evaluate_metrics(
    metrics: Sequence[MetricSpec], ctx: MetricContext
) -> Dict[str, Any]:
    """One trial's metric row: every declared metric, namespaced.

    Each metric's columns appear as ``"<metric name>.<key>"``.  A metric
    whose minimum trace mode exceeds the trace's actual mode raises a
    :class:`ValueError` naming both -- the fix is ``engine.trace_mode="auto"``
    (or an explicit richer mode).
    """
    row: Dict[str, Any] = {}
    for metric in metrics:
        reducer = METRICS.get(metric.name)
        minimum = METRICS.min_trace_mode(metric.name)
        if not ctx.trace.mode.covers(minimum):
            raise ValueError(
                f"metric {metric.name!r} needs trace_mode >= {minimum.value!r} but the "
                f"trace was recorded under {ctx.trace.mode.value!r}; set "
                "engine.trace_mode='auto' (or a richer explicit mode)"
            )
        values = reducer(ctx, **metric.args)
        for key, value in values.items():
            row[f"{metric.name}{METRIC_KEY_SEPARATOR}{key}"] = value
    return row


def is_metric_column(key: str) -> bool:
    """True for namespaced metric-row keys (``"<metric>.<column>"``)."""
    return METRIC_KEY_SEPARATOR in key


def aggregate_metric_rows(
    metrics: Sequence[MetricSpec], rows: Sequence[Mapping[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-trial metric rows into per-column statistics.

    Every numeric column gets ``sum`` plus the
    :func:`repro.analysis.stats.summarize` statistics (``count`` / ``mean`` /
    ``std`` / ``min`` / ``median`` / ``p90`` / ``max``).  Columns a metric
    declared as *ratios* or *rates* are then (re)computed by pooling their
    numerator / denominator sums across trials -- the arithmetic that makes a
    three-trials-pooled mean ack delay exactly equal the flat mean over all
    delays, and a pooled failure rate carry an honest Wilson interval.  A
    pooled ratio or rate whose denominator is 0 reports ``None`` values (no
    observations is not a perfect score).
    """
    aggregates: Dict[str, Dict[str, float]] = {}
    columns: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            if isinstance(value, bool) or isinstance(value, (int, float)):
                columns.setdefault(key, []).append(float(value))
    for key, values in columns.items():
        aggregates[key] = {**summarize(values), "sum": sum(values)}

    def pooled_sum(metric_name: str, key: str) -> float:
        column = f"{metric_name}{METRIC_KEY_SEPARATOR}{key}"
        entry = aggregates.get(column)
        return entry["sum"] if entry else 0.0

    for metric in metrics:
        for out_key, (num_key, den_key) in METRICS.ratios(metric.name).items():
            numerator = pooled_sum(metric.name, num_key)
            denominator = pooled_sum(metric.name, den_key)
            column = f"{metric.name}{METRIC_KEY_SEPARATOR}{out_key}"
            aggregates[column] = {
                "value": numerator / denominator if denominator else None,
                "numerator": numerator,
                "denominator": denominator,
            }
        for out_key, (hits_key, trials_key) in METRICS.rates(metric.name).items():
            hits = int(pooled_sum(metric.name, hits_key))
            trials = int(pooled_sum(metric.name, trials_key))
            low, high = wilson_interval(hits, trials) if trials else (None, None)
            column = f"{metric.name}{METRIC_KEY_SEPARATOR}{out_key}"
            aggregates[column] = {
                "value": hits / trials if trials else None,
                "successes": float(hits),
                "trials": float(trials),
                "wilson_low": low,
                "wilson_high": high,
            }
    return aggregates


def flatten_aggregates(aggregates: Mapping[str, Mapping[str, float]]) -> Dict[str, Any]:
    """One representative number per aggregated column (for flat result rows).

    Ratio/rate columns contribute their pooled ``value``; plain columns
    contribute their ``mean``.
    """
    flat: Dict[str, Any] = {}
    for key, entry in aggregates.items():
        flat[key] = entry["value"] if "value" in entry else entry["mean"]
    return flat


# ----------------------------------------------------------------------
# built-in metrics
# ----------------------------------------------------------------------
def _param_arg(ctx: MetricContext, metric: str, arg: str, value: Any, attr: str) -> Any:
    """Metric arg ``arg``: ``value`` if given, else the trial's positive ``params.<attr>``."""
    if value is None:
        value = getattr(ctx.params, attr, None)
        if not value:
            what = "derived params" if ctx.params is None else type(ctx.params).__name__
            raise ValueError(
                f"metric {metric!r} needs {arg}: the trial's {what} define no positive "
                f"{attr}; pass {arg} explicitly in the metric's args"
            )
    return value


def _progress_row(
    ctx: MetricContext, metric: str, window: Optional[int], receivers: Any, use_frames: bool
) -> Tuple[Any, Dict[str, Any]]:
    """The shared progress report of a window metric and its common columns."""
    window = _param_arg(ctx, metric, "window", window, "tprog_rounds")
    report = ctx.shared(progress_report, window, receivers, use_frames)
    return report, {
        "window": window,
        "total_windows": len(report.windows),
        "windows": report.num_applicable,
        "failures": len(report.failures),
    }


@register_metric("counters", sample_args={}, trace_mode=TraceMode.COUNTERS)
def _metric_counters(ctx: MetricContext) -> Dict[str, Any]:
    """Aggregate event/frame counters (available under every trace mode)."""
    counts = ctx.trace.event_counts
    return {
        "rounds": ctx.rounds,
        "transmissions": ctx.trace.num_transmissions,
        "receptions": ctx.trace.num_receptions,
        "bcasts": counts["bcast"],
        "acks": counts["ack"],
        "recvs": counts["recv"],
        "decides": counts["decide"],
    }


@register_metric("params", sample_args={}, trace_mode=TraceMode.COUNTERS)
def _metric_params(ctx: MetricContext) -> Dict[str, Any]:
    """The derived algorithm parameters as columns (Δ, t_ack, t_prog, ...).

    Records whichever of the well-known parameter attributes the trial's
    params object exposes -- LBAlg and SeedAlg trials share one metric.
    """
    row: Dict[str, Any] = {}
    for attr in (
        "delta",
        "delta_prime",
        "epsilon",
        "phase_length",
        "tprog_rounds",
        "tack_rounds",
        "total_rounds",
        "delta_bound",
    ):
        value = getattr(ctx.params, attr, None)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            row[attr] = value
    return row


@register_metric("graph_stats", sample_args={}, trace_mode=TraceMode.COUNTERS)
def _metric_graph_stats(ctx: MetricContext) -> Dict[str, Any]:
    """The sampled network's measured local quantities (n, Δ, Δ').

    What the benchmark harnesses report as "measured" degrees next to the
    budgets the parameters were derived from: ``delta``/``delta_prime`` are
    the graph's :meth:`~repro.dualgraph.graph.DualGraph.degree_bounds` --
    the maximum reliable and potential degrees of the trial's sample.
    """
    delta, delta_prime = ctx.graph.degree_bounds()
    return {"n": ctx.graph.n, "delta": delta, "delta_prime": delta_prime}


@register_metric(
    "ack_delay",
    sample_args={},
    trace_mode=TraceMode.EVENTS,
    ratios={"delay_mean": ("delay_sum", "acked")},
    rates={"pending_rate": ("pending", "broadcasts")},
)
def _metric_ack_delay(ctx: MetricContext, bound: Optional[int] = None) -> Dict[str, Any]:
    """Acknowledgment latency (wraps :func:`repro.simulation.metrics.ack_delays`).

    ``bound`` defaults to the trial's derived ``t_ack`` when available;
    ``bound_violations`` counts acked delays exceeding it.  It is a latency
    statistic, not the LB timely-ack clause: at the default bound it equals
    the clause's ``late`` violations only (``lb_spec`` reports the clause).
    """
    if bound is None:
        bound = getattr(ctx.params, "tack_rounds", None)
    records = ack_delays(ctx.trace)
    delays = [r.delay for r in records if r.delay is not None]
    row: Dict[str, Any] = {
        "broadcasts": len(records),
        "acked": len(delays),
        "pending": len(records) - len(delays),
        "delay_sum": sum(delays),
        "delay_max": max(delays) if delays else 0,
    }
    if bound is not None:
        row["bound"] = bound
        row["bound_violations"] = sum(1 for d in delays if d > bound)
    return row


@register_metric(
    "delivery",
    sample_args={},
    trace_mode=TraceMode.EVENTS,
    ratios={"fraction_mean": ("fraction_sum", "broadcasts")},
    rates={"success_rate": ("full_deliveries", "broadcasts")},
)
def _metric_delivery(ctx: MetricContext) -> Dict[str, Any]:
    """Reliable-neighborhood delivery (wraps
    :func:`repro.simulation.metrics.delivery_report`)."""
    records = delivery_report(ctx.trace, ctx.graph)
    completed = [r for r in records if r.ack_round is not None]
    return {
        "broadcasts": len(records),
        "completed": len(completed),
        "full_deliveries": sum(1 for r in records if r.fully_delivered),
        "fraction_sum": sum(r.delivery_fraction for r in records),
    }


@register_metric(
    "progress",
    sample_args={},
    trace_mode=TraceMode.FULL,
    rates={"failure_rate": ("failures", "windows")},
)
def _metric_progress(
    ctx: MetricContext, window: Optional[int] = None, use_frames: bool = True
) -> Dict[str, Any]:
    """Progress-window outcomes (wraps
    :func:`repro.simulation.metrics.progress_report`).

    ``window`` defaults to the trial's derived ``t_prog``.
    """
    return _progress_row(ctx, "progress", window, None, use_frames)[1]


def _resolve_probe(ctx: MetricContext, metric: str, vertex: Optional[Any]) -> Any:
    """The probe vertex of a geometry-aware metric.

    An explicit ``vertex`` arg wins; otherwise the vertex embedded nearest
    the center of the deployment area
    (:func:`repro.dualgraph.geometric.central_vertex`), which needs the
    trial's embedding.
    """
    from repro.dualgraph.geometric import central_vertex

    if vertex is not None:
        return vertex
    if ctx.embedding is None:
        raise ValueError(
            f"metric {metric!r} needs the trial's embedding to place the center "
            "probe; pass an explicit vertex= arg for topologies without one"
        )
    return central_vertex(ctx.graph, ctx.embedding)


@register_metric(
    "probe_progress",
    sample_args={},
    trace_mode=TraceMode.FULL,
    rates={"pooled_failure_rate": ("failures", "windows")},
)
def _metric_probe_progress(
    ctx: MetricContext, window: Optional[int] = None, vertex: Optional[Any] = None
) -> Dict[str, Any]:
    """Progress-window outcomes at a single probe receiver (the E9 measurement).

    Like ``progress``, but restricted to one receiver -- by default the vertex
    embedded nearest the center of the deployment area.  ``failure_rate`` is
    the per-trial rate (0.0 when no window was applicable), so a mean over
    trials with ``windows > 0`` reproduces the pre-migration harness's
    arithmetic exactly; the pooled ``pooled_failure_rate`` rate is the
    cross-trial aggregate with a Wilson interval.
    """
    probe = _resolve_probe(ctx, "probe_progress", vertex)
    report, row = _progress_row(ctx, "probe_progress", window, (probe,), True)
    return {"probe": probe, **row, "failure_rate": report.failure_rate}


@register_metric(
    "probe_reception",
    sample_args={},
    trace_mode=TraceMode.FULL,
    ratios={"pooled_rate": ("receptions", "rounds")},
)
def _metric_probe_reception(
    ctx: MetricContext, vertex: Optional[Any] = None
) -> Dict[str, Any]:
    """Per-round data-reception rate at a single probe receiver (E9).

    Counts the rounds in which the probe -- by default the center vertex --
    physically received a data frame
    (:func:`repro.simulation.metrics.data_reception_rounds`) and divides by
    the trial's round budget.
    """
    probe = _resolve_probe(ctx, "probe_reception", vertex)
    receptions = len(data_reception_rounds(ctx.trace, probe))
    return {
        "probe": probe,
        "rounds": ctx.rounds,
        "receptions": receptions,
        "rate": receptions / ctx.rounds if ctx.rounds else 0.0,
    }


@register_metric(
    "receive_rate",
    sample_args={},
    trace_mode=TraceMode.FULL,
    ratios={"rate_mean": ("rate_sum", "vertices")},
)
def _metric_receive_rate(
    ctx: MetricContext, start_round: int = 1, end_round: Optional[int] = None
) -> Dict[str, Any]:
    """Per-vertex frame receive rates over a round range (wraps
    :func:`repro.simulation.metrics.receive_rates`)."""
    if end_round is None:
        end_round = ctx.rounds
    if end_round < start_round:  # zero-round runs have no window to rate
        counts: Dict[Any, int] = {}
    else:
        counts = receive_rates(ctx.trace, start_round, end_round)
    total = max(end_round - start_round + 1, 1)
    rates = [counts.get(vertex, 0) / total for vertex in ctx.graph.vertices]
    return {
        "vertices": len(rates),
        "rate_sum": sum(rates),
        "rate_min": min(rates) if rates else 0.0,
        "rate_max": max(rates) if rates else 0.0,
    }


@register_metric(
    "body_receive",
    sample_args={},
    trace_mode=TraceMode.FULL,
    ratios={"rate_mean": ("rate_sum", "receivers")},
)
def _metric_body_receive(
    ctx: MetricContext, senders: Optional[Any] = None
) -> Dict[str, Any]:
    """Per-receiver data-reception rates over the *body* rounds of each phase.

    The Lemma 4.2 measurement: for every receiver with at least one sender
    among its reliable neighbors, the fraction of body rounds (the rounds
    after the ``Ts``-long seed-agreement preamble of each LBAlg phase) in
    which the receiver physically received a data frame.  ``senders``
    defaults to the scenario environment's sender selection, so the metric
    rates exactly the vertices sitting next to an actively broadcasting
    neighbor.  The pooled ``rate_mean`` ratio equals the flat mean over all
    per-receiver rates across trials.
    """
    params = ctx.params
    if params is None:
        raise ValueError(
            "metric 'body_receive' needs the phase structure (ts, phase_length) but "
            "the trial has no derived params"
        )
    if senders is None:
        env_spec = getattr(ctx.spec, "environment", None)
        senders = env_spec.args.get("senders") if env_spec is not None else None
        if senders is None:
            raise ValueError(
                "metric 'body_receive' needs a sender selection: pass senders= in "
                "the metric args or declare one on the scenario's environment"
            )
    sender_set = set(resolve_senders(ctx.graph, senders))
    phases = ctx.rounds // params.phase_length
    body_rounds = set()
    for phase in range(phases):
        base = phase * params.phase_length
        for offset in range(params.ts + 1, params.phase_length + 1):
            body_rounds.add(base + offset)

    receivers = set()
    for sender in sender_set:
        receivers |= set(ctx.graph.reliable_neighbors(sender))
    receivers -= sender_set

    heard_by = data_reception_round_sets(ctx.trace)
    total = len(body_rounds)
    rates = [
        len(heard_by.get(receiver, frozenset()) & body_rounds) / total
        for receiver in receivers
    ] if total else []
    return {
        "body_rounds": total,
        "receivers": len(rates),
        "rate_sum": sum(rates),
        "rate_min": min(rates) if rates else 0.0,
        "rate_max": max(rates) if rates else 0.0,
    }


@register_metric(
    "reception_provenance",
    sample_args={},
    trace_mode=TraceMode.FULL,
    ratios={
        "per_round": ("data_receptions", "rounds"),
        "unreliable_fraction": ("unreliable_receptions", "data_receptions"),
    },
)
def _metric_reception_provenance(ctx: MetricContext) -> Dict[str, Any]:
    """Which edges data receptions traveled over (reliable vs unreliable).

    Counts the physical data-frame receptions in the trace and, among them,
    the ones not attributable to any reliable neighbor of the receiver --
    i.e. deliveries that must have crossed a scheduled unreliable edge.  The
    model-boundary experiment (E12) uses this to show the adaptive adversary
    never lets a delivery cross an unreliable edge.
    """
    trace, graph = ctx.trace, ctx.graph
    data_receptions = 0
    unreliable_receptions = 0
    for round_number, received in trace.receptions_by_round():
        if round_number > ctx.rounds:
            break
        transmissions = trace.transmissions_in_round(round_number)
        for receiver, frame in received.items():
            if getattr(frame, "message", None) is None:
                continue
            data_receptions += 1
            frame_senders = [v for v, f in transmissions.items() if f is frame]
            if frame_senders and not any(
                v in graph.reliable_neighbors(receiver) for v in frame_senders
            ):
                unreliable_receptions += 1
    return {
        "rounds": ctx.rounds,
        "data_receptions": data_receptions,
        "unreliable_receptions": unreliable_receptions,
    }


@register_metric(
    "seed_owners",
    sample_args={},
    trace_mode=TraceMode.EVENTS,
    ratios={"owners_mean": ("owner_count_sum", "vertices")},
)
def _metric_seed_owners(
    ctx: MetricContext, delta_bound: Optional[int] = None
) -> Dict[str, Any]:
    """Unique seed-owner counts per closed neighborhood (wraps
    :func:`repro.simulation.metrics.unique_seed_owner_counts`, counted once
    per trial with ``seed_spec``)."""
    counts = ctx.shared(unique_seed_owner_counts)
    if delta_bound is None:
        delta_bound = getattr(ctx.params, "delta_bound", None)
    row: Dict[str, Any] = {
        "vertices": len(counts),
        "owner_count_sum": sum(counts.values()),
        "owners_max": max(counts.values()) if counts else 0,
    }
    if delta_bound:
        row["delta_bound"] = delta_bound
        row["agreement_violations"] = sum(1 for c in counts.values() if c > delta_bound)
    return row


@register_metric(
    "commit_latency",
    sample_args={},
    trace_mode=TraceMode.EVENTS,
    ratios={"latency_mean": ("latency_sum", "decided")},
)
def _metric_commit_latency(ctx: MetricContext) -> Dict[str, Any]:
    """Commit (decide) latencies in rounds (wraps
    :func:`repro.core.seed_spec.decide_latency_rounds`).

    The pooled ``latency_mean`` ratio equals the flat mean over every
    vertex's earliest decide round across all trials -- the E2 runtime
    measurement.
    """
    from repro.core.seed_spec import decide_latency_rounds

    latencies = decide_latency_rounds(ctx.trace)
    return {
        "decided": len(latencies),
        "latency_sum": sum(latencies.values()),
        "latency_max": max(latencies.values()) if latencies else 0,
    }


@register_metric(
    "lb_spec",
    sample_args={},
    trace_mode=TraceMode.FULL,
    rates={
        "reliability_rate": ("reliability_failures", "completed_broadcasts"),
        "progress_rate": ("progress_failures", "progress_windows"),
    },
)
def _metric_lb_spec(
    ctx: MetricContext,
    tack: Optional[int] = None,
    tprog: Optional[int] = None,
    check_progress: bool = True,
) -> Dict[str, Any]:
    """``LB(t_ack, t_prog, ε)`` verdicts as numbers (wraps
    :func:`repro.core.lb_spec.check_lb_execution`; the progress windows are
    shared per trial through :meth:`MetricContext.shared`)."""
    from repro.core.lb_spec import check_lb_execution

    tack = _param_arg(ctx, "lb_spec", "tack", tack, "tack_rounds")
    tprog = _param_arg(ctx, "lb_spec", "tprog", tprog, "tprog_rounds")
    report = check_lb_execution(ctx.trace, ctx.graph, tack, tprog, check_progress=False)
    if check_progress:
        report.progress = ctx.shared(progress_report, tprog, None, True)
    return {
        "deterministic_ok": int(report.deterministic_ok),
        "timely_ack_violations": len(report.timely_ack_violations),
        "validity_violations": len(report.validity_violations),
        "completed_broadcasts": len(report.completed_deliveries),
        "reliability_failures": len(report.reliability_failures),
        "progress_windows": report.num_progress_windows,
        "progress_failures": report.num_progress_failures,
    }


@register_metric(
    "seed_spec",
    sample_args={},
    trace_mode=TraceMode.EVENTS,
    rates={"agreement_rate": ("agreement_violations", "vertices")},
)
def _metric_seed_spec(
    ctx: MetricContext, delta_bound: Optional[int] = None
) -> Dict[str, Any]:
    """``Seed(δ, ε)`` verdicts as numbers (wraps
    :func:`repro.core.seed_spec.check_seed_execution`; the agreement counts
    are shared per trial through :meth:`MetricContext.shared`)."""
    from repro.core.seed_spec import seed_spec_report

    delta_bound = _param_arg(ctx, "seed_spec", "delta_bound", delta_bound, "delta_bound")
    counts = ctx.shared(unique_seed_owner_counts)
    report = seed_spec_report(ctx.trace, ctx.graph, delta_bound, counts)
    return {
        "ok": int(report.ok),
        "delta_bound": delta_bound,
        "vertices": len(report.agreement_counts),
        "well_formedness_violations": len(report.well_formedness_violations),
        "consistency_violations": len(report.consistency_violations),
        "agreement_violations": len(report.agreement_violations),
        "owners_max": report.max_agreement_count,
    }


@register_metric(
    "mac_guarantees",
    sample_args={},
    trace_mode=TraceMode.FULL,
    rates={
        "reliability_rate": ("reliability_failures", "acked_broadcasts"),
        "progress_rate": ("progress_failures", "progress_windows"),
    },
)
def _metric_mac_guarantees(
    ctx: MetricContext,
    f_ack: Optional[int] = None,
    f_prog: Optional[int] = None,
    epsilon: Optional[float] = None,
    check_progress: bool = True,
) -> Dict[str, Any]:
    """Abstract MAC layer guarantee verdicts (wraps
    :func:`repro.mac.spec.check_mac_guarantees`).

    The promise defaults to the one the LBAlg-backed layer advertises for the
    trial's derived params (:meth:`repro.mac.spec.MacLayerGuarantees.from_lb_params`:
    ``t_ack``, ``t_prog``, ``ε``); its progress windows are shared per trial
    through :meth:`MetricContext.shared`.
    """
    from repro.core.lb_spec import check_lb_delivery
    from repro.mac.spec import MacGuaranteeReport, MacLayerGuarantees

    explicit = (f_ack, f_prog, epsilon)
    if any(v is not None for v in explicit) and any(v is None for v in explicit):
        raise ValueError(
            "metric 'mac_guarantees' needs all of f_ack, f_prog and epsilon "
            "when any of them is given explicitly"
        )
    guarantees = MacLayerGuarantees(
        f_ack=_param_arg(ctx, "mac_guarantees", "f_ack", f_ack, "tack_rounds"),
        f_prog=_param_arg(ctx, "mac_guarantees", "f_prog", f_prog, "tprog_rounds"),
        epsilon=_param_arg(ctx, "mac_guarantees", "epsilon", epsilon, "epsilon"),
    )
    lb = check_lb_delivery(
        ctx.trace, ctx.graph, guarantees.f_ack, guarantees.f_prog, check_progress=False
    )
    if check_progress:
        lb.progress = ctx.shared(progress_report, guarantees.f_prog, None, True)
    report = MacGuaranteeReport.from_lb(guarantees, lb)
    row = dict(report.summary())
    row["ack_ok"] = int(report.ack_ok)
    row["within_epsilon"] = int(report.within_epsilon)
    return row


def _q(values: Sequence[float], q: float) -> float:
    """A quantile that reports 0.0 on no observations (empty queues are real)."""
    return quantile(values, q) if values else 0.0


@register_metric(
    "queue",
    sample_args={},
    trace_mode=TraceMode.COUNTERS,
    ratios={
        "delivery_latency_mean": ("delivery_latency_sum", "delivered"),
        "ack_latency_mean": ("ack_latency_sum", "acked"),
        "wait_mean": ("wait_sum", "submitted"),
        "throughput": ("acked", "rounds"),
        "backlog_mean": ("backlog_sum", "rounds"),
    },
    rates={
        "delivery_rate": ("delivered", "enqueued"),
        "delivered_by_ack_rate": ("delivered_before_ack", "acked"),
        "drop_rate": ("dropped", "offered"),
    },
)
def _metric_queue(ctx: MetricContext) -> Dict[str, Any]:
    """Backlog, waiting-time and delivery-latency statistics of a queued trial.

    Reads the trial's :class:`repro.traffic.environment.QueuedEnvironment`
    state (the environment records per-message enqueue/dequeue/delivery/ack
    rounds itself), so any trace mode suffices.  *Delivery* means every
    reliable neighbor of the origin produced a ``recv`` -- the abstract MAC
    layer's delivery event; latencies count rounds from enqueue.  Percentile
    columns are per-trial; the pooled ratio/rate columns (means, throughput,
    delivery/drop rates with Wilson intervals) are exact across trials.
    """
    from repro.traffic.environment import QueuedEnvironment

    environment = ctx.environment
    if not isinstance(environment, QueuedEnvironment):
        raise ValueError(
            "metric 'queue' needs the 'queued' environment (a QueuedEnvironment); "
            f"this trial ran {type(environment).__name__}"
        )
    return {
        "rounds": ctx.rounds,
        "offered": environment.offered,
        "enqueued": environment.enqueued,
        "dropped": environment.dropped,
        "submitted": len(environment.wait_samples),
        "acked": environment.acked,
        "delivered": environment.delivered,
        "delivered_before_ack": environment.delivered_before_ack,
        "backlog_sum": sum(environment.backlog_samples),
        "backlog_p50": _q(environment.backlog_samples, 0.5),
        "backlog_p90": _q(environment.backlog_samples, 0.9),
        "backlog_max": max(environment.backlog_samples, default=0),
        "wait_sum": sum(environment.wait_samples),
        "wait_p50": _q(environment.wait_samples, 0.5),
        "wait_max": max(environment.wait_samples, default=0),
        "delivery_latency_sum": sum(environment.delivery_latencies),
        "delivery_latency_p50": _q(environment.delivery_latencies, 0.5),
        "delivery_latency_p90": _q(environment.delivery_latencies, 0.9),
        "delivery_latency_max": max(environment.delivery_latencies, default=0),
        "ack_latency_sum": sum(environment.ack_latencies),
        "ack_latency_p50": _q(environment.ack_latencies, 0.5),
        "ack_latency_max": max(environment.ack_latencies, default=0),
    }


@register_metric("flood", sample_args={}, trace_mode=TraceMode.COUNTERS)
def _metric_flood(ctx: MetricContext) -> Dict[str, Any]:
    """Coverage and completion of a flood trial (the E8 measurement).

    Reads the live :class:`~repro.mac.applications.flood.FloodClient` states
    the ``flood`` algorithm builder parked in
    ``algorithm_build.extras["flood_clients"]``: each client records the
    round it first received the token, which never changes afterwards, so
    the row is independent of how far past completion the trial ran (and of
    the trace mode -- counters suffice).  ``completion_round`` falls back to
    the executed round budget when coverage is incomplete, matching the
    pre-suite harness's convention.
    """
    build = ctx.algorithm_build
    clients = getattr(build, "extras", {}).get("flood_clients") if build else None
    if not clients:
        raise ValueError(
            "metric 'flood' needs the 'flood' algorithm (no flood_clients in "
            "the trial's algorithm build extras)"
        )
    receive_rounds = [client.received_round for client in clients.values()]
    covered = sum(1 for rnd in receive_rounds if rnd is not None)
    complete = covered == len(clients)
    return {
        "vertices": len(clients),
        "covered": covered,
        "coverage": covered / len(clients),
        "complete": int(complete),
        "completion_round": (
            max(receive_rounds) if complete else ctx.rounds
        ),
    }


@register_metric(
    "receiver_contention",
    sample_args={"receiver": 0},
    # FULL: first_reception_round counts *physical* data-frame receptions
    # (recorded frames), not recv outputs.
    trace_mode=TraceMode.FULL,
)
def _metric_receiver_contention(
    ctx: MetricContext,
    receiver: Any = 0,
    origins: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """Contended-receiver latencies against the lower-bound floors (E7).

    At a receiver adjacent to Δ simultaneous broadcasters:
    ``first_reception_round`` is the progress-like quantity (first successful
    data reception; the executed round budget when nothing landed), and
    ``all_heard_round`` is the acknowledgment-like quantity -- the round by
    which the receiver has heard every expected origin, which can never beat
    Δ.  ``origins`` defaults to every vertex other than the receiver; when
    some origin was never heard, ``complete`` is 0 and ``all_heard_round``
    is the sentinel -1 (NaN would poison byte-identity comparisons).
    """
    expected = (
        list(origins)
        if origins is not None
        else [vertex for vertex in ctx.graph.vertices if vertex != receiver]
    )
    heard: Dict[Any, int] = {}
    for recv in ctx.trace.recv_outputs:
        if recv.vertex != receiver:
            continue
        origin = recv.message.origin
        if origin not in heard:
            heard[origin] = recv.round_number
    complete = set(heard) >= set(expected)
    return {
        "expected_origins": len(expected),
        "distinct_origins_heard": len(set(heard) & set(expected)),
        "first_reception_round": next(
            iter_data_reception_rounds(ctx.trace, receiver), ctx.rounds
        ),
        "complete": int(complete),
        "all_heard_round": (
            max(heard[origin] for origin in expected) if complete else -1
        ),
    }
