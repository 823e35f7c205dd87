"""Tests for the declarative metrics pipeline (repro.scenarios.metrics).

Covers the metric registry metadata, trace-mode auto-selection, reducer
behavior under all three trace modes, stats-backed aggregation (pooled
ratios / Wilson rates), the params-only resolution mode, and the
byte-identity of metric rows between serial and parallel execution.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.stats import wilson_interval
from repro.scenarios import (
    ALGORITHMS,
    METRICS,
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    aggregate_metric_rows,
    required_trace_mode,
    resolve_params,
    resolve_trace_mode,
    run,
)
from repro.scenarios.metrics import MetricRegistry
from repro.scenarios.runtime import materialize, prebuild_delta_table
from repro.simulation.trace import TraceMode


def lb_spec_with(metrics=(), trace_mode="auto", trials=1, rounds_unit="tack", rounds=1):
    return ScenarioSpec(
        name="metrics-test",
        topology=TopologySpec("line", {"n": 5}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": 3}),
        environment=EnvironmentSpec("single_shot", {"senders": [0]}),
        engine=EngineConfig(trace_mode=trace_mode),
        run=RunPolicy(
            rounds=rounds,
            rounds_unit=rounds_unit,
            trials=trials,
            master_seed=5,
            seed_policy="sequential",
        ),
        metrics=tuple(MetricSpec(name) for name in metrics),
    )


def seed_spec_with(metrics=()):
    return ScenarioSpec(
        name="seed-metrics-test",
        topology=TopologySpec("clique", {"n": 5}),
        algorithm=AlgorithmSpec("seed_agreement", {"epsilon": 0.2}),
        scheduler=SchedulerSpec("none"),
        engine=EngineConfig(trace_mode="auto"),
        run=RunPolicy(rounds=1, rounds_unit="algorithm", master_seed=9, seed_policy="fixed"),
        metrics=tuple(MetricSpec(name) for name in metrics),
    )


class TestMetricRegistry:
    def test_builtins_are_registered_with_trace_modes(self):
        assert METRICS.min_trace_mode("counters") is TraceMode.COUNTERS
        assert METRICS.min_trace_mode("ack_delay") is TraceMode.EVENTS
        assert METRICS.min_trace_mode("progress") is TraceMode.FULL
        assert METRICS.min_trace_mode("lb_spec") is TraceMode.FULL
        assert METRICS.min_trace_mode("seed_spec") is TraceMode.EVENTS

    def test_duplicate_registration_raises(self):
        registry = MetricRegistry()

        @registry.register("dup", trace_mode=TraceMode.COUNTERS)
        def _one(ctx):
            return {}

        with pytest.raises(ValueError, match="duplicate"):

            @registry.register("dup", trace_mode=TraceMode.COUNTERS)
            def _two(ctx):
                return {}

    def test_unknown_metric_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="ack_delay"):
            METRICS.min_trace_mode("no-such-metric")

    def test_scenario_rejects_duplicate_metric_names(self):
        with pytest.raises(ValueError, match="duplicate metric"):
            lb_spec_with(metrics=("counters", "counters"))


class TestTraceModeSelection:
    def test_required_trace_mode_is_max_over_metrics(self):
        assert required_trace_mode(()) is TraceMode.FULL
        assert required_trace_mode((MetricSpec("counters"),)) is TraceMode.COUNTERS
        assert (
            required_trace_mode((MetricSpec("counters"), MetricSpec("ack_delay")))
            is TraceMode.EVENTS
        )
        assert (
            required_trace_mode((MetricSpec("ack_delay"), MetricSpec("progress")))
            is TraceMode.FULL
        )

    def test_auto_mode_resolves_and_materializes(self):
        spec = lb_spec_with(metrics=("counters",))
        assert resolve_trace_mode(spec) is TraceMode.COUNTERS
        built = materialize(spec)
        assert built.simulator.trace.mode is TraceMode.COUNTERS
        events_spec = lb_spec_with(metrics=("ack_delay",))
        assert resolve_trace_mode(events_spec) is TraceMode.EVENTS
        full_spec = lb_spec_with(metrics=("progress",))
        assert resolve_trace_mode(full_spec) is TraceMode.FULL

    def test_auto_without_metrics_falls_back_to_full(self):
        spec = lb_spec_with(metrics=())
        assert resolve_trace_mode(spec) is TraceMode.FULL

    def test_explicit_mode_poorer_than_metric_raises(self):
        spec = lb_spec_with(metrics=("ack_delay",), trace_mode="counters")
        with pytest.raises(ValueError, match="ack_delay.*counters"):
            run(spec, keep=False)

    def test_trace_mode_enum_rejects_auto(self):
        with pytest.raises(ValueError, match="auto"):
            EngineConfig(trace_mode="auto").trace_mode_enum


class TestReducersAcrossModes:
    """Metric values must agree wherever two trace modes can both run them."""

    def test_counters_metric_identical_in_all_three_modes(self):
        rows = {}
        for mode in ("full", "events", "counters"):
            spec = lb_spec_with(metrics=("counters",), trace_mode=mode)
            rows[mode] = run(spec, keep=False).trials[0].metric_row
        assert rows["full"] == rows["events"] == rows["counters"]
        assert rows["full"]["counters.transmissions"] > 0

    def test_events_metrics_identical_under_full_and_events(self):
        rows = {}
        for mode in ("full", "events"):
            spec = lb_spec_with(
                metrics=("params", "ack_delay", "delivery"), trace_mode=mode
            )
            rows[mode] = run(spec, keep=False).trials[0].metric_row
        assert rows["full"] == rows["events"]
        assert rows["full"]["ack_delay.acked"] == 1
        assert rows["full"]["ack_delay.bound_violations"] == 0

    def test_full_only_metrics_run_under_auto(self):
        spec = lb_spec_with(metrics=("progress", "lb_spec", "mac_guarantees", "receive_rate"))
        row = run(spec, keep=False).trials[0].metric_row
        assert row["progress.window"] > 0
        assert row["progress.total_windows"] >= row["progress.windows"]
        assert row["lb_spec.timely_ack_violations"] == 0
        assert row["lb_spec.validity_violations"] == 0
        assert row["mac_guarantees.ack_ok"] == 1
        assert row["receive_rate.vertices"] == 5

    def test_seed_metrics_on_seed_agreement(self):
        spec = seed_spec_with(metrics=("params", "seed_owners", "seed_spec"))
        assert resolve_trace_mode(spec) is TraceMode.EVENTS
        result = run(spec, keep=False)
        row = result.trials[0].metric_row
        assert row["seed_spec.well_formedness_violations"] == 0
        assert row["seed_spec.consistency_violations"] == 0
        assert row["seed_owners.vertices"] == 5
        assert row["seed_owners.owners_max"] >= 1
        # delta_bound defaulted from the derived SeedParams
        assert row["seed_spec.delta_bound"] == row["params.delta_bound"]


class TestAggregation:
    def test_pooled_ratio_equals_flat_mean(self):
        spec = lb_spec_with(metrics=("ack_delay",), trials=3)
        result = run(spec, keep=False)
        rows = result.metric_rows
        flat_sum = sum(r["ack_delay.delay_sum"] for r in rows)
        flat_count = sum(r["ack_delay.acked"] for r in rows)
        entry = result.metric_summaries["ack_delay.delay_mean"]
        assert entry["value"] == flat_sum / flat_count
        assert entry["numerator"] == flat_sum
        assert entry["denominator"] == flat_count
        # the flat aggregate row carries the pooled value
        assert result.metrics["ack_delay.delay_mean"] == entry["value"]

    def test_rate_columns_carry_wilson_intervals(self):
        spec = lb_spec_with(metrics=("progress",), trials=2)
        result = run(spec, keep=False)
        entry = result.metric_summaries["progress.failure_rate"]
        failures = int(entry["successes"])
        windows = int(entry["trials"])
        low, high = wilson_interval(failures, max(windows, 1))
        assert entry["wilson_low"] == low
        assert entry["wilson_high"] == high
        assert 0.0 <= entry["value"] <= 1.0

    def test_plain_columns_get_summary_statistics(self):
        rows = [{"m.x": 1}, {"m.x": 2}, {"m.x": 3}]
        aggregates = aggregate_metric_rows((MetricSpec("counters"),), rows)
        entry = aggregates["m.x"]
        assert entry["mean"] == 2.0
        assert entry["min"] == 1.0
        assert entry["max"] == 3.0
        assert entry["median"] == 2.0
        assert entry["sum"] == 6.0
        assert entry["count"] == 3.0

    def test_zero_denominator_ratio_and_rate_report_none_not_perfect(self):
        """No observations must not masquerade as a perfect score."""
        rows = [{"progress.failures": 0, "progress.windows": 0}]
        aggregates = aggregate_metric_rows((MetricSpec("progress"),), rows)
        rate = aggregates["progress.failure_rate"]
        assert rate["value"] is None
        assert rate["wilson_low"] is None and rate["wilson_high"] is None
        ack_rows = [{"ack_delay.delay_sum": 0, "ack_delay.acked": 0}]
        ratio = aggregate_metric_rows((MetricSpec("ack_delay"),), ack_rows)
        assert ratio["ack_delay.delay_mean"]["value"] is None

    def test_mac_guarantees_rejects_partial_explicit_promise(self):
        spec = lb_spec_with()
        spec = spec.with_metrics(MetricSpec("mac_guarantees", {"f_ack": 100}))
        with pytest.raises(ValueError, match="all of f_ack"):
            run(spec, keep=False)

    @pytest.mark.parametrize(
        "metric, args, arg",
        [
            ("progress", {}, "window"),
            ("probe_progress", {"vertex": 0}, "window"),
            ("lb_spec", {}, "tack"),
            ("mac_guarantees", {}, "f_ack"),
        ],
    )
    def test_lb_defaults_on_seed_params_raise_a_named_error(self, metric, args, arg):
        # SeedParams carry no t_ack / t_prog: the error names the metric,
        # the missing parameter and the arg to pass instead.
        spec = seed_spec_with().with_metrics(MetricSpec(metric, args))
        with pytest.raises(
            ValueError, match=rf"metric '{metric}' needs {arg}: .*SeedParams.* pass {arg}"
        ):
            run(spec, keep=False)


class TestSharedReductions:
    def test_one_progress_evaluation_per_trial_and_window(self, monkeypatch):
        import repro.core.lb_spec
        import repro.scenarios.metrics
        import repro.simulation.metrics

        calls = []
        original = repro.simulation.metrics.progress_report

        def counting(*args, **kwargs):
            calls.append(kwargs.get("window", args[2] if len(args) > 2 else None))
            return original(*args, **kwargs)

        for module in (repro.simulation.metrics, repro.core.lb_spec, repro.scenarios.metrics):
            monkeypatch.setattr(module, "progress_report", counting)
        spec = lb_spec_with(metrics=("progress", "lb_spec", "mac_guarantees"), trials=2)
        rows = run(spec, keep=False).metric_rows
        window = rows[0]["progress.window"]
        assert calls == [window, window]  # one per trial
        for row in rows:
            assert row["lb_spec.progress_windows"] == row["progress.windows"]
            assert row["mac_guarantees.progress_windows"] == row["progress.windows"]
            assert row["mac_guarantees.progress_failures"] == row["progress.failures"]

    def test_one_owner_count_per_trial(self, monkeypatch):
        import repro.core.seed_spec
        import repro.scenarios.metrics
        import repro.simulation.metrics

        calls = []
        original = repro.simulation.metrics.unique_seed_owner_counts

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (repro.simulation.metrics, repro.core.seed_spec, repro.scenarios.metrics):
            monkeypatch.setattr(module, "unique_seed_owner_counts", counting)
        row = run(seed_spec_with(metrics=("seed_owners", "seed_spec")), keep=False).metric_rows[0]
        assert len(calls) == 1
        assert row["seed_spec.owners_max"] == row["seed_owners.owners_max"]


class TestAckDelayBound:
    """``ack_delay.bound_violations`` is a latency statistic; at its default
    bound (t_ack) it counts what LB 1 calls ``late``."""

    @pytest.mark.parametrize("bound", [None, 2])
    def test_bound_violations_count_late_acks(self, bound):
        from repro.core.lb_spec import _timely_ack_violations

        spec = lb_spec_with(rounds=3).with_overrides(
            {"environment": {"name": "saturating", "args": {"senders": [0, 2, 4]}}}
        )
        metric = MetricSpec("ack_delay", {} if bound is None else {"bound": bound})
        spec = dataclasses.replace(spec, metrics=(metric,))
        trial = run(spec, keep=True).trials[0]
        tack = trial.params.tack_rounds
        late = [
            v
            for v in _timely_ack_violations(trial.trace, tack if bound is None else bound)
            if v.kind == "late"
        ]
        assert trial.metrics["ack_delay.bound"] == (tack if bound is None else bound)
        assert trial.metrics["ack_delay.acked"] > 0
        assert trial.metrics["ack_delay.bound_violations"] == len(late)
        if bound is not None:
            # A bound under the phase structure's ack delay: every ack is late.
            assert len(late) == trial.metrics["ack_delay.acked"]


class TestSerialParallelIdentity:
    def test_metric_rows_identical_serial_vs_trial_pool(self):
        spec = lb_spec_with(metrics=("params", "ack_delay", "delivery"), trials=3)
        serial = run(spec, keep=False)
        parallel = run(spec, keep=False, jobs=2)
        assert serial.metric_rows == parallel.metric_rows
        assert [t.seed for t in serial.trials] == [t.seed for t in parallel.trials]
        assert serial.metric_summaries == parallel.metric_summaries


class TestParamsOnlyResolution:
    def test_support_is_detected_from_signature(self):
        assert ALGORITHMS.accepts("lbalg", "params_only")
        assert ALGORITHMS.accepts("seed_agreement", "params_only")
        assert not ALGORITHMS.accepts("decay", "params_only")

    def test_resolve_params_matches_full_build_without_processes(self):
        spec = lb_spec_with()
        params_build = resolve_params(spec)
        full_build = materialize(spec)
        assert params_build.processes == {}
        assert params_build.params == full_build.params
        assert params_build.phase_length == full_build.algorithm_build.phase_length
        assert params_build.tack_rounds == full_build.algorithm_build.tack_rounds

    def test_seed_agreement_params_only(self):
        spec = seed_spec_with()
        build = resolve_params(spec)
        assert build.processes == {}
        assert build.natural_rounds == build.params.total_rounds

    def test_prebuild_never_builds_processes(self, monkeypatch):
        """The delta-table prebuild resolves derived round budgets without a
        throwaway process population (the ROADMAP params-only open item)."""
        import repro.scenarios.components as components

        def explode(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("prebuild constructed a process population")

        monkeypatch.setattr(components, "make_lb_processes", explode)
        spec = lb_spec_with(rounds_unit="tack").with_overrides(
            {"scheduler.name": "periodic", "scheduler.args": {"stagger": True, "seed": 3}}
        )
        table = prebuild_delta_table(spec)
        assert table  # periodic scheduler is cacheable, so a table must come back


class TestCountersTraceParity:
    """A COUNTERS trace on the kernel lane must feed metric reducers exactly
    the rows the event-materializing reference produces."""

    def test_counters_trace_metric_rows_match_reference(self):
        spec = lb_spec_with(metrics=("counters",), trials=2, rounds=2)
        # A counters-only metric set resolves trace_mode="auto" to COUNTERS.
        assert resolve_trace_mode(spec) is TraceMode.COUNTERS
        assert materialize(spec).simulator.lane == "kernel"

        lane_rows = run(spec, keep=False).metric_rows
        reference_spec = spec.with_overrides({"engine.fast_path": False})
        assert materialize(reference_spec).simulator.lane == "reference"
        reference_rows = run(reference_spec, keep=False).metric_rows
        assert lane_rows == reference_rows

    def test_event_metrics_on_kernel_agree_with_reference(self):
        spec = lb_spec_with(metrics=("counters", "ack_delay"), trials=1, rounds=2)
        assert resolve_trace_mode(spec) is TraceMode.EVENTS
        assert materialize(spec).simulator.lane == "kernel"
        reference = run(spec.with_overrides({"engine.fast_path": False}), keep=False)
        production = run(spec, keep=False)
        assert production.metric_rows == reference.metric_rows
