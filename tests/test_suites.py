"""Tests for scenario suites (repro.scenarios.suite) and the migrated benches.

Covers manifest round-trips and load-time sugar (paths, defaults, suite
metrics), serial-vs-parallel identity of suite execution, group pooling, the
``python -m repro suite`` CLI, and the headline acceptance: the checked-in
``examples/suites/bench_{ack,progress,round_probability,scheduler_models}.json``
manifests reproduce the pre-suite benchmark harnesses' numbers (same seeds;
identical metric values, modulo one-ulp float summation-order differences
noted on the pinned tables).
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from benchmarks.bench_ablation_seed_reuse import SUITE_PATH as SEED_REUSE_SUITE_PATH
from benchmarks.bench_ablation_seed_reuse import (
    build_seed_reuse_suite,
    seed_reuse_rows_from_report,
)
from benchmarks.bench_abstract_mac import SUITE_PATH as ABSTRACT_MAC_SUITE_PATH
from benchmarks.bench_abstract_mac import (
    abstract_mac_rows_from_report,
    build_abstract_mac_suite,
)
from benchmarks.bench_ack import SUITE_PATH as ACK_SUITE_PATH
from benchmarks.bench_ack import ack_rows_from_report, build_ack_suite
from benchmarks.bench_adversary_resilience import SUITE_PATH as ADVERSARY_SUITE_PATH
from benchmarks.bench_adversary_resilience import (
    adversary_rows_from_report,
    build_adversary_suite,
)
from benchmarks.bench_locality import SUITE_PATH as LOCALITY_SUITE_PATH
from benchmarks.bench_locality import build_locality_suite, locality_rows_from_report
from benchmarks.bench_lower_bound_context import (
    SUITE_PATH as LOWER_BOUND_SUITE_PATH,
)
from benchmarks.bench_lower_bound_context import (
    build_lower_bound_suite,
    lower_bound_rows_from_report,
)
from benchmarks.bench_seed_agreement import SUITE_PATH as SEED_AGREEMENT_SUITE_PATH
from benchmarks.bench_seed_agreement import (
    build_seed_agreement_suite,
    seed_agreement_rows_from_report,
)
from benchmarks.bench_progress import SUITE_PATH as PROGRESS_SUITE_PATH
from benchmarks.bench_progress import build_progress_suite, progress_rows_from_report
from benchmarks.bench_round_probability import SUITE_PATH as ROUND_PROBABILITY_SUITE_PATH
from benchmarks.bench_round_probability import (
    build_round_probability_suite,
    round_probability_rows_from_report,
)
from benchmarks.bench_scheduler_models import SUITE_PATH as SCHEDULER_MODELS_SUITE_PATH
from benchmarks.bench_scheduler_models import (
    build_scheduler_models_suite,
    scheduler_models_rows_from_report,
)
from benchmarks.bench_traffic import SUITE_PATH as TRAFFIC_SUITE_PATH
from benchmarks.bench_traffic import build_traffic_suite, traffic_rows_from_report
from repro.scenarios import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    ResultStore,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    SuiteCancelled,
    SuiteEntry,
    SuiteSpec,
    SuiteTaskError,
    TopologySpec,
    deterministic_report_dict,
    run,
    run_suite,
    run_suite_fleet,
)
from repro.dualgraph.adversary import process_delta_cache
from repro.scenarios import runtime as runtime_module
from repro.scenarios import suite as suite_module
from repro.scenarios.cli import main as cli_main
from repro.scenarios.runtime import trial_record

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_scenario(name="small", seed=3, trials=1, metrics=("counters", "ack_delay")):
    return ScenarioSpec(
        name=name,
        topology=TopologySpec("line", {"n": 5}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": seed}),
        environment=EnvironmentSpec("single_shot", {"senders": [0]}),
        engine=EngineConfig(trace_mode="auto"),
        run=RunPolicy(
            rounds=1, rounds_unit="tack", trials=trials, master_seed=seed, seed_policy="fixed"
        ),
        metrics=tuple(MetricSpec(m) for m in metrics),
    )


def small_suite(trials=1):
    return SuiteSpec(
        name="small-suite",
        description="two entries, one group",
        entries=(
            SuiteEntry(id="a", scenario=small_scenario("a", seed=3, trials=trials), group="g"),
            SuiteEntry(id="b", scenario=small_scenario("b", seed=4, trials=trials), group="g"),
        ),
    )


class TestSuiteSpec:
    def test_round_trip_preserves_suite_and_fingerprint(self):
        suite = small_suite()
        restored = SuiteSpec.from_json(suite.to_json())
        assert restored == suite
        assert restored.fingerprint() == suite.fingerprint()

    def test_duplicate_entry_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            SuiteSpec(
                name="dup",
                entries=(
                    SuiteEntry(id="x", scenario=small_scenario("a")),
                    SuiteEntry(id="x", scenario=small_scenario("b")),
                ),
            )

    def test_unknown_manifest_keys_rejected(self):
        data = small_suite().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            SuiteSpec.from_dict(data)

    def test_load_resolves_paths_defaults_and_suite_metrics(self, tmp_path):
        scenario = small_scenario("from-file", metrics=())
        scenario_path = tmp_path / "scenario.json"
        scenario.save(str(scenario_path))
        manifest = {
            "version": 1,
            "name": "sugar",
            "defaults": {"run.rounds": 2},
            "metrics": [{"name": "counters", "args": {}}],
            "entries": [
                {"id": "file-entry", "path": "scenario.json"},
                {
                    "id": "inline-entry",
                    "scenario": small_scenario("inline", seed=5).to_dict(),
                    "overrides": {"run.master_seed": 17},
                },
            ],
        }
        manifest_path = tmp_path / "suite.json"
        manifest_path.write_text(json.dumps(manifest))
        suite = SuiteSpec.load(str(manifest_path))
        by_id = {entry.id: entry for entry in suite.entries}
        # defaults applied everywhere
        assert by_id["file-entry"].scenario.run.rounds == 2
        assert by_id["inline-entry"].scenario.run.rounds == 2
        # per-entry overrides stack on defaults
        assert by_id["inline-entry"].scenario.run.master_seed == 17
        # suite metrics only fill metric-free scenarios
        assert [m.name for m in by_id["file-entry"].scenario.metrics] == ["counters"]
        assert [m.name for m in by_id["inline-entry"].scenario.metrics] == [
            "counters",
            "ack_delay",
        ]
        # the resolved form is fully inline: it round-trips without base_dir
        assert SuiteSpec.from_json(suite.to_json()) == suite

    def test_mixed_metric_groups_rejected(self):
        with pytest.raises(ValueError, match="mixes metric declarations"):
            SuiteSpec(
                name="mixed",
                entries=(
                    SuiteEntry(
                        id="a", scenario=small_scenario("a", metrics=("counters",)), group="g"
                    ),
                    SuiteEntry(
                        id="b", scenario=small_scenario("b", metrics=("ack_delay",)), group="g"
                    ),
                ),
            )
        # distinct groups may declare whatever they like
        SuiteSpec(
            name="ok",
            entries=(
                SuiteEntry(id="a", scenario=small_scenario("a", metrics=("counters",))),
                SuiteEntry(id="b", scenario=small_scenario("b", metrics=("ack_delay",))),
            ),
        )

    def test_path_entries_require_base_dir(self):
        manifest = {"name": "x", "entries": [{"id": "a", "path": "missing.json"}]}
        with pytest.raises(ValueError, match="base directory"):
            SuiteSpec.from_dict(manifest)


def periodic_suite(environments, scheduler_seeds):
    """Entries crossing environments x periodic-scheduler seeds over one topology.

    The staggered periodic scheduler is cacheable and read through its
    deltas (it does not decide edges on demand, unlike IID), so the entries
    sharing a scheduler seed share one prebuilt scheduler-delta table.
    """
    entries = []
    for seed in scheduler_seeds:
        for name, args in environments:
            scenario = small_scenario(f"{name}-{seed}", seed=seed)
            scenario = scenario.with_overrides(
                {
                    "environment.name": name,
                    "environment.args": args,
                    "scheduler.name": "periodic",
                    "scheduler.args": {
                        "on_rounds": 2, "off_rounds": 1, "stagger": True, "seed": seed
                    },
                }
            )
            entries.append(SuiteEntry(id=f"{name}-{seed}", scenario=scenario))
    return SuiteSpec(name="periodic-suite", entries=tuple(entries))


PREBUILD_ENVIRONMENTS = (
    ("saturating", {"senders": [0]}),
    ("bursty", {"senders": [0], "period": 3}),
    ("single_shot", {"senders": [0]}),
)


def _trial_record_without_delta_misses(spec, trial_index):
    """``trial_record`` that fails unless the process delta cache answered
    every scheduler query of the trial from a preloaded table."""
    cache = process_delta_cache()
    hits, misses = cache.hits, cache.misses
    record = trial_record(spec, trial_index)
    assert cache.misses == misses, "the trial recomputed a scheduler delta"
    assert cache.hits > hits, "the trial never consulted the delta cache"
    return record


class TestPrebuildPass:
    @pytest.mark.parametrize("mode", ["serial", "pool", "fleet"])
    def test_one_prebuild_per_distinct_delta_identity(self, mode, tmp_path, monkeypatch):
        calls = []
        prebuild = runtime_module.prebuild_scheduler_deltas

        def counting(scheduler, rounds, **kwargs):
            calls.append(scheduler.delta_cache_key())
            return prebuild(scheduler, rounds, **kwargs)

        monkeypatch.setattr(runtime_module, "prebuild_scheduler_deltas", counting)
        # Three environments x two scheduler seeds: two distinct tables.
        suite = periodic_suite(PREBUILD_ENVIRONMENTS, scheduler_seeds=(21, 22))
        if mode == "fleet":
            report = run_suite_fleet(suite, workers=2, store=str(tmp_path / "store"))
        else:
            report = run_suite(suite, jobs=1 if mode == "serial" else 2)
        assert len(calls) == 2 and len(set(calls)) == 2
        assert len(report.entries) == 6

    def test_multi_trial_entries_do_not_share_a_single_trial_identity(self):
        single = small_scenario("one", seed=5, trials=1)
        several = small_scenario("many", seed=5, trials=3)
        assert runtime_module._delta_identity(single) != runtime_module._delta_identity(
            several
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trials_consume_the_prebuilt_delta_table(self, jobs, monkeypatch):
        # Pool workers get the table through the pool initializer; the serial
        # path preloads this process.  Either way no trial recomputes a delta.
        # Seeds unique to this test keep other tests' cache entries out.
        monkeypatch.setattr(suite_module, "trial_record", _trial_record_without_delta_misses)
        suite = periodic_suite(PREBUILD_ENVIRONMENTS[:1], scheduler_seeds=(40 + jobs, 50 + jobs))
        report = run_suite(suite, jobs=jobs)
        assert [e.result.metrics["trials"] for e in report.entries] == [1, 1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_iid_suite_ships_no_delta_table(self, jobs, monkeypatch):
        # The kernel decides IID edges on demand, so nothing is prebuilt:
        # neither preloaded here nor installed as a pool initializer.
        suite = small_suite()
        assert all(
            runtime_module.prebuild_delta_table(entry.scenario) is None
            for entry in suite.entries
        )

        def no_preload(table):
            raise AssertionError(f"a delta table of {len(table)} entries was shipped")

        monkeypatch.setattr(suite_module, "preload_process_delta_cache", no_preload)
        report = run_suite(suite, jobs=jobs, prebuild=True)
        assert [e.result.metrics["trials"] for e in report.entries] == [1, 1]


class TestRunSuite:
    def test_serial_and_parallel_rows_identical(self):
        suite = small_suite(trials=2)
        serial = run_suite(suite, jobs=1)
        parallel = run_suite(suite, jobs=2)
        rows_serial = [t.metric_row for e in serial.entries for t in e.result.trials]
        rows_parallel = [t.metric_row for e in parallel.entries for t in e.result.trials]
        assert rows_serial == rows_parallel
        assert serial.group_summaries == parallel.group_summaries

    def test_suite_rows_match_serial_run(self):
        """A suite trial's metric row is byte-identical to run()'s."""
        suite = small_suite(trials=2)
        report = run_suite(suite, jobs=1)
        for entry_result in report.entries:
            direct = run(entry_result.entry.scenario, keep=False)
            assert direct.metric_rows == entry_result.result.metric_rows

    def test_group_pooling_is_pooled_not_mean_of_means(self):
        suite = small_suite(trials=2)
        report = run_suite(suite, jobs=1)
        rows = [
            t.metric_row
            for e in report.entries
            for t in e.result.trials
        ]
        pooled_sum = sum(r["ack_delay.delay_sum"] for r in rows)
        pooled_count = sum(r["ack_delay.acked"] for r in rows)
        entry = report.group_summaries["g"]["ack_delay.delay_mean"]
        assert entry["value"] == pooled_sum / pooled_count
        flat = report.group_rows()[0]
        assert flat["group"] == "g"
        assert flat["trials"] == 4
        assert flat["ack_delay.delay_mean"] == entry["value"]

    def test_default_run_of_single_shot_iid_suite_is_silent(self):
        """A default run_suite on single-shot IID entries warns about nothing
        and matches prebuild=False row for row."""
        suite = small_suite(trials=1)  # single_shot environment throughout
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default = run_suite(suite, jobs=1)
            without = run_suite(suite, jobs=1, prebuild=False)
        rows_default = [t.metric_row for e in default.entries for t in e.result.trials]
        rows_without = [t.metric_row for e in without.entries for t in e.result.trials]
        assert rows_default == rows_without
        assert default.group_summaries == without.group_summaries

    def test_profile_perf_stats_survive_suite_workers(self):
        entry = SuiteEntry(id="p", scenario=small_scenario("p"))
        suite = SuiteSpec(name="profiled", entries=(entry,))
        perf_stats = run_suite(suite, jobs=1).entries[0].result.perf_stats
        assert perf_stats["lane"] == "kernel" and perf_stats["resolve"] > 0

    def test_report_renders_table_markdown_and_json(self):
        report = run_suite(small_suite(), jobs=1)
        table = report.format_table(columns=["group", "trials", "ack_delay.delay_mean"])
        assert "ack_delay.delay_mean" in table
        markdown = report.to_markdown()
        assert markdown.startswith("## Suite `small-suite`")
        assert "| group |" in markdown
        payload = json.dumps(report.to_dict(), sort_keys=True, default=str)
        assert "group_summaries" not in payload  # serialized under "groups"
        assert json.loads(payload)["groups"]["g"]


def det(report) -> dict:
    return deterministic_report_dict(report.to_dict())


class TestSuiteStore:
    def test_warm_rerun_serves_every_task_from_the_store(self, tmp_path):
        suite = small_suite(trials=2)
        root = str(tmp_path / "store")
        cold = run_suite(suite, jobs=1, store=root)
        assert cold.store_stats == {"tasks": 4, "hits": 0, "misses": 4}
        warm = run_suite(suite, jobs=1, store=root)
        assert warm.store_stats == {"tasks": 4, "hits": 4, "misses": 0}
        assert det(warm) == det(cold)

    def test_store_path_and_instance_are_equivalent(self, tmp_path):
        suite = small_suite()
        root = str(tmp_path / "store")
        run_suite(suite, jobs=1, store=root)
        store = ResultStore(root)
        warm = run_suite(suite, jobs=1, store=store)
        assert warm.store_stats["misses"] == 0


def derived_suite(trials=2):
    """``small_suite`` with per-trial seeds, so every task has its own store key
    (under ``fixed`` seeds an entry's trials share one record)."""
    return SuiteSpec(
        name="derived-suite",
        entries=tuple(
            SuiteEntry(
                id=entry.id,
                scenario=entry.scenario.with_overrides({"run.seed_policy": "derived"}),
                group=entry.group,
            )
            for entry in small_suite(trials=trials).entries
        ),
    )


class TestStoreResume:
    """The result store is the only checkpoint: a rerun against it resumes."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partially_filled_store_resumes(self, tmp_path, jobs):
        suite = derived_suite(trials=2)  # 4 tasks
        clean = det(run_suite(suite, jobs=1, prebuild=False))
        store = ResultStore(str(tmp_path / "store"))
        # As if a killed run had finished entry a and the first trial of b.
        for entry_index, trial_index in [(0, 0), (0, 1), (1, 0)]:
            spec = suite.entries[entry_index].scenario
            store.put(spec, trial_index, trial_record(spec, trial_index))
        resumed = run_suite(suite, jobs=jobs, prebuild=False, store=store.root)
        assert resumed.store_stats == {"tasks": 4, "hits": 3, "misses": 1}
        assert det(resumed) == clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cancelled_run_resumes_from_the_store(self, tmp_path, jobs):
        suite = derived_suite(trials=2)
        root = str(tmp_path / "store")
        completed = []

        with pytest.raises(SuiteCancelled, match="in the result store"):
            run_suite(
                suite,
                jobs=jobs,
                prebuild=False,
                store=root,
                on_progress=lambda e: completed.append(e) if e["event"] == "task" else None,
                should_stop=lambda: len(completed) >= 1,
            )
        assert len(completed) == 1

        # The rerun serves the finished prefix and matches a clean run.
        resumed = run_suite(suite, prebuild=False, store=root)
        assert resumed.store_stats == {"tasks": 4, "hits": 1, "misses": 3}
        assert det(resumed) == det(run_suite(suite, prebuild=False))


def weighted_suite():
    """Entries of unequal declared work (round budget x vertex count), with
    ties: a (2 trials) and d weigh the least, b triples the budget, c
    doubles the vertices."""
    def entry(entry_id, seed, **overrides):
        scenario = small_scenario(entry_id, seed=seed).with_overrides(overrides)
        return SuiteEntry(id=entry_id, scenario=scenario, group="g")

    return SuiteSpec(
        name="weighted-suite",
        entries=(
            entry("a", 3, **{"run.trials": 2, "run.seed_policy": "derived"}),
            entry("b", 4, **{"run.rounds": 3}),
            entry("c", 5, **{"topology.args.n": 10}),
            entry("d", 6),
        ),
    )


class TestPoolDispatchOrder:
    def test_heaviest_first_submission_lands_records_as_they_complete(
        self, tmp_path, monkeypatch
    ):
        from concurrent.futures import ProcessPoolExecutor

        from repro.scenarios import materialize

        suite = weighted_suite()
        submitted, stored, events = [], [], []
        submit = ProcessPoolExecutor.submit
        put = ResultStore.put
        # The heaviest task (b) finishes only once the canonically last,
        # light task (d) is in the store: a run that landed records in
        # canonical order would hold d back until b finished.
        light_stored = tmp_path / "light-stored"

        def spy_submit(pool, fn, *args, **kwargs):
            submitted.append(args[0])
            return submit(pool, fn, *args, **kwargs)

        def spy_put(store, spec, trial_index, record):
            stored.append((spec.name, trial_index))
            result = put(store, spec, trial_index, record)
            if spec.name == "d":
                light_stored.touch()
            return result

        def gated_trial_record(spec, trial_index):
            if spec.name == "b":
                deadline = time.monotonic() + 60
                while not light_stored.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return trial_record(spec, trial_index)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy_submit)
        monkeypatch.setattr(ResultStore, "put", spy_put)
        # Pool workers fork from this process, so they run the gated copy.
        monkeypatch.setattr(suite_module, "trial_record", gated_trial_record)
        report = run_suite(
            suite,
            jobs=2,
            store=str(tmp_path / "store"),
            on_progress=lambda e: events.append(e) if e["event"] == "task" else None,
        )

        # Declared work, derived independently of the dispatcher: the
        # materialized trial's round budget times its vertex count.
        work = []
        for entry in suite.entries:
            built = materialize(entry.scenario)
            work += [built.total_rounds * len(built.graph.vertices)] * entry.scenario.run.trials
        assert len(set(work)) == 3
        canonical = list(range(len(work)))
        assert submitted == sorted(canonical, key=lambda index: (-work[index], index))
        assert submitted[:2] == [2, 3] and submitted != canonical
        assert stored.index(("d", 0)) < stored.index(("b", 0))
        assert sorted(stored) == [("a", 0), ("a", 1), ("b", 0), ("c", 0), ("d", 0)]
        # One task event per landed record, in landing order.
        assert [(suite.entries[e["entry"]].id, e["trial"]) for e in events] == stored
        assert [e["done"] for e in events] == [1, 2, 3, 4, 5]
        assert det(report) == det(run_suite(suite, jobs=1))

    def test_serial_runs_sample_no_weights(self, monkeypatch):
        def no_weights(*args):
            raise AssertionError("a serial run computed dispatch weights")

        monkeypatch.setattr(suite_module, "_heaviest_first", no_weights)
        report = run_suite(weighted_suite(), jobs=1)
        assert len(report.entries) == 4


class TestProgressAndCancellation:
    """The PR-8 service hooks: ``on_progress`` events and ``should_stop``."""

    def test_on_progress_event_sequence(self):
        suite = small_suite(trials=2)  # 4 tasks
        events = []
        run_suite(suite, on_progress=events.append)
        assert events[0] == {"event": "plan", "tasks": 4, "hits": 0, "misses": 4}
        task_events = events[1:]
        assert [e["event"] for e in task_events] == ["task"] * 4
        assert [e["done"] for e in task_events] == [1, 2, 3, 4]
        assert all(e["total"] == 4 for e in task_events)
        # One event per task; a pooled run (jobs=None on a multi-core host)
        # reports them as they complete, a serial one in canonical order.
        assert sorted((e["entry"], e["trial"]) for e in task_events) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        assert sorted(e["task"] for e in task_events) == [0, 1, 2, 3]

    def test_on_progress_counts_store_hits_in_the_plan(self, tmp_path):
        suite = small_suite(trials=1)
        store = str(tmp_path / "store")
        run_suite(suite, store=store)
        events = []
        run_suite(suite, store=store, on_progress=events.append)
        assert events == [
            {"event": "plan", "tasks": 2, "hits": 2, "misses": 0}
        ]

    def test_store_less_cancel_promises_nothing_durable(self):
        completed = []
        with pytest.raises(SuiteCancelled) as excinfo:
            run_suite(
                small_suite(trials=2),
                on_progress=lambda e: completed.append(e) if e["event"] == "task" else None,
                should_stop=lambda: bool(completed),
            )
        assert str(excinfo.value) == "cancelled after 1/4 tasks"
        assert run_suite(small_suite(), prebuild=False).store_stats is None

    def test_should_stop_before_any_task(self):
        with pytest.raises(SuiteCancelled, match="cancelled before execution"):
            run_suite(small_suite(), should_stop=lambda: True)


def _poisoned_trial_record(spec, trial_index):
    """``trial_record`` that fails entry b's second trial (the last task)."""
    if spec.name == "b" and trial_index == 1:
        raise ValueError("deliberately poisoned trial")
    return trial_record(spec, trial_index)


_RUN_SUITE_TASK = suite_module.run_suite_task
KILLED_TASK = 4


def _killing_run_suite_task(task, suite_specs, suite_tasks):
    """``run_suite_task`` whose pool worker SIGKILLs itself on ``KILLED_TASK``."""
    if task == KILLED_TASK:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_SUITE_TASK(task, suite_specs, suite_tasks)


class HookFault(Exception):
    """Stands in for the service's injected ``crash`` fault (raised from a hook)."""


class TestTaskFailure:
    """A raising trial stops the run with a :class:`SuiteTaskError` naming it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_trial_names_its_task(self, tmp_path, jobs, monkeypatch):
        monkeypatch.setattr(suite_module, "trial_record", _poisoned_trial_record)
        suite = derived_suite(trials=2)  # 4 tasks, the poisoned one last
        root = str(tmp_path / "store")
        with pytest.raises(SuiteTaskError) as excinfo:
            run_suite(suite, jobs=jobs, prebuild=False, store=root)
        error = excinfo.value
        assert error.failure == {
            "task": 3,
            "entry": "b",
            "trial": 1,
            "type": "ValueError",
            "message": "deliberately poisoned trial",
        }
        assert str(error) == (
            "suite task 3 (entry 'b', trial 1) raised ValueError: "
            "deliberately poisoned trial"
        )
        assert isinstance(error.__cause__, ValueError)

        # The tasks before it landed in the store; a healthy rerun resumes.
        monkeypatch.undo()
        resumed = run_suite(suite, prebuild=False, store=root)
        assert resumed.store_stats == {"tasks": 4, "hits": 3, "misses": 1}

    @pytest.mark.fault_injection
    def test_dead_pool_worker_blames_no_task_and_resumes(self, tmp_path, monkeypatch):
        """A SIGKILLed pool worker is reported as such, not pinned on whichever
        task was awaited first; a rerun executes exactly the unfinished tasks."""
        # Forked pool workers inherit the patched module global.
        monkeypatch.setattr(suite_module, "run_suite_task", _killing_run_suite_task)
        suite = derived_suite(trials=3)  # 6 tasks
        root = str(tmp_path / "store")
        with pytest.raises(SuiteTaskError) as excinfo:
            run_suite(suite, jobs=2, prebuild=False, store=root)
        error = excinfo.value
        message = str(error)
        assert error.failure["task"] is None
        assert isinstance(error.__cause__, BrokenProcessPool)
        assert "pool worker died" in message
        assert "completed records are in the result store" in message
        assert "raised" not in message and not re.search(r"task \d", message)
        unfinished = int(re.search(r"(\d+)/6 tasks unfinished", message).group(1))
        assert 1 <= unfinished <= 6

        monkeypatch.undo()
        executed = []
        resumed = run_suite(
            suite,
            jobs=2,
            prebuild=False,
            store=root,
            on_progress=lambda e: executed.append(e) if e["event"] == "task" else None,
        )
        assert resumed.store_stats == {"tasks": 6, "hits": 6 - unfinished, "misses": unfinished}
        assert len(executed) == unfinished
        assert det(resumed) == det(run_suite(suite, jobs=1, prebuild=False))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hook_exceptions_keep_their_type(self, jobs):
        def on_progress(event):
            if event["event"] == "task":
                raise HookFault("raised from on_progress")

        with pytest.raises(HookFault):
            run_suite(
                small_suite(trials=2), jobs=jobs, prebuild=False, on_progress=on_progress
            )


class TestSuiteCLI:
    def test_suite_subcommand_runs_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "suite.json"
        small_suite().save(str(manifest_path))
        json_path = tmp_path / "report.json"
        markdown_path = tmp_path / "report.md"
        code = cli_main(
            [
                "suite",
                str(manifest_path),
                "--json",
                str(json_path),
                "--markdown",
                str(markdown_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "suite      : small-suite" in out
        report = json.loads(json_path.read_text())
        assert report["suite"]["name"] == "small-suite"
        assert report["groups"]["g"]
        assert markdown_path.read_text().startswith("## Suite")

    def test_list_includes_metric_registry(self, capsys):
        assert cli_main(["list", "--kind", "metric"]) == 0
        out = capsys.readouterr().out
        assert "ack_delay" in out and "lb_spec" in out

    def test_suite_cli_has_no_shard_or_resume_flags(self, capsys):
        """The store is the only resume mechanism: rerun the same command."""
        with pytest.raises(SystemExit):
            cli_main(["suite", "--help"])
        help_text = capsys.readouterr().out
        assert "--store" in help_text
        for flag in ("--shard", "--merge", "--resume"):
            assert flag not in help_text

    def test_cli_rerun_resumes_from_a_partial_store(self, tmp_path, capsys):
        suite = derived_suite(trials=2)
        manifest_path = str(tmp_path / "suite.json")
        suite.save(manifest_path)
        store = ResultStore(str(tmp_path / "store"))
        spec = suite.entries[1].scenario
        store.put(spec, 1, trial_record(spec, 1))
        json_path = str(tmp_path / "report.json")
        assert cli_main(
            ["suite", manifest_path, "--store", store.root, "--no-prebuild",
             "--json", json_path]
        ) == 0
        assert "1 of 4 task(s) from the store, 3 executed" in capsys.readouterr().out
        report = json.loads(open(json_path).read())
        assert report["store"] == {"tasks": 4, "hits": 1, "misses": 3}
        expected = run_suite(suite, jobs=1, prebuild=False)
        assert deterministic_report_dict(report) == det(expected)

    def test_cli_warm_rerun_reports_store_hits(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "suite.json")
        small_suite().save(manifest_path)
        store_dir = str(tmp_path / "store")
        assert cli_main(["suite", manifest_path, "--store", store_dir, "-q"]) == 0
        json_path = str(tmp_path / "warm.json")
        assert cli_main(
            ["suite", manifest_path, "--store", store_dir, "--json", json_path]
        ) == 0
        out = capsys.readouterr().out
        assert "2 of 2 task(s) from the store" in out
        assert json.loads(open(json_path).read())["store"]["misses"] == 0

    def test_cli_store_stats_and_gc(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "suite.json")
        small_suite().save(manifest_path)
        store_dir = str(tmp_path / "store")
        assert cli_main(["suite", manifest_path, "--store", store_dir, "-q"]) == 0
        assert cli_main(["store", "stats", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert cli_main(["store", "gc", store_dir]) == 0
        assert "kept 2" in capsys.readouterr().out


def slow_cli_suite(trials=16):
    """~50ms per task: long enough to SIGKILL a serial CLI run mid-suite."""
    return SuiteSpec.from_dict(
        {
            "name": "cli-kill",
            "entries": [
                {
                    "id": "cli-kill-e0",
                    "scenario": {
                        "name": "cli-kill-e0",
                        "topology": {"name": "clique", "args": {"n": 10}},
                        "algorithm": {"name": "uniform"},
                        "environment": {
                            "name": "saturating",
                            "args": {"senders": {"count": 2, "select": "first"}},
                        },
                        "run": {
                            "rounds": 3000,
                            "rounds_unit": "rounds",
                            "trials": trials,
                            "master_seed": 99,
                        },
                        "metrics": [{"name": "counters"}],
                    },
                }
            ],
        }
    )


@pytest.mark.fault_injection
def test_serial_cli_sigkill_resumes_from_the_store(tmp_path):
    """SIGKILL a serial ``python -m repro suite --store`` after its first store
    append; rerunning the same command serves that prefix and finishes with
    the uninterrupted run's report."""
    suite = slow_cli_suite()
    manifest_path = str(tmp_path / "suite.json")
    suite.save(manifest_path)
    store_dir = str(tmp_path / "store")
    json_path = str(tmp_path / "report.json")
    command = [
        sys.executable, "-m", "repro", "suite", manifest_path,
        "--store", store_dir, "--no-prebuild", "--json", json_path, "-q",
    ]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    buckets = os.path.join(store_dir, "objects", "*.jsonl")

    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any(os.path.getsize(path) for path in glob.glob(buckets)):
            assert child.poll() is None, "the run finished before any store append"
            assert time.monotonic() < deadline, "no store append within 60s"
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    assert not os.path.exists(json_path)

    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    report = json.loads(open(json_path).read())
    assert report["store"]["hits"] >= 1
    assert report["store"]["hits"] + report["store"]["misses"] == 16
    expected = run_suite(suite, jobs=1, prebuild=False)
    assert deterministic_report_dict(report) == det(expected)


class TestBenchmarkReproduction:
    """The acceptance pin: checked-in manifests reproduce the pre-suite
    benchmark numbers (same seeds -> identical metric values)."""

    #: The E4 table as produced by the pre-metrics-pipeline bench_ack.py
    #: (hand-wired ack_delays/delivery_report plumbing), pinned verbatim.
    ACK_ROWS = [
        {
            "target_delta": 8,
            "measured_delta": 7,
            "tack_rounds_bound": 7752,
            "mean_ack_delay": 6763.0,
            "max_ack_delay": 7523,
            "broadcasts": 9,
            "reliability_success_rate": 1.0,
            "mean_delivery_fraction": 1.0,
            "target_epsilon": 0.2,
        },
        {
            "target_delta": 16,
            "measured_delta": 14,
            "tack_rounds_bound": 29562,
            "mean_ack_delay": 23866.666666666668,
            "max_ack_delay": 29182,
            "broadcasts": 9,
            "reliability_success_rate": 1.0,
            "mean_delivery_fraction": 1.0,
            "target_epsilon": 0.2,
        },
    ]

    #: The E3 table from the pre-metrics-pipeline bench_progress.py.
    PROGRESS_ROWS = [
        {"target_delta": 8, "epsilon": 0.2, "measured_delta": 7, "tprog_rounds": 228,
         "windows": 60, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.06017393047793289},
        {"target_delta": 8, "epsilon": 0.1, "measured_delta": 7, "tprog_rounds": 467,
         "windows": 60, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.06017393047793289},
        {"target_delta": 16, "epsilon": 0.2, "measured_delta": 14, "tprog_rounds": 303,
         "windows": 276, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.013727765993333372},
        {"target_delta": 16, "epsilon": 0.1, "measured_delta": 14, "tprog_rounds": 622,
         "windows": 276, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.013727765993333372},
        {"target_delta": 24, "epsilon": 0.2, "measured_delta": 21, "tprog_rounds": 379,
         "windows": 452, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.008427488847002994},
        {"target_delta": 24, "epsilon": 0.1, "measured_delta": 21, "tprog_rounds": 778,
         "windows": 452, "failures": 0, "failure_rate": 0.0,
         "failure_rate_ci95_high": 0.008427488847002994},
    ]

    #: The E5 table from the pre-suite bench_round_probability.py.  The float
    #: columns are pinned to the suite pipeline's values, which agree with the
    #: historical hand-wired harness to within one ulp (the pooled rate_mean
    #: sums per-receiver rates per trial before pooling, so the float
    #: summation order differs; every integer column is exact).
    ROUND_PROBABILITY_ROWS = [
        {
            "target_delta": 8,
            "measured_delta": 5,
            "measured_delta_prime": 9,
            "receivers_sampled": 19,
            "measured_pu": 0.02869995501574449,
            "theory_pu_bound": 0.04637057441848618,
            "measured_over_theory": 0.6189260188310911,
            "theory_puv_bound": 0.005152286046498465,
        },
        {
            "target_delta": 16,
            "measured_delta": 15,
            "measured_delta_prime": 30,
            "receivers_sampled": 68,
            "measured_pu": 0.02864459931453395,
            "theory_pu_bound": 0.027558780284088872,
            "measured_over_theory": 1.0394001120242604,
            "theory_puv_bound": 0.000918626009469629,
        },
    ]

    #: The E12 table as produced by the pre-suite bench_scheduler_models.py,
    #: pinned verbatim (totals over totals -- exact under pooling).
    SCHEDULER_MODELS_ROWS = [
        {"scheduler": "none", "data_receptions": 1594,
         "receptions_per_round": 0.4383938393839384,
         "unreliable_edge_receptions": 0, "unreliable_fraction": 0.0},
        {"scheduler": "iid", "data_receptions": 2428,
         "receptions_per_round": 0.6677667766776678,
         "unreliable_edge_receptions": 1058,
         "unreliable_fraction": 0.4357495881383855},
        {"scheduler": "full", "data_receptions": 2318,
         "receptions_per_round": 0.6375137513751375,
         "unreliable_edge_receptions": 1458,
         "unreliable_fraction": 0.6289905090595341},
        {"scheduler": "adaptive", "data_receptions": 1484,
         "receptions_per_round": 0.4081408140814081,
         "unreliable_edge_receptions": 0, "unreliable_fraction": 0.0},
    ]

    #: The E9 table as produced by the pre-suite bench_locality.py
    #: (hand-wired probe plumbing), pinned verbatim.
    LOCALITY_ROWS = [
        {"size_index": 0, "n": 18, "side": 3.0, "mean_measured_delta": 8.5,
         "tprog_rounds": 303, "tack_rounds": 29997,
         "probe_progress_failure_rate": 0.0,
         "probe_reception_rate": 0.0176017601760176},
        {"size_index": 1, "n": 32, "side": 4.0, "mean_measured_delta": 8.5,
         "tprog_rounds": 303, "tack_rounds": 29997,
         "probe_progress_failure_rate": 0.0,
         "probe_reception_rate": 0.0242024202420242},
        {"size_index": 2, "n": 50, "side": 5.0, "mean_measured_delta": 10.0,
         "tprog_rounds": 303, "tack_rounds": 29997,
         "probe_progress_failure_rate": 0.0,
         "probe_reception_rate": 0.02035203520352035},
        {"size_index": 3, "n": 72, "side": 6.0, "mean_measured_delta": 11.5,
         "tprog_rounds": 303, "tack_rounds": 29997,
         "probe_progress_failure_rate": 0.0,
         "probe_reception_rate": 0.01595159515951595},
    ]

    #: The E1/E2 table as produced by the pre-suite bench_seed_agreement.py
    #: (per-trial loop with inline spec assertions), pinned verbatim.
    SEED_AGREEMENT_ROWS = [
        {"target_delta": 8, "epsilon": 0.2, "measured_delta": 10, "delta_bound": 38,
         "max_owners": 7, "mean_owners": 3.1015625, "violation_rate": 0.0,
         "rounds_used": 44, "theory_rounds_shape": 17.909677292907524,
         "theory_delta_shape": 9.287712379549449, "mean_commit_round": 6.15625},
        {"target_delta": 8, "epsilon": 0.1, "measured_delta": 10, "delta_bound": 54,
         "max_owners": 7, "mean_owners": 3.171875, "violation_rate": 0.0,
         "rounds_used": 92, "theory_rounds_shape": 36.65816173322413,
         "theory_delta_shape": 13.287712379549449, "mean_commit_round": 11.484375},
        {"target_delta": 16, "epsilon": 0.2, "measured_delta": 15, "delta_bound": 38,
         "max_owners": 10, "mean_owners": 3.6625000000000005, "violation_rate": 0.0,
         "rounds_used": 44, "theory_rounds_shape": 21.06341491669656,
         "theory_delta_shape": 9.287712379549449,
         "mean_commit_round": 6.441666666666666},
        {"target_delta": 16, "epsilon": 0.1, "measured_delta": 15, "delta_bound": 54,
         "max_owners": 8, "mean_owners": 3.2916666666666665, "violation_rate": 0.0,
         "rounds_used": 92, "theory_rounds_shape": 43.113343587494356,
         "theory_delta_shape": 13.287712379549449,
         "mean_commit_round": 9.970833333333333},
        {"target_delta": 32, "epsilon": 0.2, "measured_delta": 34, "delta_bound": 38,
         "max_owners": 7, "mean_owners": 3.642857142857143, "violation_rate": 0.0,
         "rounds_used": 66, "theory_rounds_shape": 27.42829318511828,
         "theory_delta_shape": 9.287712379549449,
         "mean_commit_round": 9.127232142857142},
        {"target_delta": 32, "epsilon": 0.1, "measured_delta": 34, "delta_bound": 54,
         "max_owners": 6, "mean_owners": 3.263392857142857, "violation_rate": 0.0,
         "rounds_used": 138, "theory_rounds_shape": 56.14120183195792,
         "theory_delta_shape": 13.287712379549449,
         "mean_commit_round": 14.444196428571429},
    ]

    #: The E6 table as produced by the pre-suite bench_adversary_resilience.py
    #: (hand-wired two-cluster trap loop), pinned verbatim.
    ADVERSARY_ROWS = [
        {"algorithm": "decay", "scheduler": "iid", "rounds_per_trial": 1000,
         "mean_reception_rate": 0.3398, "min_reception_rate": 0.316},
        {"algorithm": "decay", "scheduler": "anti_decay", "rounds_per_trial": 1000,
         "mean_reception_rate": 0.2142, "min_reception_rate": 0.189},
        {"algorithm": "uniform", "scheduler": "iid", "rounds_per_trial": 1000,
         "mean_reception_rate": 0.37220000000000003, "min_reception_rate": 0.335},
        {"algorithm": "uniform", "scheduler": "anti_decay", "rounds_per_trial": 1000,
         "mean_reception_rate": 0.3358, "min_reception_rate": 0.321},
        {"algorithm": "lbalg", "scheduler": "iid", "rounds_per_trial": 1140,
         "mean_reception_rate": 0.02526315789473684,
         "min_reception_rate": 0.018421052631578946},
        {"algorithm": "lbalg", "scheduler": "anti_decay", "rounds_per_trial": 1140,
         "mean_reception_rate": 0.02, "min_reception_rate": 0.016666666666666666},
    ]

    #: The E11 table as produced by the pre-suite bench_ablation_seed_reuse.py
    #: (inline Simulator loop), pinned verbatim.
    SEED_REUSE_ROWS = [
        {"seed_reuse_phases": 1, "ts": 55, "phase_length": 379,
         "preamble_airtime_fraction": 0.14511873350923482,
         "progress_windows": 438, "progress_failures": 0,
         "progress_failure_rate": 0.0, "target_epsilon": 0.2},
        {"seed_reuse_phases": 2, "ts": 55, "phase_length": 379,
         "preamble_airtime_fraction": 0.07255936675461741,
         "progress_windows": 438, "progress_failures": 6,
         "progress_failure_rate": 0.0136986301369863, "target_epsilon": 0.2},
        {"seed_reuse_phases": 4, "ts": 55, "phase_length": 379,
         "preamble_airtime_fraction": 0.048372911169744945,
         "progress_windows": 438, "progress_failures": 2,
         "progress_failure_rate": 0.0045662100456621, "target_epsilon": 0.2},
    ]

    #: The E13 table (queue-backed traffic under rising load) pinned at its
    #: introduction -- including the acceptance comparison: TASA beats i.i.d.
    #: on pooled delivery latency at the high-load grid point (rate 0.05).
    TRAFFIC_ROWS = [
        {"rate": 0.005, "scheduler": "iid", "delivered": 54,
         "delivery_latency": 140.77777777777777,
         "delivery_rate": 0.2583732057416268, "backlog_p90": 7.8,
         "throughput": 0.04895833333333333},
        {"rate": 0.005, "scheduler": "tasa", "delivered": 74,
         "delivery_latency": 131.54054054054055,
         "delivery_rate": 0.35406698564593303, "backlog_p90": 7.8,
         "throughput": 0.04895833333333333},
        {"rate": 0.005, "scheduler": "longest_queue", "delivered": 88,
         "delivery_latency": 138.27272727272728,
         "delivery_rate": 0.42105263157894735, "backlog_p90": 7.8,
         "throughput": 0.04895833333333333},
        {"rate": 0.02, "scheduler": "iid", "delivered": 63,
         "delivery_latency": 238.15873015873015,
         "delivery_rate": 0.07142857142857142, "backlog_p90": 102.0,
         "throughput": 0.08125},
        {"rate": 0.02, "scheduler": "tasa", "delivered": 96,
         "delivery_latency": 224.80208333333334,
         "delivery_rate": 0.10884353741496598, "backlog_p90": 102.0,
         "throughput": 0.08125},
        {"rate": 0.02, "scheduler": "longest_queue", "delivered": 108,
         "delivery_latency": 232.33333333333334,
         "delivery_rate": 0.12244897959183673, "backlog_p90": 102.0,
         "throughput": 0.08125},
        {"rate": 0.05, "scheduler": "iid", "delivered": 77,
         "delivery_latency": 276.68831168831167,
         "delivery_rate": 0.0337275514673675, "backlog_p90": 349.5,
         "throughput": 0.08472222222222223},
        {"rate": 0.05, "scheduler": "tasa", "delivered": 102,
         "delivery_latency": 270.77450980392155,
         "delivery_rate": 0.04467805519053877, "backlog_p90": 349.5,
         "throughput": 0.08472222222222223},
        {"rate": 0.05, "scheduler": "longest_queue", "delivered": 89,
         "delivery_latency": 251.13483146067415,
         "delivery_rate": 0.03898379325448971, "backlog_p90": 349.5,
         "throughput": 0.08472222222222223},
    ]

    #: The E8 table as produced by the pre-suite bench_abstract_mac.py
    #: (hand-wired FloodClient/adapter loop), pinned verbatim.
    ABSTRACT_MAC_ROWS = [
        {"line_length": 3, "diameter": 2, "phase_length": 152, "tack_rounds": 608,
         "mean_completion_round": 43.5, "mean_coverage": 1.0,
         "completion_over_diameter_tack": 0.03577302631578947},
        {"line_length": 5, "diameter": 4, "phase_length": 152, "tack_rounds": 912,
         "mean_completion_round": 190.0, "mean_coverage": 1.0,
         "completion_over_diameter_tack": 0.052083333333333336},
        {"line_length": 7, "diameter": 6, "phase_length": 152, "tack_rounds": 912,
         "mean_completion_round": 383.5, "mean_coverage": 1.0,
         "completion_over_diameter_tack": 0.07008406432748537},
    ]

    #: The E7 table as produced by the pre-suite bench_lower_bound_context.py
    #: (hand-wired saturating-star loop), pinned verbatim.
    LOWER_BOUND_ROWS = [
        {"leaves": 4, "algorithm": "lbalg", "delta": 5,
         "first_reception_round": 80.33333333333333,
         "progress_lower_bound": 2.321928094887362,
         "all_senders_heard_round": 236.0, "ack_lower_bound": 4.0,
         "incomplete_trials": 0},
        {"leaves": 4, "algorithm": "decay", "delta": 5,
         "first_reception_round": 1.3333333333333333,
         "progress_lower_bound": 2.321928094887362,
         "all_senders_heard_round": 27.333333333333332, "ack_lower_bound": 4.0,
         "incomplete_trials": 0},
        {"leaves": 8, "algorithm": "lbalg", "delta": 9,
         "first_reception_round": 73.0,
         "progress_lower_bound": 3.169925001442312,
         "all_senders_heard_round": 560.6666666666666, "ack_lower_bound": 8.0,
         "incomplete_trials": 0},
        {"leaves": 8, "algorithm": "decay", "delta": 9,
         "first_reception_round": 3.6666666666666665,
         "progress_lower_bound": 3.169925001442312,
         "all_senders_heard_round": 63.333333333333336, "ack_lower_bound": 8.0,
         "incomplete_trials": 0},
        {"leaves": 16, "algorithm": "lbalg", "delta": 17,
         "first_reception_round": 57.333333333333336,
         "progress_lower_bound": 4.087462841250339,
         "all_senders_heard_round": 829.6666666666666, "ack_lower_bound": 16.0,
         "incomplete_trials": 0},
        {"leaves": 16, "algorithm": "decay", "delta": 17,
         "first_reception_round": 7.0,
         "progress_lower_bound": 4.087462841250339,
         "all_senders_heard_round": 273.6666666666667, "ack_lower_bound": 16.0,
         "incomplete_trials": 0},
    ]

    def test_checked_in_manifests_match_programmatic_suites(self):
        for path, build in (
            (ACK_SUITE_PATH, build_ack_suite),
            (PROGRESS_SUITE_PATH, build_progress_suite),
            (ROUND_PROBABILITY_SUITE_PATH, build_round_probability_suite),
            (SCHEDULER_MODELS_SUITE_PATH, build_scheduler_models_suite),
            (LOCALITY_SUITE_PATH, build_locality_suite),
            (SEED_AGREEMENT_SUITE_PATH, build_seed_agreement_suite),
            (ADVERSARY_SUITE_PATH, build_adversary_suite),
            (SEED_REUSE_SUITE_PATH, build_seed_reuse_suite),
            (TRAFFIC_SUITE_PATH, build_traffic_suite),
            (ABSTRACT_MAC_SUITE_PATH, build_abstract_mac_suite),
            (LOWER_BOUND_SUITE_PATH, build_lower_bound_suite),
        ):
            assert os.path.exists(path)
            assert SuiteSpec.load(path).fingerprint() == build().fingerprint()

    def test_ack_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(ACK_SUITE_PATH), jobs=1, prebuild=False)
        rows = ack_rows_from_report(report).rows
        assert len(rows) == len(self.ACK_ROWS)
        for expected, actual in zip(self.ACK_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_progress_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(PROGRESS_SUITE_PATH), jobs=1, prebuild=False)
        rows = progress_rows_from_report(report).rows
        assert len(rows) == len(self.PROGRESS_ROWS)
        for expected, actual in zip(self.PROGRESS_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_round_probability_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(ROUND_PROBABILITY_SUITE_PATH), jobs=1)
        rows = round_probability_rows_from_report(report).rows
        assert len(rows) == len(self.ROUND_PROBABILITY_ROWS)
        for expected, actual in zip(self.ROUND_PROBABILITY_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_scheduler_models_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(SCHEDULER_MODELS_SUITE_PATH), jobs=1)
        rows = scheduler_models_rows_from_report(report).rows
        assert len(rows) == len(self.SCHEDULER_MODELS_ROWS)
        for expected, actual in zip(self.SCHEDULER_MODELS_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_locality_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(LOCALITY_SUITE_PATH), jobs=1)
        rows = locality_rows_from_report(report).rows
        assert len(rows) == len(self.LOCALITY_ROWS)
        for expected, actual in zip(self.LOCALITY_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_seed_agreement_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(SEED_AGREEMENT_SUITE_PATH), jobs=1)
        rows = seed_agreement_rows_from_report(report).rows
        assert len(rows) == len(self.SEED_AGREEMENT_ROWS)
        for expected, actual in zip(self.SEED_AGREEMENT_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_adversary_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(ADVERSARY_SUITE_PATH), jobs=1)
        rows = adversary_rows_from_report(report).rows
        assert len(rows) == len(self.ADVERSARY_ROWS)
        for expected, actual in zip(self.ADVERSARY_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_seed_reuse_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(SEED_REUSE_SUITE_PATH), jobs=1)
        rows = seed_reuse_rows_from_report(report).rows
        assert len(rows) == len(self.SEED_REUSE_ROWS)
        for expected, actual in zip(self.SEED_REUSE_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_abstract_mac_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(ABSTRACT_MAC_SUITE_PATH), jobs=1)
        rows = abstract_mac_rows_from_report(report).rows
        assert len(rows) == len(self.ABSTRACT_MAC_ROWS)
        for expected, actual in zip(self.ABSTRACT_MAC_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_lower_bound_manifest_reproduces_pre_suite_numbers(self):
        report = run_suite(SuiteSpec.load(LOWER_BOUND_SUITE_PATH), jobs=1)
        rows = lower_bound_rows_from_report(report).rows
        assert len(rows) == len(self.LOWER_BOUND_ROWS)
        for expected, actual in zip(self.LOWER_BOUND_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])

    def test_traffic_manifest_reproduces_pinned_numbers(self):
        report = run_suite(SuiteSpec.load(TRAFFIC_SUITE_PATH), jobs=1)
        rows = traffic_rows_from_report(report).rows
        assert len(rows) == len(self.TRAFFIC_ROWS)
        for expected, actual in zip(self.TRAFFIC_ROWS, rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, value, actual[key])
        # The acceptance comparison: the TASA-style traffic-aware schedule
        # beats the i.i.d. baseline on pooled delivery latency (and delivers
        # strictly more messages) at the high-load grid point.
        by_key = {(r["rate"], r["scheduler"]): r for r in rows}
        high = max(r["rate"] for r in rows)
        assert (
            by_key[(high, "tasa")]["delivery_latency"]
            < by_key[(high, "iid")]["delivery_latency"]
        )
        assert by_key[(high, "tasa")]["delivered"] > by_key[(high, "iid")]["delivered"]
