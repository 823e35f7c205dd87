"""Fleet executor tests (repro.scenarios.fleet).

The headline invariants from the PR-10 issue:

* the merged fleet report is **byte-identical** to ``run_suite``'s under
  :func:`deterministic_report_dict`, no matter how many workers ran, which
  worker executed which task, or how work was stolen;
* the result store is the crash-safe checkpoint -- a warm rerun executes
  nothing, and a fleet whose worker is SIGKILLed mid-task still converges to
  the clean serial report because survivors reclaim the expired lease;
* a task whose runner raises fails the run at once with an error naming the
  task, and its lease is never stolen;
* the service integration (JobManager fleet dispatch + queue-depth
  backpressure) preserves report identity and surfaces its decisions in
  ``/stats``.

The SIGKILL test rides the ``fault_injection`` marker next to the
``tests/service`` fault suite; everything else is plain tier-1.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal

import pytest

from repro.scenarios import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    ResultStore,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    SuiteEntry,
    SuiteSpec,
    TopologySpec,
    deterministic_report_dict,
    run_suite,
    run_suite_fleet,
)
from repro.scenarios.cli import main as cli_main
from repro.scenarios.fleet import (
    FleetTaskError,
    _all_chunks_settled,
    _claim_any_chunk,
    _lease_path,
    _try_steal_lease,
    _write_fsynced,
    default_task_runner,
)
from repro.scenarios.jobs import FaultPlan, JobManager, parse_submission
from repro.scenarios.suite import SuiteCancelled


def fleet_scenario(name: str, seed: int, trials: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        topology=TopologySpec("line", {"n": 5}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": seed}),
        environment=EnvironmentSpec("single_shot", {"senders": [0]}),
        engine=EngineConfig(trace_mode="auto"),
        run=RunPolicy(
            rounds=1,
            rounds_unit="tack",
            trials=trials,
            master_seed=seed,
            # Derived per-trial seeds: under "fixed" every trial of an entry
            # shares one store key (they are genuinely the same experiment),
            # which would collapse this fixture to one task per entry.
            seed_policy="derived",
        ),
        metrics=(MetricSpec("counters"), MetricSpec("ack_delay")),
    )


def fleet_suite(entry_count: int = 2, trials: int = 3) -> SuiteSpec:
    return SuiteSpec(
        name="fleet-suite",
        description="fleet executor identity fixture",
        entries=tuple(
            SuiteEntry(
                id=f"e{i}",
                scenario=fleet_scenario(f"e{i}", seed=3 + i, trials=trials),
                group="g",
            )
            for i in range(entry_count)
        ),
    )


def det(report) -> dict:
    return deterministic_report_dict(report.to_dict())


# ----------------------------------------------------------------------
# report identity
# ----------------------------------------------------------------------
def test_fleet_report_identical_to_serial(tmp_path):
    suite = fleet_suite()
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    fleet = run_suite_fleet(
        suite, workers=3, store=str(tmp_path / "store"), chunk_size=1, prebuild=False
    )
    assert det(fleet) == serial
    assert fleet.store_stats["workers"] == 3
    assert fleet.store_stats["tasks"] == 6
    assert fleet.store_stats["misses"] == 6


def test_fleet_single_worker_matches_serial(tmp_path):
    suite = fleet_suite(entry_count=1, trials=2)
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    fleet = run_suite_fleet(suite, workers=1, store=str(tmp_path / "store"))
    assert det(fleet) == serial


def test_fleet_private_store_when_none_given():
    suite = fleet_suite(entry_count=1, trials=2)
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    assert det(run_suite_fleet(suite, workers=2, chunk_size=1)) == serial


def test_fleet_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers >= 1"):
        run_suite_fleet(fleet_suite(), workers=0)


# ----------------------------------------------------------------------
# the store as checkpoint
# ----------------------------------------------------------------------
def test_fleet_warm_rerun_executes_nothing(tmp_path):
    suite = fleet_suite()
    store = str(tmp_path / "store")
    cold = det(run_suite_fleet(suite, workers=2, store=store))

    def poisoned(spec, trial_index):
        raise AssertionError(f"warm rerun executed {spec.name}[{trial_index}]")

    warm = run_suite_fleet(suite, workers=2, store=store, task_runner=poisoned)
    assert det(warm) == cold
    assert warm.store_stats["hits"] == warm.store_stats["tasks"]
    assert warm.store_stats["misses"] == 0


def test_fleet_resumes_from_partially_filled_store(tmp_path):
    suite = fleet_suite()
    store_dir = str(tmp_path / "store")
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    # Pre-execute half the tasks straight into the store, as a killed fleet
    # would have left them.
    store = ResultStore(store_dir)
    spec = suite.entries[0].scenario
    for trial_index in range(3):
        store.put(spec, trial_index, default_task_runner(spec, trial_index))

    # Workers are forked, so executions are observed through the filesystem,
    # not a shared list.
    executed_dir = tmp_path / "executed"
    executed_dir.mkdir()

    def counting(spec, trial_index):
        (executed_dir / f"{spec.name}-{trial_index}").touch()
        return default_task_runner(spec, trial_index)

    report = run_suite_fleet(
        suite, workers=2, store=store_dir, chunk_size=1, task_runner=counting
    )
    assert det(report) == serial
    assert report.store_stats["hits"] == 3
    # Only the other entry's trials were executed.
    assert sorted(p.name for p in executed_dir.iterdir()) == ["e1-0", "e1-1", "e1-2"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_suite_fleet_matches_serial(tmp_path, capsys):
    suite = fleet_suite(entry_count=2, trials=2)
    manifest = tmp_path / "fleet.json"
    manifest.write_text(suite.to_json())
    out_path = tmp_path / "report.json"
    code = cli_main(
        [
            "suite",
            str(manifest),
            "--fleet",
            "2",
            "--store",
            str(tmp_path / "store"),
            "--json",
            str(out_path),
        ]
    )
    assert code == 0
    assert "fleet      : 2 worker process(es)" in capsys.readouterr().out
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    assert deterministic_report_dict(json.loads(out_path.read_text())) == serial


# ----------------------------------------------------------------------
# poison tasks: a raising task fails the run with its cause, no steals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_fleet_poison_task_fails_fast_with_its_cause(tmp_path, workers):
    """With one worker, the failing worker is the last to exit: the
    coordinator's final lease snapshot must still report the failure."""
    suite = fleet_suite(entry_count=2, trials=3)
    store = str(tmp_path / "store")

    def poisoned(spec, trial_index):
        if spec.name == "e1" and trial_index == 2:
            raise ValueError("deliberately poisoned trial")
        return default_task_runner(spec, trial_index)

    with pytest.raises(FleetTaskError) as excinfo:
        run_suite_fleet(
            suite, workers=workers, store=store, chunk_size=1, prebuild=False,
            task_runner=poisoned,
        )
    error = excinfo.value
    assert error.steals == 0
    assert error.failure["task"] == 5
    assert error.failure["entry"] == "e1"
    assert error.failure["trial"] == 2
    assert error.failure["type"] == "ValueError"
    assert error.failure["message"] == "deliberately poisoned trial"
    assert "in poisoned" in error.failure["traceback"]
    message = str(error)
    for part in ("entry 'e1'", "trial 2", "ValueError", "deliberately poisoned trial"):
        assert part in message

    # Nothing else was lost: a rerun with a healthy runner resumes from the
    # store (sweeping the failed lease) and matches the serial report.
    rerun = run_suite_fleet(suite, workers=2, store=store, prebuild=False)
    assert det(rerun) == det(run_suite(suite, jobs=1, prebuild=False))
    assert rerun.store_stats["misses"] >= 1


def test_failed_lease_is_never_stolen(tmp_path):
    leases_dir = str(tmp_path / "leases")
    os.makedirs(leases_dir)
    failed = {
        "lease": 1, "chunk": 0, "tasks": [0, 1], "owner": "w0-pid1",
        "heartbeat": 0.0, "done": [], "state": "failed", "steals": 0,
        "failure": {"task": 0, "entry": "e0", "trial": 0, "type": "ValueError"},
    }
    _write_fsynced(_lease_path(leases_dir, 0), failed)
    # Long past any TTL, yet neither a steal nor a claim takes it ...
    assert _try_steal_lease(leases_dir, 0, ttl_s=0.01, new_owner="w1") is None
    assert _claim_any_chunk(leases_dir, 1, [[0, 1]], "w1", 0.01, 0) is None
    # ... and it settles the board, so idle workers exit instead of waiting.
    assert _all_chunks_settled(leases_dir, 1)
    with open(_lease_path(leases_dir, 0), encoding="utf-8") as handle:
        assert json.load(handle)["owner"] == "w0-pid1"


def test_fleet_cancelled_run_resumes_from_the_store(tmp_path):
    suite = fleet_suite()
    store = str(tmp_path / "store")
    observed = []
    with pytest.raises(SuiteCancelled, match="in the result store"):
        run_suite_fleet(
            suite, workers=2, store=store, chunk_size=1, prebuild=False,
            on_progress=lambda e: observed.append(e) if e["event"] == "task" else None,
            should_stop=lambda: bool(observed),
        )
    rerun = run_suite_fleet(suite, workers=2, store=store, prebuild=False)
    assert rerun.store_stats["hits"] >= len(observed) >= 1
    assert det(rerun) == det(run_suite(suite, jobs=1, prebuild=False))


def test_fleet_store_less_cancel_promises_nothing_durable():
    # Without a caller's store the fleet runs on a private temporary store
    # that is deleted on return: the error must not point at it.
    observed = []
    with pytest.raises(SuiteCancelled) as excinfo:
        run_suite_fleet(
            fleet_suite(entry_count=2, trials=2), workers=2, prebuild=False,
            on_progress=lambda e: observed.append(e) if e["event"] == "task" else None,
            should_stop=lambda: bool(observed),
        )
    assert re.fullmatch(r"cancelled after [1-4]/4 tasks", str(excinfo.value))


# ----------------------------------------------------------------------
# fault tolerance: a SIGKILLed worker's lease is reclaimed by survivors
# ----------------------------------------------------------------------
@pytest.mark.fault_injection
def test_fleet_worker_sigkill_is_recovered(tmp_path):
    suite = fleet_suite(entry_count=2, trials=3)
    serial = det(run_suite(suite, jobs=1, prebuild=False))
    sentinel = str(tmp_path / "killed-once")

    def killing(spec, trial_index):
        # The first worker to pick up e0[1] dies *inside* the task, before
        # its record reaches the store -- exactly the crash window where the
        # lease heartbeat goes stale and a survivor must steal the chunk.
        if spec.name == "e0" and trial_index == 1:
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # already died here once; run normally this time
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return default_task_runner(spec, trial_index)

    report = run_suite_fleet(
        suite,
        workers=2,
        store=str(tmp_path / "store"),
        chunk_size=1,
        lease_ttl_s=0.5,
        poll_s=0.02,
        task_runner=killing,
    )
    assert os.path.exists(sentinel), "the kill window was never reached"
    assert det(report) == serial
    assert report.store_stats["steals"] >= 1


# ----------------------------------------------------------------------
# service integration: fleet dispatch + queue-depth backpressure
# ----------------------------------------------------------------------
@pytest.mark.service
def test_jobmanager_fleet_dispatch_preserves_report(tmp_path):
    suite = fleet_suite(entry_count=2, trials=2)
    serial = det(run_suite(suite, jobs=1, prebuild=False))

    async def main():
        manager = JobManager(
            store=str(tmp_path / "store"),
            workers=1,
            backoff_s=0.01,
            fleet_workers=2,
            fleet_threshold=2,
        )
        await manager.start()
        job, disposition = manager.submit(*parse_submission({"suite": suite.to_dict()}))
        assert disposition == "new"
        queue = manager.subscribe(job)
        try:
            while not job.terminal:
                await asyncio.wait_for(queue.get(), timeout=60)
        finally:
            manager.unsubscribe(job, queue)
        stats = manager.stats()
        report_path = manager.report_path(job.fingerprint)
        await manager.shutdown()
        return job, stats, report_path

    job, stats, report_path = asyncio.run(main())
    assert job.state == "done"
    assert stats["fleet"]["dispatched"] == 1
    assert stats["fleet"]["workers"] == 2
    with open(report_path, encoding="utf-8") as handle:
        assert deterministic_report_dict(json.load(handle)) == serial


@pytest.mark.service
def test_jobmanager_fleet_retry_resumes_from_the_store(tmp_path):
    """A fleet attempt that crashes after 2 observed tasks is retried, and
    the retry serves those tasks from the store instead of re-running them."""
    suite = fleet_suite(entry_count=2, trials=2)
    serial = det(run_suite(suite, jobs=1, prebuild=False))

    async def main():
        manager = JobManager(
            store=str(tmp_path / "store"),
            workers=1,
            backoff_s=0.01,
            fleet_workers=2,
            fleet_threshold=2,
            fault_plan=FaultPlan(kind="crash", after_tasks=2),
        )
        await manager.start()
        job, _ = manager.submit(*parse_submission({"suite": suite.to_dict()}))
        queue = manager.subscribe(job)
        try:
            while not job.terminal:
                await asyncio.wait_for(queue.get(), timeout=60)
        finally:
            manager.unsubscribe(job, queue)
        report_path = manager.report_path(job.fingerprint)
        await manager.shutdown()
        return job, report_path

    job, report_path = asyncio.run(main())
    assert job.state == "done"
    assert job.attempts == 2
    assert job.progress["hits"] >= 2
    with open(report_path, encoding="utf-8") as handle:
        assert deterministic_report_dict(json.load(handle)) == serial


@pytest.mark.service
def test_jobmanager_backpressure_rejects_over_bound(tmp_path):
    suite = fleet_suite(entry_count=2, trials=3)  # 6 tasks

    async def main():
        manager = JobManager(
            store=str(tmp_path / "store"),
            workers=1,
            backoff_s=0.01,
            max_pending_tasks=4,
        )
        await manager.start()
        job, disposition = manager.submit(*parse_submission({"suite": suite.to_dict()}))
        stats = manager.stats()
        await manager.shutdown()
        return job, disposition, stats

    job, disposition, stats = asyncio.run(main())
    assert disposition == "rejected"
    assert job.state == "rejected"
    assert job.terminal
    assert "max_pending_tasks" in (job.error or "")
    assert stats["counters"]["rejected"] == 1
