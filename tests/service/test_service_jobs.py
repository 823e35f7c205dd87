"""JobManager unit tests: journal mechanics, recovery edges, cancellation.

These run the manager directly on an asyncio loop (no HTTP) where the
subprocess harness would be slow or could not reach the edge at all --
torn journal lines, duplicate accepts, cancel-while-running.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os

import pytest

from repro.scenarios.jobs import JobManager, JobRejected, parse_submission
from repro.scenarios.suite import SuiteSpec, deterministic_report_dict, run_suite

from .conftest import tiny_scenario, tiny_suite

pytestmark = pytest.mark.service


def run_async(coro):
    return asyncio.run(coro)


def manager_for(tmp_path, **kwargs) -> JobManager:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backoff_s", 0.01)
    return JobManager(store=str(tmp_path / "store"), **kwargs)


async def drive(manager: JobManager, job) -> None:
    """Wait for one job to reach a terminal state, then stop the workers."""
    queue = manager.subscribe(job)
    try:
        while not job.terminal:
            await asyncio.wait_for(queue.get(), timeout=60)
    finally:
        manager.unsubscribe(job, queue)
        await manager.shutdown()


# ----------------------------------------------------------------------
# parse_submission
# ----------------------------------------------------------------------
def test_parse_submission_options_and_wrapping():
    suite, options = parse_submission(
        {"scenario": tiny_scenario("wrapme"), "options": {"jobs": 3, "prebuild": True}}
    )
    assert suite.name == "scenario:wrapme"
    assert [entry.id for entry in suite.entries] == ["wrapme"]
    assert options == {"jobs": 3, "prebuild": True}

    suite, options = parse_submission({"suite": tiny_suite("plain")})
    assert suite == SuiteSpec.from_dict(tiny_suite("plain"))
    assert options == {}

    # The retired executor option is still accepted, and dropped.
    _, options = parse_submission(
        {"suite": tiny_suite("plain"), "options": {"jobs": 2, "fleet": 4}}
    )
    assert options == {"jobs": 2}


@pytest.mark.parametrize("jobs", ["many", 0, -1, 2.5, True, "3"])
def test_parse_submission_rejects_non_integer_jobs(jobs):
    with pytest.raises(JobRejected, match="options.jobs must be a positive integer"):
        parse_submission({"scenario": tiny_scenario(), "options": {"jobs": jobs}})


def test_parse_submission_rejects_non_integer_trials():
    scenario = tiny_scenario()
    scenario["run"]["trials"] = 2.5
    with pytest.raises(JobRejected, match="run trials must be an integer"):
        parse_submission({"scenario": scenario})


# ----------------------------------------------------------------------
# journal + recovery
# ----------------------------------------------------------------------
def test_submit_journals_before_ack(tmp_path):
    async def main():
        manager = manager_for(tmp_path)
        await manager.start()
        job, disposition = manager.submit(*parse_submission({"suite": tiny_suite("durable")}))
        assert disposition == "new"
        # The accept line is on disk before submit() returned.
        with open(manager.journal_path, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        assert any(e["op"] == "accept" and e["job"] == job.id for e in entries)
        await drive(manager, job)
        # ...and the close line lands on completion.
        with open(manager.journal_path, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        assert {"op": "close", "job": job.id, "state": "done"} in entries

    run_async(main())


def test_execution_checkpoints_only_into_the_store(tmp_path):
    """A finished job leaves its trials in the store and its report under
    ``suite/<fp>/`` -- and no side checkpoint file anywhere."""
    payload = tiny_suite("store-only", entry_count=2, trials=2)

    async def main():
        manager = manager_for(tmp_path)
        await manager.start()
        job, _ = manager.submit(*parse_submission({"suite": payload}))
        await drive(manager, job)
        return manager, job

    manager, job = run_async(main())
    assert job.state == "done"
    assert job.progress["misses"] == 4
    assert sorted(os.listdir(manager.suite_dir(job.fingerprint))) == ["report.json"]
    suite = SuiteSpec.from_dict(payload)
    assert all(
        manager.store.get(entry.scenario, trial) is not None
        for entry in suite.entries
        for trial in range(entry.scenario.run.trials)
    )
    pattern = os.path.join(manager.store.root, "**", "*.checkpoint.jsonl")
    assert not glob.glob(pattern, recursive=True)


def test_recover_tolerates_torn_tail_and_compacts(tmp_path):
    suite, _ = parse_submission({"suite": tiny_suite("torn")})
    manager = manager_for(tmp_path)
    manager._journal_append(
        {
            "op": "accept",
            "job": "job-000001",
            "fingerprint": suite.fingerprint(),
            "options": {},
            "suite": suite.to_dict(),
        }
    )
    with open(manager.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"op": "acc')  # a kill mid-append

    fresh = JobManager(store=manager.store)
    with pytest.warns(RuntimeWarning, match="unreadable"):
        recovered = fresh.recover()
    assert [job.id for job in recovered] == ["job-000001"]
    assert recovered[0].origin == "recovered"
    # Compaction rewrote the journal: the torn tail is gone for good.
    with open(fresh.journal_path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["op"] == "accept"


def test_recover_supersedes_duplicate_fingerprints(tmp_path):
    suite, _ = parse_submission({"suite": tiny_suite("dup-fp")})
    manager = manager_for(tmp_path)
    for job_id in ("job-000001", "job-000002"):
        manager._journal_append(
            {
                "op": "accept",
                "job": job_id,
                "fingerprint": suite.fingerprint(),
                "options": {},
                "suite": suite.to_dict(),
            }
        )
    fresh = JobManager(store=manager.store)
    recovered = fresh.recover()
    assert [job.id for job in recovered] == ["job-000001"]
    with open(fresh.journal_path, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    assert {"op": "close", "job": "job-000002", "state": "superseded"} in entries


def test_recover_runs_journaled_fleet_option_on_the_pool(tmp_path):
    """An accept journaled with the retired ``options.fleet`` recovers, runs
    on ``run_suite``'s pool and serves the serial report."""
    payload = tiny_suite("legacy-fleet", entry_count=2, trials=2)
    suite = SuiteSpec.from_dict(payload)
    manager = manager_for(tmp_path)
    manager._journal_append(
        {
            "op": "accept",
            "job": "job-000001",
            "fingerprint": suite.fingerprint(),
            "options": {"fleet": 2},
            "suite": suite.to_dict(),
        }
    )

    async def main():
        fresh = manager_for(tmp_path)
        await fresh.start()
        job = fresh.get("job-000001")
        assert job is not None and job.origin == "recovered"
        await drive(fresh, job)
        return fresh, job

    fresh, job = run_async(main())
    assert job.state == "done"
    assert job.options == {}
    with open(fresh.report_path(job.fingerprint), encoding="utf-8") as handle:
        served = json.load(handle)
    serial = run_suite(suite, jobs=1, prebuild=False).to_dict()
    assert deterministic_report_dict(served) == deterministic_report_dict(
        json.loads(json.dumps(serial))
    )


def test_recover_drops_unreadable_suites_with_warning(tmp_path):
    manager = manager_for(tmp_path)
    manager._journal_append(
        {"op": "accept", "job": "job-000009", "fingerprint": "x", "options": {}, "suite": {"nonsense": 1}}
    )
    fresh = JobManager(store=manager.store)
    with pytest.warns(RuntimeWarning, match="dropping unreadable"):
        assert fresh.recover() == []


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
def test_cancel_running_job_keeps_stored_trials_for_resume(tmp_path):
    payload = tiny_suite("cancel-run", entry_count=3, trials=2)  # 6 tasks

    async def main():
        manager = manager_for(tmp_path)
        await manager.start()
        job, _ = manager.submit(*parse_submission({"suite": payload}))
        queue = manager.subscribe(job)
        # Cancel as soon as the first task completes.
        while True:
            event = await asyncio.wait_for(queue.get(), timeout=60)
            if event.get("event") == "task":
                manager.cancel(job)
            if event.get("event") == "state" and event["state"] in (
                "done",
                "failed",
                "cancelled",
            ):
                break
        manager.unsubscribe(job, queue)
        await manager.shutdown()
        return manager, job

    manager, job = run_async(main())
    if job.state == "done":  # the last task raced the cancel -- nothing to resume
        return
    assert job.state == "cancelled"
    # The finished prefix is in the result store -- the only checkpoint.
    suite = SuiteSpec.from_dict(payload)
    stored = [
        (entry.id, trial)
        for entry in suite.entries
        for trial in range(entry.scenario.run.trials)
        if manager.store.get(entry.scenario, trial) is not None
    ]
    assert stored
    pattern = os.path.join(manager.store.root, "**", "*.checkpoint.jsonl")
    assert not glob.glob(pattern, recursive=True)

    async def resume():
        fresh = JobManager(store=manager.store, workers=1, backoff_s=0.01)
        await fresh.start()
        resumed, disposition = fresh.submit(*parse_submission({"suite": payload}))
        assert disposition == "new"
        await drive(fresh, resumed)
        return resumed

    resumed = run_async(resume())
    assert resumed.state == "done"
    # The cancelled prefix was served from the store, not re-run.
    assert resumed.progress["hits"] == len(stored)
    assert resumed.progress["misses"] == 6 - len(stored)


def test_cancel_terminal_job_is_a_noop(tmp_path):
    async def main():
        manager = manager_for(tmp_path)
        await manager.start()
        job, _ = manager.submit(*parse_submission({"scenario": tiny_scenario("noop", trials=1)}))
        await drive(manager, job)
        assert job.state == "done"
        assert manager.cancel(job) is False
        assert job.state == "done"

    run_async(main())


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_stats_reports_queue_depth_and_per_job_backlog(tmp_path):
    async def main():
        manager = manager_for(tmp_path)
        # Submitted but no worker started yet: the job sits in the queue
        # with its whole task list pending.
        job, _ = manager.submit(*parse_submission({"suite": tiny_suite("backlog")}))
        stats = manager.stats()
        assert stats["queue_depth"] == 1
        entry = stats["backlog"][job.id]
        assert entry["state"] == "queued"
        assert entry["tasks_total"] == job.task_count
        assert entry["tasks_done"] == 0
        assert entry["tasks_pending"] == job.task_count
        assert stats["backlog_tasks"] == job.task_count

        await manager.start()
        await drive(manager, job)
        assert job.state == "done"
        stats = manager.stats()
        # Terminal jobs carry no backlog.
        assert stats["backlog"] == {}
        assert stats["backlog_tasks"] == 0

    run_async(main())


def test_jobmanager_backpressure_rejects_over_bound(tmp_path):
    payload = tiny_suite("pressure", entry_count=2, trials=3)  # 6 tasks

    async def main():
        manager = manager_for(tmp_path, max_pending_tasks=4)
        await manager.start()
        job, disposition = manager.submit(*parse_submission({"suite": payload}))
        stats = manager.stats()
        await manager.shutdown()
        return job, disposition, stats

    job, disposition, stats = run_async(main())
    assert disposition == "rejected"
    assert job.state == "rejected"
    assert job.terminal
    assert "max_pending_tasks" in (job.error or "")
    assert stats["counters"]["rejected"] == 1
    assert stats["max_pending_tasks"] == 4
    assert stats["utilization"] == 0.0  # the rejected job adds no backlog
    assert stats["backlog_tasks"] == 0


# ----------------------------------------------------------------------
# concurrent jobs over the shared process-wide caches
# ----------------------------------------------------------------------
def iid_suite(name: str, seed: int) -> dict:
    """Two dense IID entries on one unreliable-edge-rich topology: prebuilt
    delta tables, the process-wide delta cache and the scheduled-edge mask
    memo all see traffic."""
    topology = {"name": "random_geographic", "args": {"n": 16, "seed": 7, "side": 3.2}}
    senders = {"count": 3, "select": "first"}
    run = {"rounds": 6, "rounds_unit": "phases", "trials": 3, "master_seed": seed}
    entries = []
    for i, probability in enumerate((0.3, 0.7)):
        entries.append(
            {
                "id": f"{name}-e{i}",
                "scenario": {
                    "name": f"{name}-e{i}",
                    "topology": topology,
                    "algorithm": {"name": "lbalg", "args": {"preset": "small"}},
                    "scheduler": {
                        "name": "iid",
                        "args": {"probability": probability, "seed": seed},
                    },
                    "environment": {"name": "saturating", "args": {"senders": senders}},
                    "run": run,
                    "metrics": [{"name": "counters"}, {"name": "ack_delay"}],
                },
            }
        )
    return {"name": name, "entries": entries}


def test_two_concurrent_jobs_match_serial_runs(tmp_path):
    """Two different IID suites on two executor threads share the delta and
    mask caches (one preloads a prebuilt table while the other stores lazily
    computed deltas); each report equals a serial ``run_suite`` of its suite."""
    payloads = [iid_suite("concurrent-a", seed=31), iid_suite("concurrent-b", seed=32)]
    options = [{"prebuild": True}, {}]

    async def main():
        manager = manager_for(tmp_path, workers=2)
        await manager.start()
        jobs = [
            manager.submit(*parse_submission({"suite": p, "options": o}))[0]
            for p, o in zip(payloads, options)
        ]
        queues = [manager.subscribe(job) for job in jobs]
        try:
            for job, queue in zip(jobs, queues):
                while not job.terminal:
                    await asyncio.wait_for(queue.get(), timeout=120)
        finally:
            for job, queue in zip(jobs, queues):
                manager.unsubscribe(job, queue)
            await manager.shutdown()
        return manager, jobs

    manager, jobs = run_async(main())
    assert [job.state for job in jobs] == ["done", "done"]
    first, second = jobs
    # The two executions overlapped in time.
    assert first.started_at < second.finished_at and second.started_at < first.finished_at
    for job, payload in zip(jobs, payloads):
        with open(manager.report_path(job.fingerprint), encoding="utf-8") as handle:
            served = json.load(handle)
        serial = run_suite(SuiteSpec.from_dict(payload)).to_dict()
        assert deterministic_report_dict(served) == deterministic_report_dict(
            json.loads(json.dumps(serial))
        )
