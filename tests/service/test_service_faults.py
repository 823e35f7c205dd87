"""Fault injection (satellite 3): crashes, hard exits, and kills mid-suite.

Every test asserts the same invariant from the PR-8 issue: whatever dies --
a worker attempt (``crash:N``), the whole process (``exit:N`` /
``SIGKILL``), or a gracefully terminated server (``SIGTERM``) -- the
journaled job is recovered, execution resumes from the fsynced trial store
(the only checkpoint), and the final report equals a clean uninterrupted
run under :func:`deterministic_report_dict`.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.scenarios.jobs import FaultPlan
from repro.scenarios.suite import SuiteSpec, deterministic_report_dict, run_suite

from .conftest import (
    fetch_report_bytes,
    request_json,
    tiny_suite,
    wait_terminal,
)

pytestmark = [pytest.mark.service, pytest.mark.fault_injection]


def slow_suite(trials: int = 16) -> dict:
    """~50ms per task: wide enough to kill the server mid-execution.

    ``round_robin`` is stepped per process, so its idle rounds are never
    skipped: a task costs its 400 rounds whatever the environment.
    """
    return {
        "name": "svc-slow",
        "entries": [
            {
                "id": "svc-slow-e0",
                "scenario": {
                    "name": "svc-slow-e0",
                    "topology": {"name": "clique", "args": {"n": 10}},
                    "algorithm": {"name": "round_robin"},
                    "run": {
                        "rounds": 400,
                        "rounds_unit": "rounds",
                        "trials": trials,
                        "master_seed": 99,
                    },
                    "metrics": [{"name": "counters"}],
                },
            }
        ],
    }


def clean_report(payload: dict) -> dict:
    """The ground truth: the same suite run directly, no service, no store."""
    report = run_suite(SuiteSpec.from_dict(payload))
    return deterministic_report_dict(report.to_dict())


def wait_progress(url: str, job_id: str, done_at_least: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = request_json(url, "GET", f"/v1/jobs/{job_id}")
        job = payload["job"]
        if job["progress"].get("done", 0) >= done_at_least:
            return
        if job["state"] in ("done", "failed", "cancelled"):
            raise AssertionError(f"job went {job['state']} before reaching progress")
        time.sleep(0.02)
    raise AssertionError(f"no progress >= {done_at_least} within {timeout}s")


def recovered_job(url: str, fingerprint: str) -> dict:
    """The journal-recovered job for one fingerprint on a restarted server."""
    status, listing = request_json(url, "GET", "/v1/jobs")
    assert status == 200
    matches = [job for job in listing["jobs"] if job["fingerprint"] == fingerprint]
    assert matches, f"no recovered job for {fingerprint}"
    return matches[0]


def test_worker_crash_mid_suite_retries_from_store(threaded_service):
    """``crash:2``: attempt 1 dies after 2 tasks; attempt 2 resumes, not restarts."""
    url, service = threaded_service(
        workers=1,
        retries=2,
        backoff_s=0.01,
        fault_plan=FaultPlan(kind="crash", after_tasks=2),
    )
    payload = tiny_suite("crash-mid", entry_count=3, trials=2)  # 6 tasks
    status, submitted = request_json(url, "POST", "/v1/jobs", body={"suite": payload})
    assert status == 201

    final = wait_terminal(url, submitted["job"]["id"])
    assert final["state"] == "done"
    assert final["attempts"] == 2  # one crash, one successful retry
    # The retry's plan shows the resumed prefix: the crashed attempt's two
    # stored tasks were served, not re-executed.
    assert final["progress"]["hits"] >= 2

    report = json.loads(fetch_report_bytes(url, submitted["job"]["id"]))
    assert deterministic_report_dict(report) == clean_report(payload)

    status, stats = request_json(url, "GET", "/stats")
    assert stats["counters"]["retries"] == 1
    assert stats["counters"]["completed"] == 1


def test_crash_beyond_retry_budget_fails_cleanly(threaded_service):
    """Crashing on *every* attempt must exhaust retries into state=failed."""
    url, service = threaded_service(
        workers=1,
        retries=1,
        backoff_s=0.01,
        fault_plan=FaultPlan(kind="crash", after_tasks=1),
    )
    # Arm the crash on every attempt, not just the first.
    assert service.manager is not None
    service.manager._arm_fault = lambda job: service.manager.fault_plan  # type: ignore[assignment]

    status, submitted = request_json(
        url, "POST", "/v1/jobs", body={"suite": tiny_suite("crash-always", entry_count=2)}
    )
    final = wait_terminal(url, submitted["job"]["id"])
    assert final["state"] == "failed"
    assert "injected crash" in final["error"]
    status, body = request_json(url, "GET", f"/v1/jobs/{final['id']}/report")
    assert status == 409
    assert body["error"]["code"] == "job-failed"


def test_hard_exit_mid_suite_recovers_on_restart(server_process, tmp_path):
    """``exit:N``: the whole server process dies; the next one finishes the job."""
    store = str(tmp_path / "store")
    payload = slow_suite(trials=8)

    server = server_process(store=store, env_extra={"REPRO_SERVICE_FAULT": "exit:2"})
    status, submitted = request_json(server.url, "POST", "/v1/jobs", body={"suite": payload})
    assert status == 201
    fingerprint = submitted["job"]["fingerprint"]
    assert server.wait(timeout=120) == 70  # the injected hard exit

    fresh = server_process(store=store)  # no fault env: clean second life
    job = recovered_job(fresh.url, fingerprint)
    assert job["origin"] == "recovered"
    final = wait_terminal(fresh.url, job["id"])
    assert final["state"] == "done"
    # At least the pre-exit tasks came back from the store.
    assert final["progress"]["hits"] >= 2

    report = json.loads(fetch_report_bytes(fresh.url, job["id"]))
    assert deterministic_report_dict(report) == clean_report(payload)


def test_sigterm_mid_suite_resumes_from_store(server_process, tmp_path):
    """Graceful shutdown: exit 0, job stays journaled, restart completes it."""
    store = str(tmp_path / "store")
    payload = slow_suite(trials=16)

    server = server_process(store=store)
    status, submitted = request_json(server.url, "POST", "/v1/jobs", body={"suite": payload})
    job_id = submitted["job"]["id"]
    fingerprint = submitted["job"]["fingerprint"]
    wait_progress(server.url, job_id, done_at_least=2)
    assert server.sigterm() == 0

    fresh = server_process(store=store)
    job = recovered_job(fresh.url, fingerprint)
    assert job["origin"] == "recovered"
    final = wait_terminal(fresh.url, job["id"])
    assert final["state"] == "done"
    assert final["progress"]["hits"] >= 2

    report = json.loads(fetch_report_bytes(fresh.url, job["id"]))
    assert deterministic_report_dict(report) == clean_report(payload)


def test_sigkill_mid_suite_recovers_on_restart(server_process, tmp_path):
    """SIGKILL: no shutdown path ran at all; durability alone must carry it."""
    store = str(tmp_path / "store")
    payload = slow_suite(trials=16)

    server = server_process(store=store)
    status, submitted = request_json(server.url, "POST", "/v1/jobs", body={"suite": payload})
    fingerprint = submitted["job"]["fingerprint"]
    wait_progress(server.url, submitted["job"]["id"], done_at_least=2)
    server.sigkill()

    fresh = server_process(store=store)
    job = recovered_job(fresh.url, fingerprint)
    final = wait_terminal(fresh.url, job["id"])
    assert final["state"] == "done"
    report = json.loads(fetch_report_bytes(fresh.url, job["id"]))
    assert deterministic_report_dict(report) == clean_report(payload)


def test_kill_between_report_and_close_serves_report(server_process, tmp_path, threaded_service):
    """A journal accept whose report already landed closes without re-running."""
    store = str(tmp_path / "store")
    payload = tiny_suite("late-close", entry_count=1, trials=2)

    server = server_process(store=store)
    status, submitted = request_json(server.url, "POST", "/v1/jobs", body={"suite": payload})
    job_id = submitted["job"]["id"]
    fingerprint = submitted["job"]["fingerprint"]
    wait_terminal(server.url, job_id)
    original = fetch_report_bytes(server.url, job_id)
    # Re-open the accept as if the close line had been lost in a crash.
    import os

    journal = os.path.join(store, "service", "jobs.jsonl")
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "op": "accept",
                    "job": job_id,
                    "fingerprint": fingerprint,
                    "options": {},
                    "suite": json.loads(original)["suite"],
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
    server.sigkill()

    fresh = server_process(store=store)
    job = recovered_job(fresh.url, fingerprint)
    assert job["state"] == "done"  # closed from the persisted report, no re-run
    assert fetch_report_bytes(fresh.url, job["id"]) == original
    status, stats = request_json(fresh.url, "GET", "/stats")
    assert stats["counters"]["completed"] == 0
