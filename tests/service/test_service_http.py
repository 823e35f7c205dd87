"""End-to-end HTTP contract of the scenario service.

Covers the full client journey -- submit, poll, stream, fetch report,
cancel -- plus the protocol edges (missing Content-Length, wrong methods,
unknown routes, oversized bodies) whose error bodies the docs promise.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios.suite import SuiteSpec, deterministic_report_dict, run_suite

from .conftest import (
    fetch_report_bytes,
    request_json,
    stream_events,
    tiny_scenario,
    tiny_suite,
    wait_terminal,
)

pytestmark = pytest.mark.service


def test_submit_stream_report_roundtrip(threaded_service, tmp_path):
    """Submit -> stream NDJSON until done -> report equals a direct run."""
    url, service = threaded_service()
    suite_payload = tiny_suite("http-e2e", entry_count=2, trials=2)

    status, payload = request_json(url, "POST", "/v1/jobs", body={"suite": suite_payload})
    assert status == 201, payload
    assert payload["dedup"] == "new"
    job = payload["job"]
    assert job["state"] in ("queued", "running")
    assert job["suite"] == {"name": "http-e2e", "entries": 2, "tasks": 4}

    events = list(stream_events(url, job["id"]))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "snapshot"
    # Task completions stream in order with a running counter.  A subscriber
    # attaching after execution began misses the earliest events (the
    # snapshot's progress covers them), so assert a suffix, not the full run.
    task_events = [event for event in events if event["event"] == "task"]
    dones = [event["done"] for event in task_events]
    assert dones == list(range(dones[0], 5)) if dones else True
    assert all(event["total"] == 4 for event in task_events)
    assert events[-1] == {
        "job": job["id"],
        "event": "state",
        "state": "done",
        "error": None,
    }

    report = json.loads(fetch_report_bytes(url, job["id"]))
    direct = run_suite(SuiteSpec.from_dict(tiny_suite("http-e2e", entry_count=2, trials=2)))
    assert deterministic_report_dict(report) == deterministic_report_dict(direct.to_dict())

    # The descriptor reflects the terminal state and final progress.
    final = wait_terminal(url, job["id"])
    assert final["state"] == "done"
    assert final["progress"]["done"] == 4
    assert final["attempts"] == 1


def test_scenario_submission_wraps_into_suite(threaded_service):
    url, _ = threaded_service()
    status, payload = request_json(
        url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("solo", trials=1)}
    )
    assert status == 201, payload
    assert payload["job"]["suite"] == {"name": "scenario:solo", "entries": 1, "tasks": 1}
    final = wait_terminal(url, payload["job"]["id"])
    assert final["state"] == "done"


def test_healthz_and_stats(threaded_service):
    url, _ = threaded_service()
    status, payload = request_json(url, "GET", "/healthz")
    assert (status, payload) == (200, {"ok": True, "service": "repro"})

    status, stats = request_json(url, "GET", "/stats")
    assert status == 200
    assert stats["workers"] == 2
    assert stats["counters"]["submitted"] == 0
    assert set(stats["jobs"]) == {
        "queued",
        "running",
        "done",
        "failed",
        "cancelled",
        "rejected",
    }
    assert "entries" in stats["store"]
    assert stats["max_pending_tasks"] is None  # no backpressure bound by default


def test_job_listing_and_descriptor(threaded_service):
    url, _ = threaded_service()
    status, payload = request_json(
        url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("listed", trials=1)}
    )
    job_id = payload["job"]["id"]
    wait_terminal(url, job_id)

    status, listing = request_json(url, "GET", "/v1/jobs")
    assert status == 200
    assert [job["id"] for job in listing["jobs"]] == [job_id]

    status, payload = request_json(url, "GET", f"/v1/jobs/{job_id}")
    assert status == 200
    assert payload["job"]["fingerprint"]


def test_report_before_done_is_409(threaded_service):
    url, service = threaded_service(workers=1)
    # Stall the single worker with a bigger job, then ask for a queued job's
    # report: the 409 names the polling endpoints.
    status, first = request_json(
        url, "POST", "/v1/jobs", body={"suite": tiny_suite("stall", entry_count=2, trials=3)}
    )
    status, second = request_json(
        url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("queued-09", seed=99)}
    )
    job_id = second["job"]["id"]
    status, body = request_json(url, "GET", f"/v1/jobs/{job_id}/report")
    if status == 409:  # terminal already on fast machines -> nothing to assert
        assert body["error"]["code"] == "not-finished"
        assert job_id in body["error"]["message"]
    wait_terminal(url, first["job"]["id"])
    wait_terminal(url, job_id)


def test_cancel_queued_job(threaded_service):
    url, service = threaded_service(workers=1)
    request_json(
        url, "POST", "/v1/jobs", body={"suite": tiny_suite("cancel-stall", entry_count=2, trials=3)}
    )
    status, queued = request_json(
        url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("cancel-me", seed=123)}
    )
    job_id = queued["job"]["id"]
    status, payload = request_json(url, "POST", f"/v1/jobs/{job_id}/cancel")
    assert status == 200
    final = wait_terminal(url, job_id)
    assert final["state"] in ("cancelled", "done")  # done if it raced onto the worker
    if final["state"] == "cancelled":
        status, body = request_json(url, "GET", f"/v1/jobs/{job_id}/report")
        assert status == 409
        assert body["error"]["code"] == "job-cancelled"


def test_http_protocol_edges(threaded_service):
    url, _ = threaded_service()

    status, body = request_json(url, "GET", "/no/such/route")
    assert status == 404
    assert body["error"]["code"] == "not-found"

    status, body = request_json(url, "GET", "/v1/jobs/job-999999")
    assert status == 404
    assert body["error"]["code"] == "unknown-job"

    status, body = request_json(url, "DELETE", "/healthz")
    assert status == 405
    assert "GET" in body["error"]["message"]

    status, body = request_json(url, "GET", "/v1/jobs/whatever/unknown-action")
    assert status == 404

    # POST without a parseable body -> 400 with the JSON error.
    status, body = request_json(url, "POST", "/v1/jobs", raw_body=b"{not json")
    assert status == 400
    assert body["error"]["code"] == "bad-json"


def test_submission_while_stopping_is_rejected(threaded_service):
    url, service = threaded_service()
    assert service.manager is not None
    service.manager.stopping = True
    status, body = request_json(
        url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("too-late")}
    )
    assert status == 400
    assert "shutting down" in body["error"]["message"]
    service.manager.stopping = False


def test_subprocess_server_ready_line_and_roundtrip(server_process):
    """The real CLI child: ready line parses, one job runs end to end."""
    server = server_process()
    status, payload = request_json(
        server.url, "POST", "/v1/jobs", body={"scenario": tiny_scenario("subproc", trials=1)}
    )
    assert status == 201, payload
    final = wait_terminal(server.url, payload["job"]["id"])
    assert final["state"] == "done"
    assert server.sigterm() == 0
