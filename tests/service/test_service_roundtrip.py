"""Property-based submission round-trips (satellite 1 of the PR-8 issue).

Randomized (but seeded -- every failure reproduces) scenario trees drawn
from the component registries travel the full path: payload -> strict
parse -> fingerprint -> submit -> execute -> report JSON.  Alongside, a
malformed-payload catalogue asserts that the service rejects, with an
HTTP 400 whose body names the offending key, every corruption of a valid
submission we can mechanically produce.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.scenarios.jobs import parse_submission
from repro.scenarios.spec import ScenarioSpec

from .conftest import fetch_report_bytes, request_json, wait_terminal

pytestmark = pytest.mark.service

#: (topology, scheduler, algorithm) pools; every combination is runnable in
#: a handful of milliseconds.  Environments stay "null" so that every
#: algorithm has traffic without sender bookkeeping.
_TOPOLOGIES = [
    ("clique", {"n": 4}),
    ("line", {"n": 5}),
    ("star", {"leaves": 4}),
    ("grid", {"rows": 2, "cols": 3}),
]
_SCHEDULERS = [
    ("none", {}),
    ("full", {}),
    ("iid", {"probability": 0.5, "seed": 3}),
    ("periodic", {"on_rounds": 2, "off_rounds": 1}),
]
_ALGORITHMS = [
    ("uniform", {}),
    ("round_robin", {}),
    ("decay", {"num_cycles": 2}),
]
_METRIC_POOLS = [
    [{"name": "counters"}],
    [{"name": "counters"}, {"name": "params"}],
    [{"name": "counters"}, {"name": "graph_stats"}],
]


def random_scenario(rng: random.Random, index: int) -> dict:
    topology, topo_args = rng.choice(_TOPOLOGIES)
    scheduler, sched_args = rng.choice(_SCHEDULERS)
    algorithm, algo_args = rng.choice(_ALGORITHMS)
    return {
        "name": f"prop-{index}",
        "description": f"randomized round-trip case {index}",
        "topology": {"name": topology, "args": dict(topo_args)},
        "scheduler": {"name": scheduler, "args": dict(sched_args)},
        "algorithm": {"name": algorithm, "args": dict(algo_args)},
        "environment": {"name": "null", "args": {}},
        "run": {
            "rounds": rng.randint(2, 5),
            "rounds_unit": "rounds",
            "trials": 1,
            "master_seed": rng.randint(0, 2**20),
        },
        "metrics": rng.choice(_METRIC_POOLS),
    }


def test_randomized_scenarios_roundtrip_through_service(threaded_service):
    rng = random.Random(0xC0FFEE)
    url, _ = threaded_service(workers=2)
    cases = [random_scenario(rng, i) for i in range(10)]
    submitted = []
    for case in cases:
        status, payload = request_json(url, "POST", "/v1/jobs", body={"scenario": case})
        assert status in (200, 201), (case, payload)
        submitted.append((case, payload["job"]))
    for case, job in submitted:
        final = wait_terminal(url, job["id"])
        assert final["state"] == "done", (case, final)
        report = json.loads(fetch_report_bytes(url, job["id"]))
        # The report's embedded suite round-trips to the submitted scenario.
        entries = report["suite"]["entries"]
        assert len(entries) == 1
        restored = ScenarioSpec.from_dict(entries[0]["scenario"])
        assert restored == ScenarioSpec.from_dict(case)


def test_fingerprint_stability_across_wire_forms(threaded_service):
    """Key-order, float formatting, and re-serialization don't change identity."""
    rng = random.Random(2024)
    for index in range(10):
        case = random_scenario(rng, index)
        suite_a, _ = parse_submission({"scenario": case})
        # Same tree serialized via the spec's own canonical dict form...
        spec = ScenarioSpec.from_dict(case)
        suite_b, _ = parse_submission({"scenario": spec.to_dict()})
        # ...and via a JSON round-trip with scrambled key order.
        scrambled = json.loads(
            json.dumps(case, sort_keys=True)
        )
        suite_c, _ = parse_submission({"scenario": scrambled})
        assert suite_a.fingerprint() == suite_b.fingerprint() == suite_c.fingerprint()


def _corruptions(valid: dict):
    """Yield (label, payload, expected-message-fragment) malformed variants."""
    case = copy.deepcopy(valid)
    case["scenario"]["bogus_field"] = 1
    yield "unknown scenario key", case, "bogus_field"

    case = copy.deepcopy(valid)
    case["scenario"]["topology"]["flavor"] = "spicy"
    yield "unknown topology key", case, "flavor"

    case = copy.deepcopy(valid)
    case["scenario"]["run"]["cadence"] = 3
    yield "unknown run key", case, "cadence"

    case = copy.deepcopy(valid)
    del case["scenario"]["topology"]
    yield "missing topology", case, "topology"

    case = copy.deepcopy(valid)
    case["scenario"]["run"]["trials"] = 0
    yield "zero trials", case, "trials"

    for field, value in (("trials", 2.5), ("rounds", True), ("master_seed", 1.5)):
        case = copy.deepcopy(valid)
        case["scenario"]["run"][field] = value
        yield f"non-integer run.{field}={value!r}", case, f"run {field} must be an integer"

    case = copy.deepcopy(valid)
    case["scenario"]["version"] = 999
    yield "bad version", case, "version"

    case = copy.deepcopy(valid)
    case["scenario"]["topology"]["name"] = ""
    yield "empty component name", case, "name"

    case = copy.deepcopy(valid)
    case["scenario"]["environment"] = {
        "name": "queued",
        "args": {"arrival": {"name": "periodic", "args": {"period": 5}}, "trial_seed": 3},
    }
    yield "runtime arg on a component", case, "environment 'queued': arg 'trial_seed'"

    case = copy.deepcopy(valid)
    case["scenario"]["scheduler"] = {"name": "periodic", "args": {"period": 3}}
    yield "unknown component arg", case, "scheduler 'periodic' has no arg 'period'"

    yield "both forms", {"scenario": valid["scenario"], "suite": {"name": "x", "entries": []}}, "exactly one"
    yield "neither form", {"options": {}}, "exactly one"
    yield "unknown top key", {**copy.deepcopy(valid), "priority": 9}, "priority"
    yield "non-object body", ["not", "an", "object"], "object"

    for jobs in (0, 2.5, True, "3"):
        case = copy.deepcopy(valid)
        case["options"] = {"jobs": jobs}
        yield f"bad options.jobs={jobs!r}", case, "jobs"

    case = copy.deepcopy(valid)
    case["options"] = {"prebuild": "yes"}
    yield "bad options.prebuild", case, "prebuild"

    case = copy.deepcopy(valid)
    case["options"] = {"turbo": True}
    yield "unknown option", case, "turbo"


def test_malformed_payloads_rejected_with_named_errors(threaded_service):
    url, _ = threaded_service()
    valid = {"scenario": random_scenario(random.Random(5), 0)}
    # The template itself must be accepted, or the corruptions prove nothing.
    status, _ = request_json(url, "POST", "/v1/jobs", body=valid)
    assert status in (200, 201)
    for label, payload, fragment in _corruptions(valid):
        status, body = request_json(url, "POST", "/v1/jobs", body=payload)
        assert status == 400, (label, status, body)
        message = body["error"]["message"]
        assert fragment in message, (label, message)
        assert body["error"]["code"] in ("rejected", "bad-json")


def test_rejected_submissions_leave_no_job_behind(threaded_service):
    url, _ = threaded_service()
    request_json(url, "POST", "/v1/jobs", body={"scenario": {"name": "broken"}})
    status, stats = request_json(url, "GET", "/stats")
    assert sum(stats["jobs"].values()) == 0
    assert stats["queue_depth"] == 0
