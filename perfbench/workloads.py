"""Seed-derived inputs and output checks for each benchmark workload.

Every workload sends *requests*: each request is one suite manifest built
from the group templates below (one entry per group, shapes taken from the
checked-in manifests ``examples/suites/bench_*.json``) with the link
schedule and the algorithms' coins (scheduler and run seeds) drawn fresh
from the benchmark seed.  Distinct seeds give distinct fingerprints and
store keys, so no request can be answered from a cache another request
filled: each one is cold.  Topologies keep the manifests' own seeds: a random
graph's Δ sets LBAlg's phase lengths, so a fresh graph per request would
change the amount of work by tens of percent and drown the measurement.

The checks hold for any seed: they are invariants of the paper's model
(a receiver hears at most one frame per round, so hearing Δ contenders takes
at least Δ rounds) and accounting identities of the metrics, plus the
requirement that a request ran cold (no store hits).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Mapping


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _progress_entries(rng: random.Random) -> List[Dict[str, Any]]:
    """E3 progress: saturating senders on Δ-target random graphs, IID links."""
    entries = []
    for delta, topology_seed in ((8, 7136), (16, 7272), (24, 7408)):
        for epsilon in (0.2, 0.1):
            entries.append(
                {
                    "group": f"delta-{delta}-eps-{epsilon}",
                    "scenario": {
                        "topology": {
                            "name": "target_degree",
                            "args": {"seed": topology_seed, "target_delta": delta},
                        },
                        "algorithm": {
                            "name": "lbalg",
                            "args": {"epsilon": epsilon, "preset": "derived"},
                        },
                        "scheduler": {
                            "name": "iid",
                            "args": {"probability": 0.5, "seed": _seed(rng)},
                        },
                        "environment": {
                            "name": "saturating",
                            "args": {"senders": {"divisor": 6, "min": 2, "select": "first"}},
                        },
                        "metrics": [{"name": "params"}, {"name": "progress"}],
                        "run": {
                            "master_seed": _seed(rng),
                            # half the manifest's 4 phases: more, shorter requests per run
                            "rounds": 2,
                            "rounds_unit": "phases",
                            "seed_policy": "fixed",
                            "trials": 1,
                        },
                    },
                }
            )
    return entries


def _lower_bound_entries(rng: random.Random) -> List[Dict[str, Any]]:
    """E7 lower-bound context: Δ contenders around one receiver, LBAlg vs Decay."""
    entries = []
    for algorithm in ("lbalg", "decay"):
        for delta in (4, 8, 16):
            if algorithm == "lbalg":
                spec_algorithm = {"name": "lbalg", "args": {"epsilon": 0.2, "preset": "derived"}}
                rounds, unit = 2, "tack"
            else:
                spec_algorithm = {"name": "decay", "args": {"num_cycles": 10}}
                rounds, unit = 400 * delta, "rounds"
            entries.append(
                {
                    "group": f"{algorithm}-d{delta}",
                    "scenario": {
                        "topology": {"name": "star", "args": {"leaves": delta}},
                        "algorithm": spec_algorithm,
                        "scheduler": {"name": "none"},
                        "environment": {
                            "name": "saturating",
                            "args": {"senders": list(range(1, delta + 1))},
                        },
                        "metrics": [{"name": "receiver_contention", "args": {"receiver": 0}}],
                        "run": {
                            "master_seed": _seed(rng),
                            "rounds": rounds,
                            "rounds_unit": unit,
                            "seed_policy": "fixed",
                            "trials": 1,
                        },
                    },
                }
            )
    return entries


def _traffic_entries(rng: random.Random) -> List[Dict[str, Any]]:
    """E13 traffic: poisson load on queues under three link schedulers."""
    master_seed = _seed(rng)
    entries = []
    for rate in (0.005, 0.02, 0.05):
        for scheduler in ("iid", "tasa", "longest_queue"):
            args = {"probability": 0.5} if scheduler == "iid" else {}
            entries.append(
                {
                    "group": f"{scheduler}-r{rate}",
                    "scenario": {
                        "topology": {
                            "name": "target_degree",
                            "args": {"seed": 11, "target_delta": 8},
                        },
                        "algorithm": {"name": "lbalg", "args": {"preset": "small"}},
                        "scheduler": {"name": scheduler, "args": args},
                        "environment": {"name": "queued"},
                        "traffic": {
                            "arrival": {"name": "poisson", "args": {"rate": rate}},
                            "capacity": 0,
                            "sinks": [0],
                        },
                        "engine": {"trace_mode": "full"},
                        "metrics": [{"name": "queue"}],
                        "run": {
                            "master_seed": master_seed,
                            "rounds": 3,
                            "rounds_unit": "tack",
                            "seed_policy": "derived",
                            "trials": 5,
                        },
                    },
                }
            )
    return entries


def _check_progress(metrics: Mapping[str, Any]) -> List[str]:
    windows = metrics["progress.windows"]
    if not 0 <= metrics["progress.failures"] <= windows <= metrics["progress.total_windows"]:
        return ["progress: need 0 <= failures <= windows <= total_windows"]
    if windows < 1:
        return ["progress: no applicable window"]
    return []


def _check_lower_bound(metrics: Mapping[str, Any]) -> List[str]:
    expected = metrics["receiver_contention.expected_origins"]
    problems = []
    if metrics["receiver_contention.first_reception_round"] < 1:
        problems.append("receiver_contention: first reception before round 1")
    if metrics["receiver_contention.distinct_origins_heard"] > expected:
        problems.append("receiver_contention: heard more origins than exist")
    if metrics["receiver_contention.complete"] and (
        metrics["receiver_contention.all_heard_round"] < expected
    ):
        # One frame per round at most: Δ origins cannot all be heard before round Δ.
        problems.append("receiver_contention: all Δ origins heard before round Δ")
    return problems


def _check_traffic(metrics: Mapping[str, Any]) -> List[str]:
    q = {key.split(".", 1)[1]: value for key, value in metrics.items() if key.startswith("queue.")}
    ok = (
        0 <= q["dropped"] <= q["offered"]
        and q["enqueued"] <= q["offered"]
        and q["delivered"] <= q["enqueued"]
        and q["acked"] <= q["submitted"] <= q["enqueued"]
        and q["delivered_before_ack"] <= q["acked"]
    )
    return [] if ok else ["queue: message accounting does not balance"]


#: workload name -> entry factory and per-trial metric check.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "progress": {"entries": _progress_entries, "check": _check_progress},
    "traffic_fleet": {"entries": _traffic_entries, "check": _check_traffic},
    "lower_bound_service": {"entries": _lower_bound_entries, "check": _check_lower_bound},
}


def make_requests(workload: str, seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` distinct suite manifests for ``workload``, fixed by ``seed``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    make_entries: Callable[[random.Random], List[Dict[str, Any]]]
    make_entries = WORKLOADS[workload]["entries"]
    requests = []
    for index in range(count):
        entries = make_entries(rng)
        for entry in entries:
            entry["id"] = f"{entry['group']}-q{index}"
            entry["scenario"]["name"] = entry["id"]
        requests.append({"name": f"perfbench-{workload}-{seed}-q{index}", "entries": entries})
    return requests


def check_report(
    workload: str, request: Mapping[str, Any], report: Mapping[str, Any]
) -> List[str]:
    """Problems with one request's report (an empty list means it is correct)."""
    check = WORKLOADS[workload]["check"]
    entries = report.get("entries", [])
    if [e["id"] for e in entries] != [e["id"] for e in request["entries"]]:
        return ["report entries do not match the request"]
    problems: List[str] = []
    tasks = 0
    for entry, wanted in zip(entries, request["entries"]):
        trials = entry["result"]["trials"]
        tasks += len(trials)
        if len(trials) != wanted["scenario"]["run"]["trials"]:
            problems.append(f"{entry['id']}: wrong trial count")
        for trial in trials:
            metrics = trial["metrics"]
            if metrics.get("transmissions", 0) <= 0:
                problems.append(f"{entry['id']}: no transmissions")
            for key, value in metrics.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"{entry['id']}: {key} is not finite")
            try:
                problems.extend(f"{entry['id']}: {p}" for p in check(metrics))
            except KeyError as missing:
                problems.append(f"{entry['id']}: metric column {missing} missing")
    stats = report.get("store") or {}
    if stats.get("hits", 0) != 0 or stats.get("misses") != tasks:
        problems.append(f"request did not run cold: store accounting {stats}")
    return problems
