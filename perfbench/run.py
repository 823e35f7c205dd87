#!/usr/bin/env python3
"""Cold end-to-end benchmark of ``repro`` with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload progress --seed 1 --seconds 10 --trace 0

Each workload runs a closed loop of ``CLIENTS[workload]`` clients -- each
client sends its next request when its previous report is back -- for
``--seconds`` seconds.  A request is a suite manifest drawn from ``--seed``
(:mod:`workloads`); it runs cold, the way a user runs it:

* ``progress`` (E3: scheduler decisions dominate; two clients) and
  ``traffic_fleet`` (E13: queue-backed traffic, trials on the fleet
  executor's two forked workers; one client): one fresh ``python -m repro
  suite REQUEST.json --store EMPTY_DIR --json REPORT [--fleet 2]`` process
  per request, timed from spawn to exit with the report written;
* ``lower_bound_service`` (E7: no unreliable links, so no scheduler work;
  engine rounds dominate; one client): one ``python -m repro serve
  --workers 1 --jobs 2`` process for the whole run, each job's trials on a
  two-process pool; a request is ``POST /v1/jobs``, the job's event stream
  until it is done, and ``GET /v1/jobs/ID/report``, timed from the POST to
  the last report byte.

End-to-end metrics (``--trace 0``): ``latency_ms`` is the median request
latency, ``trials_per_s`` the trials completed per second of the loop, and
``setup_s`` the median of ``SETUP_REPEATS`` set-ups: for the CLI workloads a
fresh interpreter that imports ``repro`` and validates every request
manifest, for the service a server start up to its first healthy
``/healthz``.

Per-layer metrics (``--trace 1``) come from a separate run in which every
``repro`` process runs under ``perfbench/spans.py``, which records spans
around the calls into each layer; they are self seconds per request, summed
over the run's requests (and the forked worker processes) and divided by the
request count, plus cache counters.  ``traced_latency_ms`` against
``latency_ms`` is the tracing overhead.

Correctness: every report must cover the request's entries and trials, pass
the workload's invariant checks, and show that it ran cold (no store hits).
The first request is also executed in this process with ``run_suite`` and
must give a ``deterministic_report_dict``-identical report (serial against
the fleet for ``traffic_fleet``, in-process against HTTP for the service);
the service must answer a resubmission of it from its report cache with
byte-identical bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_report, make_requests  # noqa: E402

SETUP_REPEATS = 5
#: Concurrent closed-loop clients.  Keeping both CPUs of a 2-CPU host busy
#: halves how much one CPU's speed drift on a shared host moves the figures:
#: progress does it with two single-process clients, traffic_fleet with the
#: fleet's two workers, the service with a two-process pool per job.  The
#: service runs one job at a time, because concurrent jobs in one server race
#: on the process-wide caches (KeyError, then a retry that resumes from the
#: checkpoint).
CLIENTS = {"progress": 2, "traffic_fleet": 1, "lower_bound_service": 1}
MIN_REQUESTS = 4
REQUEST_TIMEOUT_S = 90.0
FLEET_WORKERS = 2
#: Rough cold seconds per request on a 2-CPU host; only sizes the list of
#: pre-generated requests, which is three times what the run should need.
EXPECTED_REQUEST_S = {"progress": 2.0, "traffic_fleet": 1.2, "lower_bound_service": 1.5}
SERVICE = "lower_bound_service"

VALIDATE = (
    "import sys\n"
    "from repro.scenarios.suite import SuiteSpec\n"
    "for path in sys.argv[1:]:\n"
    "    SuiteSpec.load(path).fingerprint()\n"
)

#: per-layer metric -> span layer recorded by spans.py (self seconds per request)
LAYERS = {
    "spec_s": "spec",
    "topology_s": "topology",
    "algorithm_build_s": "algorithm_build",
    "materialize_s": "materialize",
    "prebuild_s": "prebuild",
    "scheduler_s": "scheduler",
    "engine_s": "engine",
    "resolve_s": "resolve",
    "traffic_s": "traffic",
    "metrics_s": "metrics",
    "store_s": "store",
    "report_s": "report",
    "fleet_coordinator_s": "fleet_coordinator",
    "fleet_worker_s": "fleet_worker",
    "service_submit_s": "service_submit",
    "service_journal_s": "service_journal",
    "service_job_s": "service_job",
    "service_persist_s": "service_persist",
    "service_report_s": "service_report",
}


class Failure(Exception):
    """A request that did not produce a correct report."""


def _popen(argv: List[str], env: Dict[str, str], **kwargs: Any) -> subprocess.Popen:
    # A process group of its own, so a timeout can stop the fleet's workers too.
    return subprocess.Popen(argv, env=env, cwd=str(ROOT), start_new_session=True, **kwargs)


def _stop(proc: subprocess.Popen, sig: int = signal.SIGKILL, timeout: float = 30.0) -> None:
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _run(argv: List[str], env: Dict[str, str]) -> Tuple[float, int, str]:
    """Run a child to completion: (wall seconds, exit code, stderr tail)."""
    start = time.perf_counter()
    proc = _popen(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        return time.perf_counter() - start, -1, "timed out"
    finally:
        _stop(proc)
    return time.perf_counter() - start, proc.returncode, (err or "")[-2000:]


def _read_spans(paths: List[Path]) -> List[Dict[str, Any]]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.append(json.load(handle))
    return spans


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload = args.workload
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        expected = EXPECTED_REQUEST_S[self.workload]
        self.clients = CLIENTS[self.workload]
        count = MIN_REQUESTS + math.ceil(3 * self.clients * self.seconds / expected)
        self.requests = make_requests(self.workload, args.seed, count)
        self.lock = threading.Lock()
        self.latencies: List[float] = []
        self.loop_s = 0.0
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first_report: Optional[Dict[str, Any]] = None
        self.spans: List[Dict[str, Any]] = []
        self.startup: List[float] = []

    # -- shared -----------------------------------------------------------
    def _repro(self, cli_args: List[str], span_path: Path) -> List[str]:
        if self.trace:
            return [sys.executable, str(HERE / "spans.py"), str(span_path), "--", *cli_args]
        return [sys.executable, "-m", "repro", *cli_args]

    def _record(self, index: int, latency: float, report: Dict[str, Any]) -> None:
        problems = check_report(self.workload, self.requests[index], report)
        if problems:
            raise Failure("; ".join(problems[:5]))
        with self.lock:
            self.latencies.append(latency)
            self.trials += sum(len(e["result"]["trials"]) for e in report["entries"])
            if index == 0:
                self.first_report = report

    def loop(self, send) -> None:
        start = time.perf_counter()
        deadline = start + self.seconds

        def client() -> None:
            while True:
                with self.lock:
                    index = self.attempted
                    late = time.perf_counter() >= deadline and index >= MIN_REQUESTS
                    if late or index >= len(self.requests):
                        return
                    self.attempted += 1
                try:
                    send(index)
                except Exception as failure:  # noqa: BLE001 - a failed request is counted, not fatal
                    with self.lock:
                        self.failed += 1
                        self.problems.append(f"request {index}: {failure!r}")

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.loop_s = time.perf_counter() - start

    def check_identity(self) -> None:
        """The first request, rerun in this process, must match its report."""
        from repro.scenarios.suite import SuiteSpec, deterministic_report_dict, run_suite

        if self.first_report is None:
            self.problems.append("first request produced no report to compare")
            return
        report = run_suite(SuiteSpec.from_dict(self.requests[0]), jobs=1)
        local = json.loads(json.dumps(report.to_dict(), sort_keys=True, default=str))
        if deterministic_report_dict(local) != deterministic_report_dict(self.first_report):
            self.problems.append("in-process rerun of request 0 differs from its report")

    # -- CLI workloads ------------------------------------------------------
    def _manifest(self, index: int) -> Path:
        return self.work / f"request-{index}.json"

    def cli_setup(self) -> float:
        start = time.perf_counter()
        for index, request in enumerate(self.requests):
            with open(self._manifest(index), "w", encoding="utf-8") as handle:
                json.dump(request, handle)
        argv = [sys.executable, "-c", VALIDATE]
        argv += [str(self._manifest(i)) for i in range(len(self.requests))]
        _, code, err = _run(argv, self.env)
        if code != 0:
            raise SystemExit(f"perfbench: request manifests do not load:\n{err}")
        return time.perf_counter() - start

    def cli_request(self, index: int) -> None:
        store = self.work / f"store-{index}"
        out = self.work / f"report-{index}.json"
        span_path = self.work / f"spans-{index}.json"
        cli_args = ["suite", str(self._manifest(index)), "--store", str(store)]
        cli_args += ["--json", str(out), "--quiet"]
        if self.workload == "traffic_fleet":
            cli_args += ["--fleet", str(FLEET_WORKERS)]
        latency, code, err = _run(self._repro(cli_args, span_path), self.env)
        shutil.rmtree(store, ignore_errors=True)
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            raise Failure(f"exit code {code}: {last[0]}")
        with open(out, encoding="utf-8") as handle:
            report = json.load(handle)
        out.unlink()
        self._record(index, latency, report)
        if self.trace:
            workers = sorted(self.work.glob(f"spans-{index}.json.*[0-9]"))
            spans = _read_spans([span_path] + workers)
            with self.lock:
                self.startup.append(latency - spans[0]["in_process_s"])
                self.spans.extend(spans)

    def run_cli(self) -> float:
        repeats = 1 if self.trace else SETUP_REPEATS
        setup_s = statistics.median(self.cli_setup() for _ in range(repeats))
        self.loop(self.cli_request)
        return setup_s

    # -- service ------------------------------------------------------------
    def start_server(self, index: int) -> Tuple[subprocess.Popen, str, float]:
        start = time.perf_counter()
        store = self.work / f"service-store-{index}"
        cli_args = ["serve", "--store", str(store), "--port", "0", "--quiet"]
        cli_args += ["--workers", "1", "--jobs", "2"]
        proc = _popen(
            self._repro(cli_args, self.work / "spans-service.json"),
            self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            prefix = "repro service listening on "
            if not line.startswith(prefix):
                raise SystemExit(f"perfbench: service did not start (got {line!r})")
            url = line[len(prefix):].strip()
            with urllib.request.urlopen(f"{url}/healthz", timeout=30) as response:
                if json.load(response).get("ok") is not True:
                    raise SystemExit("perfbench: service is not healthy")
        except BaseException:
            self.stop_server(proc)
            raise
        return proc, url, time.perf_counter() - start

    def stop_server(self, proc: subprocess.Popen) -> None:
        # SIGTERM is the graceful stop; the traced server writes its spans then.
        _stop(proc, signal.SIGTERM)
        proc.stdout.close()

    def _submit(self, url: str, index: int) -> Tuple[Dict[str, Any], int]:
        body = json.dumps({"suite": self.requests[index]}).encode()
        request = urllib.request.Request(
            f"{url}/v1/jobs", data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            return json.load(response), response.status

    def _fetch(self, url: str, path: str) -> bytes:
        with urllib.request.urlopen(f"{url}{path}", timeout=REQUEST_TIMEOUT_S) as response:
            return response.read()

    def service_request(self, url: str, index: int) -> bytes:
        start = time.perf_counter()
        submitted, status = self._submit(url, index)
        job_id = submitted["job"]["id"]
        if status != 201 or submitted["dedup"] != "new":
            raise Failure(f"submission answered {status} {submitted['dedup']}, expected 201 new")
        state = None
        with urllib.request.urlopen(
            f"{url}/v1/jobs/{job_id}/events", timeout=REQUEST_TIMEOUT_S
        ) as stream:
            for line in stream:
                event = json.loads(line)
                if event["event"] == "state":
                    state = event["state"]
        if state != "done":
            raise Failure(f"job ended in state {state!r}")
        data = self._fetch(url, f"/v1/jobs/{job_id}/report")
        self._record(index, time.perf_counter() - start, json.loads(data))
        return data

    def run_service(self) -> float:
        # Each set-up starts a server on a fresh store; the last one serves the run.
        repeats = 1 if self.trace else SETUP_REPEATS
        setups = []
        for index in range(repeats):
            proc, url, seconds = self.start_server(index)
            setups.append(seconds)
            if index + 1 < repeats:
                self.stop_server(proc)
        try:
            first: Dict[int, bytes] = {}

            def send(index: int) -> None:
                data = self.service_request(url, index)
                if index == 0:
                    first[0] = data

            self.loop(send)
            if 0 in first:
                again, _ = self._submit(url, 0)
                cached = self._fetch(url, f"/v1/jobs/{again['job']['id']}/report")
                if again["dedup"] != "cached" or cached != first[0]:
                    self.problems.append("resubmitted request was not served from the cache")
        finally:
            self.stop_server(proc)
        if self.trace:
            pool = sorted(self.work.glob("spans-service.json.*[0-9]"))
            self.spans = _read_spans([self.work / "spans-service.json"] + pool)
        return statistics.median(setups)

    # -- results ------------------------------------------------------------
    def end_to_end(self, setup_s: float) -> Dict[str, Dict[str, Any]]:
        return {
            "latency_ms": {"value": 1000.0 * statistics.median(self.latencies), "unit": "ms"},
            "trials_per_s": {"value": self.trials / self.loop_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        requests = len(self.latencies)
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for spans in self.spans:
            for key, value in spans["self_s"].items():
                self_s[key] = self_s.get(key, 0.0) + value
            for key, value in spans["calls"].items():
                calls[key] = calls.get(key, 0) + value
            for key, value in spans["counts"].items():
                counts[key] = counts.get(key, 0) + value
        metrics: Dict[str, Dict[str, Any]] = {
            name: {"value": self_s.get(layer, 0.0) / requests, "unit": "s"}
            for name, layer in LAYERS.items()
        }
        if self.workload == SERVICE:
            # The server's outermost span is its whole life, idle time included;
            # what a request spends outside every other span of the server
            # process (not its pool workers) is client wait.
            server = self.spans[0]["self_s"]
            busy = sum(v for k, v in server.items() if k != "cli") / requests
            metrics["client_wait_s"] = {"value": statistics.fmean(self.latencies) - busy, "unit": "s"}
            metrics["cli_other_s"] = {"value": 0.0, "unit": "s"}
            metrics["startup_s"] = {"value": 0.0, "unit": "s"}
            metrics["import_s"] = {"value": 0.0, "unit": "s"}
        else:
            metrics["client_wait_s"] = {"value": 0.0, "unit": "s"}
            metrics["cli_other_s"] = {"value": self_s.get("cli", 0.0) / requests, "unit": "s"}
            metrics["startup_s"] = {"value": statistics.fmean(self.startup), "unit": "s"}
            metrics["import_s"] = {
                "value": sum(s.get("import_s", 0.0) for s in self.spans) / requests,
                "unit": "s",
            }

        def ratio(hits: str, misses: str) -> float:
            total = counts.get(hits, 0) + counts.get(misses, 0)
            return counts.get(hits, 0) / total if total else 0.0

        metrics.update(
            {
                "traced_latency_ms": {
                    "value": 1000.0 * statistics.median(self.latencies),
                    "unit": "ms",
                },
                "trials": {"value": self.trials / requests, "unit": "count"},
                "scheduler_calls": {"value": calls.get("scheduler", 0) / requests, "unit": "count"},
                "resolve_calls": {"value": calls.get("resolve", 0) / requests, "unit": "count"},
                "delta_cache_hit_ratio": {
                    "value": ratio("delta_cache_hits", "delta_cache_misses"),
                    "unit": "ratio",
                },
                "mask_cache_hit_ratio": {
                    "value": ratio("mask_cache_hits", "mask_cache_misses"),
                    "unit": "ratio",
                },
                "decode_cache_entries": {
                    "value": counts.get("decode_cache_entries", 0) / requests,
                    "unit": "count",
                },
            }
        )
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        setup_s = bench.run_service() if args.workload == SERVICE else bench.run_cli()
        if bench.latencies:
            bench.check_identity()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for problem in bench.problems[:5]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not bench.latencies:
        print("perfbench: no request completed", file=sys.stderr)
        return 1
    metrics = bench.per_layer() if args.trace else bench.end_to_end(setup_s)
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
