"""Per-layer span recording around the calls into each layer of ``repro``.

The benchmark runs the program unmodified; with ``--trace 1`` it launches
``python3 perfbench/spans.py OUT.json -- <repro CLI args>`` instead of
``python3 -m repro <repro CLI args>``.  :func:`install` wraps the layer entry
points (module functions and methods, which every caller looks up by name at
call time) and the same CLI ``main`` then runs; the per-layer totals land in
``OUT.json`` when it returns.  Forked fleet workers and the forked process
pool workers of a suite run (``--jobs``) write their own ``OUT.json.<pid>``
files.

A span's *self* time is its duration minus the time of the spans it
encloses, so the self times of one process add up to the time spent inside
the outermost span.  Spans are aggregated in memory as they close
(layer -> self seconds, calls) because a run opens one span per simulated
round in several layers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List

_PROCESS_START = time.perf_counter()


class Recorder:
    """Aggregated spans and counters of one process (thread-safe)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything a forked child inherited: open spans, totals, and
        a lock another thread of the parent may have held at the fork."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
                    self.calls[layer] = self.calls.get(layer, 0) + 1

        return span

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def gauge(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = value

    def dump(self, path: str, **extra: Any) -> None:
        with self._lock:
            payload = {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }
        payload.update(extra)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)


RECORDER = Recorder()


def _patch(owner: Any, name: str, layer: str) -> None:
    """Replace ``owner.name`` by a span-recording wrapper (keeps classmethods)."""
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(RECORDER.wrap(layer, raw.__func__)))
    else:
        setattr(owner, name, RECORDER.wrap(layer, raw))


def _patch_registry(registry: Any, layer: str) -> None:
    """Time the component factories a registry hands out."""
    lookup = registry.get

    def get(name: str) -> Callable[..., Any]:
        return RECORDER.wrap(layer, lookup(name))

    registry.get = get


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _count_caches() -> None:
    from repro.core import seed_groups
    from repro.dualgraph import adversary

    cache = adversary.process_delta_cache()
    RECORDER.gauge("delta_cache_hits", cache.hits)
    RECORDER.gauge("delta_cache_misses", cache.misses)
    RECORDER.gauge("decode_cache_entries", len(seed_groups._DECODE_CACHE))


def install(out_path: str) -> None:
    """Wrap every layer entry point; call before the CLI runs."""
    from repro.dualgraph import adversary
    from repro.scenarios import cli, fleet, jobs, runtime, service, spec, store, suite
    from repro.scenarios.registry import ALGORITHMS, TOPOLOGIES
    from repro.simulation import engine
    from repro.traffic import environment as traffic_environment
    from repro.traffic import schedulers as _traffic_schedulers  # noqa: F401  (scheduler subclasses)

    # spec parsing and validation (suite workers re-parse each task's spec)
    _patch(suite.SuiteSpec, "from_dict", "spec")
    _patch(spec.ScenarioSpec, "from_dict", "spec")
    # topology generation, algorithm construction, the rest of materialize
    _patch_registry(TOPOLOGIES, "topology")
    _patch_registry(ALGORITHMS, "algorithm_build")
    _patch(runtime, "materialize", "materialize")
    # scheduler decisions: the uncached per-round delta and per-edge queries
    for cls in [adversary.LinkScheduler] + _subclasses(adversary.LinkScheduler):
        for name in ("_compute_unreliable_edge_ids", "unreliable_edge_included"):
            if name in cls.__dict__:
                _patch(cls, name, "scheduler")
    # the engine round loop, its reception-resolution section, and the traffic
    # environment's per-round arrivals and queue dequeues
    _patch(engine.Simulator, "run", "engine")
    _patch(engine.Simulator, "_resolve_receptions", "resolve")
    _patch(traffic_environment.QueuedEnvironment, "_wanted_submissions", "traffic")
    # the scheduler-delta prebuild pass (suite imports it by name)
    _patch(runtime, "prebuild_delta_table", "prebuild")
    _patch(suite, "prebuild_delta_table", "prebuild")
    # metric reduction: per-trial counters and evaluation, per-entry and
    # per-group pooling
    _patch(runtime, "_trial_metrics", "metrics")
    _patch(runtime, "evaluate_metrics", "metrics")
    _patch(suite, "_assemble_report", "metrics")
    _patch(fleet, "_assemble_report", "metrics")
    # result-store I/O
    _patch(store.ResultStore, "get", "store")
    _patch(store.ResultStore, "put", "store")
    # report serialization
    _patch(suite.SuiteReport, "to_dict", "report")
    # fleet coordinator (fork, lease board, polling) and workers (leases)
    _patch(cli, "run_suite_fleet", "fleet_coordinator")
    _patch(fleet, "_fleet_worker_main", "fleet_worker")
    worker_main = fleet._fleet_worker_main

    def traced_worker(*args: Any) -> int:
        RECORDER.reset()
        try:
            return worker_main(*args)
        finally:
            _count_caches()
            RECORDER.dump(f"{out_path}.{os.getpid()}")

    fleet._fleet_worker_main = traced_worker
    # suite tasks on a run_suite(jobs=N) process pool: forked workers find this
    # wrapper by name when the task function is unpickled
    run_task = suite.run_suite_task
    parent_pid = os.getpid()
    seen_pid = {"pid": parent_pid}

    @functools.wraps(run_task)
    def traced_task(*args: Any, **kwargs: Any) -> Any:
        pid = os.getpid()
        if pid != seen_pid["pid"]:
            seen_pid["pid"] = pid
            RECORDER.reset()
        try:
            return run_task(*args, **kwargs)
        finally:
            if pid != parent_pid:
                _count_caches()
                RECORDER.dump(f"{out_path}.{pid}")

    suite.run_suite_task = traced_task
    # service: submission (parse + journal fsync), job execution, report I/O
    _patch(service.ScenarioService, "_submit", "service_submit")
    _patch(service.ScenarioService, "_report", "service_report")
    _patch(jobs.JobManager, "_execute_sync", "service_job")
    _patch(jobs.JobManager, "_journal_append", "service_journal")
    _patch(jobs.JobManager, "_write_report", "service_persist")

    # outcomes of the process-wide scheduled-edge mask memo
    mask_cache = engine._SCHED_MASK_CACHE
    scheduled_mask = engine.Simulator._scheduled_edge_mask

    def counted_mask(self: Any, round_number: int) -> int:
        hit = (self._sched_mask_key, round_number) in mask_cache
        RECORDER.count("mask_cache_hits" if hit else "mask_cache_misses")
        return scheduled_mask(self, round_number)

    engine.Simulator._scheduled_edge_mask = counted_mask


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <repro CLI arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import_start = time.perf_counter()
    from repro.scenarios import cli

    install(out_path)
    import_s = time.perf_counter() - import_start
    status = 1
    try:
        status = RECORDER.wrap("cli", cli.main)(cli_args)
    finally:
        _count_caches()
        RECORDER.dump(
            out_path,
            import_s=import_s,
            in_process_s=time.perf_counter() - _PROCESS_START,
            status=status,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
