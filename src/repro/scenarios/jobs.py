"""The scenario service's async job queue: dedup, durability, retry, shutdown.

:class:`JobManager` is the serving-layer core behind ``python -m repro serve``
(:mod:`repro.scenarios.service` puts HTTP in front of it).  It accepts
:class:`~repro.scenarios.suite.SuiteSpec` submissions and guarantees:

* **in-flight dedup** -- a submission whose suite fingerprint matches a
  queued or running job *attaches* to that job instead of enqueuing a second
  execution; every attached client observes the same progress stream and the
  same report bytes;
* **at-rest dedup** -- a submission whose fingerprint already has a
  persisted report under the store (``<store>/suite/<fp>/report.json``) is
  answered instantly from that file, byte for byte, with zero trials
  recomputed;
* **durability** -- accepted jobs are journaled (fsynced) to
  ``<store>/service/jobs.jsonl`` *before* the submission is acknowledged,
  and every executed trial lands (fsynced) in the content-addressed
  :class:`~repro.scenarios.store.ResultStore`, which is the checkpoint, so
  a killed server loses at most the in-flight trials:
  :meth:`JobManager.recover` re-enqueues every accepted-but-unfinished job
  on startup and the re-run execution serves finished trials from the store;
* **robustness** -- a crashed or timed-out execution attempt is retried with
  exponential backoff up to ``retries`` times, each attempt serving what
  the previous one finished from the store; cooperative cancellation and
  graceful shutdown ride the :class:`~repro.scenarios.suite.SuiteCancelled` hook
  (shutdown re-queues the interrupted job *without* journaling completion,
  so the next server run picks it up).

Every execution attempt is one :func:`repro.scenarios.suite.run_suite` call:
a bounded pool of worker tasks each drives one suite at a time in a thread
(keeping the asyncio loop free), fanning that suite's trials out over
``run_suite``'s process pool when the ``jobs`` option asks for more than one.

Fault injection (test harness)
------------------------------
The ``REPRO_SERVICE_FAULT`` environment variable arms a deliberately broken
execution path for the fault-injection tests (``tests/service/``):

* ``crash:N`` -- the *first* attempt of each job raises after ``N`` executed
  tasks (exercises retry + resume from the store inside one server life);
* ``exit:N`` -- the process hard-exits (``os._exit``) after ``N`` executed
  tasks, once per process (exercises server kill + journal recovery).

Production deployments leave the variable unset.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.scenarios.spec import ScenarioSpec, _reject_unknown_keys
from repro.scenarios.store import ResultStore
from repro.scenarios.suite import (
    SuiteCancelled,
    SuiteEntry,
    SuiteSpec,
    _flatten_tasks,
    run_suite,
)

#: Terminal job states (a job in one of these never changes again).
#: ``rejected`` is the backpressure outcome: the submission was refused at
#: the door (HTTP 429), never journaled, never enqueued.
TERMINAL_STATES = ("done", "failed", "cancelled", "rejected")
JOB_STATES = ("queued", "running") + TERMINAL_STATES

#: Submission options accepted by :func:`parse_submission`.  ``fleet`` is a
#: retired key: older clients and journals carry it, so it is accepted and
#: dropped (every job runs on ``run_suite``'s pool).
_SUBMIT_OPTION_KEYS = ("jobs", "prebuild", "fleet")


class JobRejected(ValueError):
    """A submission payload the service refuses (maps to HTTP 400)."""


@dataclass
class FaultPlan:
    """Parsed ``REPRO_SERVICE_FAULT`` plan (see the module docstring)."""

    kind: str  # "crash" | "exit"
    after_tasks: int

    @classmethod
    def from_env(cls, value: Optional[str]) -> Optional["FaultPlan"]:
        if not value:
            return None
        kind, sep, after = value.partition(":")
        if kind not in ("crash", "exit") or not sep:
            raise ValueError(
                f"REPRO_SERVICE_FAULT must look like 'crash:N' or 'exit:N', got {value!r}"
            )
        return cls(kind=kind, after_tasks=int(after))


class InjectedFault(RuntimeError):
    """Raised by the ``crash:N`` fault plan (a stand-in for a worker crash)."""


def parse_submission(payload: Any) -> Tuple[SuiteSpec, Dict[str, Any]]:
    """Validate a submission body into ``(suite, options)``.

    The body is a JSON object carrying exactly one of ``"suite"`` (a suite
    manifest in its fully-inline form) or ``"scenario"`` (a single scenario
    spec, wrapped into a one-entry suite named after it), plus an optional
    ``"options"`` object (``jobs``: per-suite worker processes, a JSON
    integer >= 1; ``prebuild``: scheduler-delta prebuild toggle; the retired
    ``fleet`` key is accepted and dropped).  Anything else -- unknown keys,
    both or neither spec forms, malformed spec trees -- raises
    :class:`JobRejected` with the underlying validation message, which the
    HTTP layer returns as the 400 error body.
    """
    if not isinstance(payload, Mapping):
        raise JobRejected(
            f"submission body must be a JSON object, got {type(payload).__name__}"
        )
    try:
        _reject_unknown_keys(payload, ("suite", "scenario", "options"), "job submission")
        if ("suite" in payload) == ("scenario" in payload):
            raise JobRejected(
                "job submission needs exactly one of 'suite' or 'scenario'"
            )
        if "suite" in payload:
            suite = SuiteSpec.from_dict(payload["suite"])
        else:
            spec = ScenarioSpec.from_dict(payload["scenario"])
            suite = SuiteSpec(
                name=f"scenario:{spec.name}",
                entries=(SuiteEntry(id=spec.name, scenario=spec),),
            )
        options = payload.get("options")
        if options is not None and not isinstance(options, Mapping):
            raise JobRejected(f"options must be a JSON object, got {type(options).__name__}")
        options = dict(options or {})
        _reject_unknown_keys(options, _SUBMIT_OPTION_KEYS, "submission options")
        options.pop("fleet", None)
        if "jobs" in options:
            jobs = options["jobs"]
            if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
                raise JobRejected("options.jobs must be a positive integer")
        if "prebuild" in options:
            if not isinstance(options["prebuild"], bool):
                raise JobRejected("options.prebuild must be a boolean")
    except JobRejected:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise JobRejected(str(exc)) from None
    return suite, options


@dataclass
class Job:
    """One accepted suite execution (or a cache-served stand-in for one)."""

    id: str
    suite: SuiteSpec
    fingerprint: str
    options: Dict[str, Any] = field(default_factory=dict)
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    #: Latest progress snapshot (the last "plan"/"task" event's payload).
    progress: Dict[str, Any] = field(default_factory=dict)
    #: How this job came to be: "submit", "recovered" (journal replay), or
    #: "cache" (synthetic done-job fronting a persisted report).
    origin: str = "submit"
    cancel_requested: bool = False
    #: Live event queues of attached ``/events`` streams.
    subscribers: List[asyncio.Queue] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def task_count(self) -> int:
        return len(_flatten_tasks(self.suite))

    def describe(self) -> Dict[str, Any]:
        """The JSON descriptor the HTTP API serves for this job."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "suite": {
                "name": self.suite.name,
                "entries": len(self.suite.entries),
                "tasks": self.task_count,
            },
            "options": dict(self.options),
            "origin": self.origin,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "progress": dict(self.progress),
            "cancel_requested": self.cancel_requested,
        }


class JobManager:
    """The asyncio job queue: bounded workers over durable, deduped jobs.

    Parameters
    ----------
    store:
        A :class:`~repro.scenarios.store.ResultStore` (or its root path).
        Required: it provides at-rest dedup, the report cache, the job
        journal's home, and the trial-level checkpoint of every execution.
    workers:
        Concurrent suite executions (asyncio worker tasks, each driving one
        blocking :func:`~repro.scenarios.suite.run_suite` in a thread).
    retries:
        Extra execution attempts after a crashed/timed-out first attempt.
    backoff_s:
        First retry delay; doubles per subsequent attempt.
    timeout_s:
        Per-attempt wall-clock budget (``None`` = unlimited).  A timed-out
        attempt is cancelled cooperatively and retried; the retry serves
        the finished trials from the store.
    default_jobs / default_prebuild:
        Per-suite execution defaults when a submission carries no options.
    max_pending_tasks:
        Queue-depth backpressure: a submission whose tasks would push the
        total pending-task backlog (queued + running jobs) past this bound
        is *rejected* -- a terminal ``"rejected"`` job the HTTP layer maps
        to 429, never journaled or enqueued.  ``None`` disables the bound.
    """

    def __init__(
        self,
        store: Any,
        workers: int = 2,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
        default_jobs: int = 1,
        default_prebuild: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        max_pending_tasks: Optional[int] = None,
    ) -> None:
        coerced = ResultStore.coerce(store)
        if coerced is None:
            raise ValueError("JobManager needs a result store (got None)")
        self.store = coerced
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.timeout_s = timeout_s
        self.default_jobs = max(1, int(default_jobs))
        self.default_prebuild = bool(default_prebuild)
        self.fault_plan = fault_plan
        self.max_pending_tasks = (
            None if max_pending_tasks is None else max(1, int(max_pending_tasks))
        )
        self.started_at = time.time()
        self.stopping = False

        self.jobs: "Dict[str, Job]" = {}
        self._inflight: Dict[str, Job] = {}  # fingerprint -> queued/running job
        self._latest_by_fp: Dict[str, Job] = {}  # fingerprint -> most recent job
        self._ids = itertools.count(1)
        self._queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue()
        self._worker_tasks: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._fault_armed_jobs: set = set()
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "dedup_inflight": 0,
            "dedup_cached": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "retries": 0,
            "recovered": 0,
            "rejected": 0,
        }

    # ------------------------------------------------------------------
    # on-disk layout (inside the store root)
    # ------------------------------------------------------------------
    @property
    def service_dir(self) -> str:
        return os.path.join(self.store.root, "service")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.service_dir, "jobs.jsonl")

    def suite_dir(self, fingerprint: str) -> str:
        """Where a fingerprint's persisted report lives: ``<store>/suite/<fp>/``."""
        return os.path.join(self.store.root, "suite", fingerprint)

    def report_path(self, fingerprint: str) -> str:
        return os.path.join(self.suite_dir(fingerprint), "report.json")

    # ------------------------------------------------------------------
    # the accepted-job journal
    # ------------------------------------------------------------------
    def _journal_append(self, payload: Mapping[str, Any]) -> None:
        os.makedirs(self.service_dir, exist_ok=True)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _journal_accept(self, job: Job) -> None:
        self._journal_append(
            {
                "op": "accept",
                "job": job.id,
                "fingerprint": job.fingerprint,
                "options": dict(job.options),
                "suite": job.suite.to_dict(),
            }
        )

    def _journal_close(self, job: Job) -> None:
        self._journal_append({"op": "close", "job": job.id, "state": job.state})

    def _read_journal(self) -> List[Dict[str, Any]]:
        entries: List[Dict[str, Any]] = []
        try:
            handle = open(self.journal_path, "r", encoding="utf-8")
        except FileNotFoundError:
            return entries
        with handle:
            skipped = 0
            for line in handle:
                if not line.strip():
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    skipped += 1  # torn tail from a kill mid-append
            if skipped:
                warnings.warn(
                    f"job journal {self.journal_path}: skipped {skipped} unreadable "
                    "line(s) (expected after a kill mid-append)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return entries

    def recover(self) -> List[Job]:
        """Re-enqueue every accepted-but-unfinished job from the journal.

        Called by :meth:`start` before the workers spin up.  Jobs whose
        report already landed (killed between report write and journal
        close) are closed without re-running; everything else is re-created
        in ``queued`` state with origin ``"recovered"``.  The journal is
        compacted to just the still-open accepts.
        """
        entries = self._read_journal()
        open_accepts: Dict[str, Dict[str, Any]] = {}
        for entry in entries:
            if entry.get("op") == "accept" and isinstance(entry.get("job"), str):
                open_accepts[entry["job"]] = entry
            elif entry.get("op") == "close":
                open_accepts.pop(entry.get("job"), None)
        recovered: List[Job] = []
        for entry in open_accepts.values():
            try:
                suite = SuiteSpec.from_dict(entry["suite"])
            except (KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"job journal: dropping unreadable accepted job "
                    f"{entry.get('job')!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            options = dict(entry.get("options", {}))
            options.pop("fleet", None)  # the retired key, see _SUBMIT_OPTION_KEYS
            job = Job(
                id=entry["job"],
                suite=suite,
                fingerprint=suite.fingerprint(),
                options=options,
                origin="recovered",
            )
            recovered.append(job)
        # Compact: rewrite the journal with only the still-open accepts, so
        # it never grows without bound across restarts.
        if entries:
            os.makedirs(self.service_dir, exist_ok=True)
            tmp = self.journal_path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                for entry in open_accepts.values():
                    handle.write(
                        json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.journal_path)
        for job in recovered:
            if os.path.exists(self.report_path(job.fingerprint)):
                # Finished before the kill; only the journal close was lost.
                job.state = "done"
                job.finished_at = time.time()
                self.jobs[job.id] = job
                self._latest_by_fp[job.fingerprint] = job
                self._journal_close(job)
                continue
            if job.fingerprint in self._inflight:
                # Two journaled accepts of one fingerprint: the first is
                # already enqueued, so the extra accept is redundant --
                # close it like a live duplicate submission would dedup it.
                self._journal_append(
                    {"op": "close", "job": job.id, "state": "superseded"}
                )
                continue
            self.counters["recovered"] += 1
            self.jobs[job.id] = job
            self._latest_by_fp[job.fingerprint] = job
            self._inflight[job.fingerprint] = job
            self._queue.put_nowait(job)
        return [job for job in recovered if job.id in self.jobs and not job.terminal]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.recover()
        for _ in range(self.workers):
            self._worker_tasks.append(asyncio.create_task(self._worker()))

    async def shutdown(self) -> None:
        """Graceful stop: interrupt running jobs at the next task boundary.

        Running executions raise :class:`SuiteCancelled` via their
        ``should_stop`` hook; their stored trials and journal accepts
        survive, so the next server run resumes them with at most the
        in-flight trials recomputed.
        """
        self.stopping = True
        for _ in self._worker_tasks:
            self._queue.put_nowait(None)
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks.clear()

    # ------------------------------------------------------------------
    # submission / dedup
    # ------------------------------------------------------------------
    def submit(self, suite: SuiteSpec, options: Optional[Mapping[str, Any]] = None) -> Tuple[Job, str]:
        """Accept (or dedup) one suite; returns ``(job, disposition)``.

        Disposition is ``"new"`` (journaled and enqueued), ``"inflight"``
        (attached to an identical queued/running job), ``"cached"``
        (answered by the fingerprint's persisted report) or ``"rejected"``
        (queue-depth backpressure: the pending-task backlog would exceed
        ``max_pending_tasks``; the returned job is terminal in state
        ``"rejected"``, never journaled or enqueued -- the HTTP layer maps
        it to 429).  Dedup never rejects: attaching to in-flight work or a
        cached report adds no load.  Must be called on the event loop; the
        journal fsync happens before this returns, so an acknowledged
        submission is already durable.
        """
        if self.stopping:
            raise JobRejected("service is shutting down; resubmit to the next instance")
        self.counters["submitted"] += 1
        fingerprint = suite.fingerprint()
        inflight = self._inflight.get(fingerprint)
        if inflight is not None and not inflight.terminal:
            self.counters["dedup_inflight"] += 1
            return inflight, "inflight"
        if os.path.exists(self.report_path(fingerprint)):
            self.counters["dedup_cached"] += 1
            cached = self._latest_by_fp.get(fingerprint)
            if cached is not None and cached.state == "done":
                return cached, "cached"
            job = Job(
                id=self._next_id(),
                suite=suite,
                fingerprint=fingerprint,
                state="done",
                origin="cache",
                finished_at=time.time(),
            )
            self.jobs[job.id] = job
            self._latest_by_fp[fingerprint] = job
            return job, "cached"
        if self.max_pending_tasks is not None:
            pending = self._pending_tasks()
            incoming = len(_flatten_tasks(suite))
            if pending + incoming > self.max_pending_tasks:
                self.counters["rejected"] += 1
                job = Job(
                    id=self._next_id(),
                    suite=suite,
                    fingerprint=fingerprint,
                    options=dict(options or {}),
                    state="rejected",
                    finished_at=time.time(),
                    error=(
                        f"queue backpressure: {pending} task(s) already pending "
                        f"+ {incoming} submitted would exceed the "
                        f"max_pending_tasks bound of {self.max_pending_tasks}; "
                        "retry once the backlog drains"
                    ),
                )
                self.jobs[job.id] = job
                return job, "rejected"
        job = Job(
            id=self._next_id(),
            suite=suite,
            fingerprint=fingerprint,
            options=dict(options or {}),
        )
        self._journal_accept(job)
        self.jobs[job.id] = job
        self._inflight[fingerprint] = job
        self._latest_by_fp[fingerprint] = job
        self._queue.put_nowait(job)
        return job, "new"

    def _next_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _pending_tasks(self) -> int:
        """Tasks not yet done across every queued/running job (the backlog)."""
        pending = 0
        for job in self.jobs.values():
            if job.terminal:
                continue
            total = int(job.progress.get("total", job.task_count))
            done = int(job.progress.get("done", 0))
            pending += max(total - done, 0)
        return pending

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def cancel(self, job: Job) -> bool:
        """Request cancellation; returns whether the job was still live.

        A queued job is finalized immediately; a running one stops at its
        next task boundary (its finished trials stay in the store, so a
        resubmission of the same fingerprint resumes rather than restarts).
        """
        if job.terminal:
            return False
        job.cancel_requested = True
        if job.state == "queued":
            self._finalize(job, "cancelled")
        return True

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, job: Job) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(queue)
        return queue

    def unsubscribe(self, job: Job, queue: asyncio.Queue) -> None:
        try:
            job.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        """Record and fan one event out to every attached stream (loop only)."""
        event = {"job": job.id, **event}
        if event.get("event") in ("plan", "task"):
            # Merge, not replace: the "plan" keys (tasks/hits/misses) stay
            # visible in the descriptor while "task" events tick done/total
            # forward.
            job.progress.update(
                {
                    key: event[key]
                    for key in ("tasks", "hits", "misses", "done", "total")
                    if key in event
                }
            )
        for queue in list(job.subscribers):
            queue.put_nowait(event)

    def _publish_threadsafe(self, job: Job, event: Dict[str, Any]) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._publish, job, event)
        except RuntimeError:  # loop torn down mid-call
            pass

    def _finalize(self, job: Job, state: str, error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        job.finished_at = time.time()
        if self._inflight.get(job.fingerprint) is job:
            self._inflight.pop(job.fingerprint, None)
        counter = {"done": "completed", "failed": "failed", "cancelled": "cancelled"}[state]
        self.counters[counter] += 1
        self._journal_close(job)
        self._publish(job, {"event": "state", "state": state, "error": error})

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None or self.stopping:
                return
            if job.terminal:  # cancelled while queued
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None
        job.state = "running"
        job.started_at = time.time()
        self._publish(job, {"event": "state", "state": "running"})
        attempt = 0
        while True:
            attempt += 1
            job.attempts = attempt
            stop_flag = {"stop": False}
            future = self._loop.run_in_executor(None, self._execute_sync, job, stop_flag)
            _done, pending = await asyncio.wait({future}, timeout=self.timeout_s)
            if pending:
                # Per-attempt timeout: stop the thread cooperatively at its
                # next task boundary (its finished records stay durable in
                # the store), then retry, which serves them from there.
                stop_flag["stop"] = True
                try:
                    await future
                except BaseException:  # noqa: BLE001 - drained, outcome is "timeout"
                    pass
                if not self._retry_or_fail(
                    job, attempt, f"attempt timed out after {self.timeout_s}s"
                ):
                    return
                await asyncio.sleep(self.backoff_s * (2 ** (attempt - 1)))
                continue
            try:
                report_dict = future.result()
            except SuiteCancelled:
                if self.stopping and not job.cancel_requested:
                    # Graceful shutdown: the job stays accepted (no journal
                    # close), its stored trials survive -> recovered next run.
                    job.state = "queued"
                    job.started_at = None
                    self._publish(job, {"event": "state", "state": "queued"})
                else:
                    self._finalize(job, "cancelled")
                return
            except Exception as exc:  # noqa: BLE001 - crashed attempt
                if not self._retry_or_fail(job, attempt, f"{type(exc).__name__}: {exc}"):
                    return
                await asyncio.sleep(self.backoff_s * (2 ** (attempt - 1)))
                continue
            self._write_report(job.fingerprint, report_dict)
            self._finalize(job, "done")
            return

    def _retry_or_fail(self, job: Job, attempt: int, error: str) -> bool:
        """Account one failed attempt; True when another attempt should run."""
        if job.cancel_requested or self.stopping:
            if self.stopping and not job.cancel_requested:
                job.state = "queued"
                job.started_at = None
            else:
                self._finalize(job, "cancelled")
            return False
        if attempt > self.retries:
            self._finalize(job, "failed", error=error)
            return False
        self.counters["retries"] += 1
        self._publish(job, {"event": "retry", "attempt": attempt, "error": error})
        return True

    def _execute_sync(self, job: Job, stop_flag: Dict[str, bool]) -> Dict[str, Any]:
        """One blocking execution attempt (runs in a worker thread)."""
        fault = self._arm_fault(job)
        executed = 0

        def on_progress(event: Dict[str, Any]) -> None:
            nonlocal executed
            if event.get("event") == "task":
                executed += 1
                if fault is not None and executed >= fault.after_tasks:
                    if fault.kind == "exit":
                        os._exit(70)  # simulated hard worker death
                    raise InjectedFault(
                        f"injected crash after {executed} executed task(s)"
                    )
            self._publish_threadsafe(job, event)

        def should_stop() -> bool:
            return stop_flag["stop"] or job.cancel_requested or self.stopping

        report = run_suite(
            job.suite,
            jobs=int(job.options.get("jobs", self.default_jobs)),
            prebuild=bool(job.options.get("prebuild", self.default_prebuild)),
            store=self.store,
            on_progress=on_progress,
            should_stop=should_stop,
        )
        return report.to_dict()

    def _arm_fault(self, job: Job) -> Optional[FaultPlan]:
        """The fault plan for this attempt, if armed (first attempt only for
        ``crash``; once per process for ``exit``)."""
        plan = self.fault_plan
        if plan is None:
            return None
        if plan.kind == "crash":
            return plan if job.attempts <= 1 else None
        if job.id in self._fault_armed_jobs:
            return None
        self._fault_armed_jobs.add(job.id)
        return plan

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def _write_report(self, fingerprint: str, report_dict: Mapping[str, Any]) -> str:
        """Persist the report atomically; its bytes are what every client gets."""
        path = self.report_path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(report_dict, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    def report_bytes(self, job: Job) -> Optional[bytes]:
        """The persisted report of a done job, verbatim (``None`` until done)."""
        if job.state != "done":
            return None
        try:
            with open(self.report_path(job.fingerprint), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {state: 0 for state in JOB_STATES}
        backlog: Dict[str, Dict[str, Any]] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
            if job.terminal:
                continue
            # Per-job backlog: total comes from the live progress snapshot
            # once a "plan" event landed, the flattened suite before that.
            total = int(job.progress.get("total", job.task_count))
            done = int(job.progress.get("done", 0))
            backlog[job.id] = {
                "state": job.state,
                "tasks_total": total,
                "tasks_done": done,
                "tasks_pending": max(total - done, 0),
            }
        backlog_tasks = sum(b["tasks_pending"] for b in backlog.values())
        return {
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "inflight": len(self._inflight),
            "jobs": states,
            "backlog": backlog,
            "backlog_tasks": backlog_tasks,
            "max_pending_tasks": self.max_pending_tasks,
            "utilization": (
                min(1.0, backlog_tasks / self.max_pending_tasks)
                if self.max_pending_tasks
                else None
            ),
            "counters": dict(self.counters),
            "store": self.store.stats(),
        }
