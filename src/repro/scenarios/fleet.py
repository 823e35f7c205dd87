"""Fleet suite execution: multi-process work-stealing over leased task chunks.

:func:`run_suite_fleet` spreads a suite over N OS processes by *dynamic
leasing*: the coordinator chunks the suite's canonical ``(entry, trial)``
task list, writes a board file, and spawns N independent OS processes that
race to claim chunks one at a time.
A fast worker that drains its chunk simply claims another; a straggling chunk
never blocks more than the one worker holding it.

Leases are plain files under ``<store>/suite/<fingerprint>/leases/``, written
with the same POSIX ``flock`` + fsync idiom as the
:class:`~repro.scenarios.store.ResultStore` buckets:

* **claim** is an atomic ``os.link`` of a fully-written temp file onto the
  lease path -- either the link lands (the chunk is yours, content and all)
  or ``FileExistsError`` says someone else got there first;
* **progress** (per-task done marks + a heartbeat timestamp) rewrites the
  lease in place under an exclusive lock, after re-reading it to verify the
  worker still owns it;
* **stealing** takes the exclusive lock, re-reads, and re-owns the lease only
  if its heartbeat is older than the TTL -- so a worker that dies (crash,
  SIGKILL, OOM) has its chunk reclaimed by survivors, while a live worker's
  lease is never touched;
* **failure** -- a task whose runner raises is recorded in its lease (task,
  entry id, trial, exception type, message, traceback) and the lease turns
  ``failed``: it is never stolen, because trials are deterministic and a
  retry would raise again.  The coordinator stops the other workers and
  raises :class:`FleetTaskError` naming the task.

Correctness never depends on the TTL: executed records land in the
content-addressed result store *before* the lease is updated, workers consult
the store before executing a task, and a duplicated execution (a steal racing
a slow-but-alive owner) writes byte-identical records resolved
last-write-wins.  The store is therefore both the result channel and the
only checkpoint -- re-running a killed fleet skips everything that finished.

The merged :class:`~repro.scenarios.suite.SuiteReport` assembles through the
same :func:`~repro.scenarios.suite._assemble_report` path as serial runs, so
its deterministic content
(:func:`~repro.scenarios.suite.deterministic_report_dict`) is byte-identical
to ``run_suite``'s no matter which worker executed which task, how many died,
or how work was stolen.

``task_runner`` is an injectable seam (a module-level callable executed *in
the worker processes*; the default runs
:func:`repro.scenarios.runtime.trial_record`).  The throughput benchmark uses
it to model skewed per-task latency identically under serial and fleet
execution, and the fault-injection tests use it to hold a worker inside a
task long enough to SIGKILL it deterministically.  Workers are forked, so the
callable needs no pickling -- but it must be installed before
:func:`run_suite_fleet` is called.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dualgraph.adversary import preload_process_delta_cache
from repro.scenarios.runtime import trial_record
from repro.scenarios.spec import ScenarioSpec, _json_canonical
from repro.scenarios.store import (
    ResultStore,
    _flock,
    _locked_bucket_reader,
    _same_inode,
)
from repro.scenarios.suite import (
    SuiteCancelled,
    SuiteReport,
    SuiteSpec,
    SuiteTaskError,
    _assemble_report,
    _flatten_tasks,
    _plan_tasks,
    _prebuild_pending_deltas,
    _task_failure,
)

#: Version tag written into every board and lease file, so a future layout
#: change fails loudly instead of silently mixing protocols.
FLEET_PROTOCOL_VERSION = 1

#: Default seconds without a heartbeat before a lease counts as abandoned.
#: Purely an efficiency knob (how fast survivors reclaim a dead worker's
#: chunk): a too-short TTL at worst duplicates work, never corrupts it,
#: because records are content-addressed and byte-identical.
DEFAULT_LEASE_TTL_S = 5.0

#: Lease states that end a chunk's life: nobody claims or steals it again.
_SETTLED_STATES = ("done", "failed")


class FleetTaskError(SuiteTaskError):
    """A fleet task's runner raised: the run stops and names the task.

    ``failure`` is the record the failing worker wrote into its lease
    (:class:`~repro.scenarios.suite.SuiteTaskError`'s fields plus the
    worker's ``traceback``); ``steals`` counts lease steals observed before
    the failure.  Records completed before the failure stay in the caller's
    result store; a run without one used a private temporary store, which is
    deleted.
    """

    def __init__(self, failure: Dict[str, Any], steals: int) -> None:
        self.steals = steals
        super().__init__(
            failure,
            "fleet",
            f"\n--- worker traceback ---\n{failure.get('traceback', '').rstrip()}",
        )


def default_task_runner(spec: ScenarioSpec, trial_index: int) -> Dict[str, Any]:
    """The production task runner: one trial through the standard pipeline.

    Module-level so fleet workers (forked) and benchmark wrappers can both
    reference it; identical to what ``run_suite``'s pool workers execute, so
    fleet records match serial records byte for byte.
    """
    return trial_record(spec, trial_index)


# ----------------------------------------------------------------------
# lease files
# ----------------------------------------------------------------------
def fleet_run_dir(store_root: str, fingerprint: str) -> str:
    """The per-suite fleet directory: ``<store>/suite/<fingerprint>``."""
    return os.path.join(store_root, "suite", fingerprint)


def _board_path(leases_dir: str) -> str:
    return os.path.join(leases_dir, "board.json")


def _lease_path(leases_dir: str, chunk_index: int) -> str:
    return os.path.join(leases_dir, f"chunk-{chunk_index:05d}.json")


def _write_fsynced(path: str, payload: Dict[str, Any]) -> None:
    """Write a whole JSON file durably (write + flush + fsync)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_canonical(payload) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Parse a JSON file under a shared lock; ``None`` if missing/torn.

    Live writers rewrite leases under the exclusive lock, so a shared-locked
    read never sees their half-written state; a file torn by a kill
    mid-rewrite parses as ``None`` and is handled by the caller's
    mtime-based expiry.
    """
    with _locked_bucket_reader(path) as handle:
        if handle is None:
            return None
        try:
            data = json.load(handle)
        except ValueError:
            return None
    return data if isinstance(data, dict) else None


def _lease_expired(lease: Optional[Dict[str, Any]], path: str, ttl_s: float) -> bool:
    """Whether a lease counts as abandoned (heartbeat or mtime older than TTL)."""
    now = time.time()
    if lease is None:
        # Torn by a kill mid-rewrite: fall back to the file's mtime as the
        # last sign of life.
        try:
            return now - os.stat(path).st_mtime > ttl_s
        except FileNotFoundError:
            return False
    try:
        heartbeat = float(lease.get("heartbeat", 0.0))
    except (TypeError, ValueError):
        heartbeat = 0.0
    return now - heartbeat > ttl_s


def _try_create_lease(
    leases_dir: str, chunk_index: int, task_ids: Sequence[int], owner: str
) -> bool:
    """Atomically claim an unclaimed chunk: link a fully-written temp file.

    ``os.link`` either materializes the lease -- content, heartbeat and all,
    never observable half-written -- or raises ``FileExistsError`` because a
    rival linked first.  (O_CREAT|O_EXCL would claim an *empty* file and open
    a window where readers see a claimed-but-contentless lease.)
    """
    path = _lease_path(leases_dir, chunk_index)
    if os.path.exists(path):
        return False
    payload = {
        "lease": FLEET_PROTOCOL_VERSION,
        "chunk": chunk_index,
        "tasks": list(task_ids),
        "owner": owner,
        "heartbeat": time.time(),
        "done": [],
        "state": "leased",
        "steals": 0,
    }
    fd, tmp = tempfile.mkstemp(prefix=f"claim-{chunk_index}-", dir=leases_dir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_json_canonical(payload) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
    finally:
        os.unlink(tmp)


def _update_lease(
    leases_dir: str,
    chunk_index: int,
    owner: str,
    mutate: Callable[[Dict[str, Any]], Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Rewrite a lease in place under the exclusive lock, if still owned.

    Re-reads the lease with the lock held and hands it to ``mutate``; a
    ``None`` return (wrong owner, already done, torn file) aborts without
    writing.  Returns the written lease, or ``None`` on abort.  The rewrite
    is flushed and fsynced before the lock drops, so the next locked reader
    sees either the old complete state or the new complete state.
    """
    path = _lease_path(leases_dir, chunk_index)
    while True:
        try:
            handle = open(path, "r+", encoding="utf-8")
        except FileNotFoundError:
            return None
        _flock(handle, exclusive=True)
        if not _same_inode(handle, path):
            handle.close()
            continue
        break
    with handle:
        try:
            lease = json.load(handle)
        except ValueError:
            lease = None
        if not isinstance(lease, dict):
            lease = None
        if lease is not None and lease.get("owner") != owner:
            return None
        updated = mutate(lease if lease is not None else {})
        if updated is None:
            return None
        handle.seek(0)
        handle.truncate()
        handle.write(_json_canonical(updated) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return updated


def _try_steal_lease(
    leases_dir: str, chunk_index: int, ttl_s: float, new_owner: str
) -> Optional[Dict[str, Any]]:
    """Re-own an abandoned lease; ``None`` if it is done, live, or contested.

    Takes the exclusive lock, re-reads, and re-checks expiry *under the
    lock*, so two stealers serialize and only one wins; a heartbeat that
    landed while we waited for the lock vetoes the steal.
    """
    path = _lease_path(leases_dir, chunk_index)
    while True:
        try:
            handle = open(path, "r+", encoding="utf-8")
        except FileNotFoundError:
            return None
        _flock(handle, exclusive=True)
        if not _same_inode(handle, path):
            handle.close()
            continue
        break
    with handle:
        try:
            lease = json.load(handle)
        except ValueError:
            lease = None
        if not isinstance(lease, dict):
            lease = None
        if lease is not None and lease.get("state") in _SETTLED_STATES:
            return None
        if not _lease_expired(lease, path, ttl_s):
            return None
        if lease is None:
            # Torn beyond repair: the board still knows the chunk's tasks.
            board = _read_json(_board_path(leases_dir)) or {}
            chunks = board.get("chunks", [])
            tasks = chunks[chunk_index] if chunk_index < len(chunks) else []
            lease = {"tasks": tasks, "done": [], "steals": 0}
        stolen = {
            "lease": FLEET_PROTOCOL_VERSION,
            "chunk": chunk_index,
            "tasks": list(lease.get("tasks", [])),
            "owner": new_owner,
            "heartbeat": time.time(),
            "done": list(lease.get("done", [])),
            "state": "leased",
            "steals": int(lease.get("steals", 0)) + 1,
        }
        handle.seek(0)
        handle.truncate()
        handle.write(_json_canonical(stolen) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return stolen


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _claim_any_chunk(
    leases_dir: str,
    chunk_count: int,
    board_chunks: Sequence[Sequence[int]],
    owner: str,
    ttl_s: float,
    scan_offset: int,
) -> Optional[Tuple[int, List[int], Set[int]]]:
    """Claim one chunk: unclaimed first, then abandoned (expired) leases.

    ``scan_offset`` rotates each worker's scan order so N workers starting
    simultaneously spread over N different chunks instead of all racing for
    chunk 0.  Returns ``(chunk_index, task_ids, already_done)`` or ``None``
    when nothing is currently claimable.
    """
    order = [(scan_offset + i) % chunk_count for i in range(chunk_count)]
    for chunk_index in order:
        if _try_create_lease(
            leases_dir, chunk_index, board_chunks[chunk_index], owner
        ):
            return chunk_index, list(board_chunks[chunk_index]), set()
    for chunk_index in order:
        path = _lease_path(leases_dir, chunk_index)
        lease = _read_json(path)
        if lease is not None and lease.get("state") in _SETTLED_STATES:
            continue
        if lease is not None and lease.get("owner") == owner:
            continue
        if not _lease_expired(lease, path, ttl_s):
            continue
        stolen = _try_steal_lease(leases_dir, chunk_index, ttl_s, owner)
        if stolen is not None:
            done = {int(task) for task in stolen.get("done", [])}
            return chunk_index, [int(t) for t in stolen.get("tasks", [])], done
    return None


def _all_chunks_settled(leases_dir: str, chunk_count: int) -> bool:
    for chunk_index in range(chunk_count):
        lease = _read_json(_lease_path(leases_dir, chunk_index))
        if lease is None or lease.get("state") not in _SETTLED_STATES:
            return False
    return True


def _fleet_worker_main(
    worker_id: int,
    suite_json: str,
    store_root: str,
    leases_dir: str,
    lease_ttl_s: float,
    poll_s: float,
    task_runner: Callable[[ScenarioSpec, int], Dict[str, Any]],
) -> int:
    """One fleet worker: claim chunks, execute their tasks, mark them done.

    Runs in a forked child.  Exits 0 once every chunk on the board is
    settled (whether this worker did the work or just observed it).  A task
    that raises is recorded in the chunk's lease, which turns ``failed``,
    and the worker exits 1; the coordinator turns that record into a
    :class:`FleetTaskError`.  Any other exception prints a traceback and
    exits 1 -- the coordinator surfaces nonzero exits only if tasks were
    actually left unfinished, so one crashed worker whose chunks the
    survivors reclaim does not fail the run.
    """
    suite = SuiteSpec.from_json(suite_json)
    # A fresh (non-shared) instance: the fork inherited the parent's LRU
    # front, which is fine (buckets revalidate on size+mtime), but hit/miss
    # counters should be this worker's own.
    store = ResultStore(store_root)
    tasks = _flatten_tasks(suite)
    specs = [entry.scenario for entry in suite.entries]
    board = _read_json(_board_path(leases_dir))
    if board is None:
        raise RuntimeError(f"fleet worker {worker_id}: missing board file in {leases_dir}")
    board_chunks: List[List[int]] = [
        [int(task) for task in chunk] for chunk in board["chunks"]
    ]
    chunk_count = len(board_chunks)
    owner = f"w{worker_id}-pid{os.getpid()}"

    while True:
        claim = _claim_any_chunk(
            leases_dir, chunk_count, board_chunks, owner, lease_ttl_s, worker_id
        )
        if claim is None:
            if _all_chunks_settled(leases_dir, chunk_count):
                return 0
            # Other workers hold live leases on everything left: wait for
            # them to finish (or for one to die and its lease to expire).
            time.sleep(poll_s)
            continue
        chunk_index, task_ids, already_done = claim
        lost_lease = False
        for task_id in task_ids:
            if task_id in already_done:
                continue
            entry_index, trial_index = tasks[task_id]
            spec = specs[entry_index]
            # Store first: a previous owner may have executed this task and
            # died between the store write and the lease update.
            record = store.get(spec, trial_index)
            if record is None:
                try:
                    record = task_runner(spec, trial_index)
                    store.put(spec, trial_index, record)
                except Exception as exc:
                    failure = {
                        **_task_failure(suite, tasks, task_id, exc),
                        "traceback": traceback.format_exc(),
                    }

                    def mark_failed(lease: Dict[str, Any]) -> Dict[str, Any]:
                        lease["state"] = "failed"
                        lease["failure"] = failure
                        lease["heartbeat"] = time.time()
                        return lease

                    if _update_lease(leases_dir, chunk_index, owner, mark_failed) is None:
                        raise  # lease lost meanwhile: fall back to a plain crash
                    return 1

            def mark_done(lease: Dict[str, Any]) -> Optional[Dict[str, Any]]:
                done = {int(task) for task in lease.get("done", [])}
                done.add(task_id)
                lease["done"] = sorted(done)
                lease["heartbeat"] = time.time()
                return lease

            if _update_lease(leases_dir, chunk_index, owner, mark_done) is None:
                # Stolen out from under us (we were presumed dead, e.g. one
                # task outlived the TTL).  The record is in the store, so the
                # thief skips straight past it; abandon the chunk's remainder.
                lost_lease = True
                break
        if not lost_lease:

            def mark_chunk_done(lease: Dict[str, Any]) -> Optional[Dict[str, Any]]:
                lease["state"] = "done"
                lease["heartbeat"] = time.time()
                return lease

            _update_lease(leases_dir, chunk_index, owner, mark_chunk_done)


def _worker_entry(*args: Any) -> None:
    """Process target wrapping :func:`_fleet_worker_main` with exit-code plumbing."""
    try:
        sys.exit(_fleet_worker_main(*args))
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
def _chunk_tasks(pending: Sequence[int], workers: int, chunk_size: Optional[int]) -> List[List[int]]:
    """Split pending task indices into lease-sized chunks (canonical order).

    The default targets ~4 chunks per worker: small enough that stealing
    rebalances a straggler, large enough that lease-file traffic stays
    negligible next to trial execution.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(pending) / max(1, workers * 4)))
    chunk_size = max(1, int(chunk_size))
    return [list(pending[i : i + chunk_size]) for i in range(0, len(pending), chunk_size)]


def _progress_snapshot(
    leases_dir: str, chunk_count: int
) -> Tuple[Set[int], int, Optional[Dict[str, Any]]]:
    """Task indices marked done across all leases, the steal count, and the
    first failed lease's failure record (``None`` while nothing failed)."""
    done: Set[int] = set()
    steals = 0
    failure: Optional[Dict[str, Any]] = None
    for chunk_index in range(chunk_count):
        lease = _read_json(_lease_path(leases_dir, chunk_index))
        if lease is None:
            continue
        steals += int(lease.get("steals", 0) or 0)
        if failure is None and lease.get("state") == "failed":
            failure = dict(lease.get("failure") or {})
        for task in lease.get("done", []):
            done.add(int(task))
        if lease.get("state") == "done":
            for task in lease.get("tasks", []):
                done.add(int(task))
    return done, steals, failure


def run_suite_fleet(
    suite: SuiteSpec,
    workers: int = 4,
    store: Any = None,
    chunk_size: Optional[int] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.05,
    prebuild: bool = True,
    on_progress: Optional[Any] = None,
    should_stop: Optional[Any] = None,
    task_runner: Optional[Callable[[ScenarioSpec, int], Dict[str, Any]]] = None,
) -> SuiteReport:
    """Execute a suite across ``workers`` OS processes with work stealing.

    The coordinator consults the result store (``store`` may be a
    :class:`~repro.scenarios.store.ResultStore`, a root path, or ``None`` for
    a private temporary store), chunks the still-pending tasks, writes the
    lease board under ``<store>/suite/<fingerprint>/leases/``, forks the
    workers, and polls lease files for progress while they drain the board.
    Every executed record lands in the store, which doubles as the crash-safe
    checkpoint: rerunning after a crash or cancellation skips all finished
    work.

    The report is assembled exactly like ``run_suite``'s -- compare with
    :func:`~repro.scenarios.suite.deterministic_report_dict` and they are
    byte-identical.  ``on_progress`` receives the same ``"plan"`` and
    ``"task"`` event shapes as ``run_suite`` (task events are emitted as the
    coordinator *observes* completions, so their order reflects completion,
    not the canonical order).  ``should_stop`` cancels between observations:
    workers get SIGTERM, completed records stay in the caller's store (a
    private store is deleted), and
    :class:`~repro.scenarios.suite.SuiteCancelled` is raised.  A task whose
    runner raises stops the run the same way and raises
    :class:`FleetTaskError` with the failing task's entry id, trial, and
    exception.

    ``prebuild`` computes scheduler-delta tables in the coordinator and
    preloads the process-wide cache *before* forking, so every worker
    inherits the tables by memory inheritance rather than re-deriving them.

    ``task_runner`` overrides per-task execution in the workers (see the
    module docstring); the default is :func:`default_task_runner`.  Requires
    a ``fork``-capable platform (POSIX).
    """
    import multiprocessing

    if workers < 1:
        raise ValueError(f"run_suite_fleet needs workers >= 1, got {workers}")
    runner = task_runner if task_runner is not None else default_task_runner

    owned_tmp: Optional[tempfile.TemporaryDirectory] = None
    resolved_store = ResultStore.coerce(store)
    if resolved_store is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        resolved_store = ResultStore(owned_tmp.name)
    try:
        return _run_fleet(
            suite,
            workers,
            resolved_store,
            chunk_size,
            lease_ttl_s,
            poll_s,
            prebuild,
            on_progress,
            should_stop,
            runner,
            multiprocessing.get_context("fork"),
            owned_tmp is None,
        )
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


def _run_fleet(
    suite: SuiteSpec,
    workers: int,
    store: ResultStore,
    chunk_size: Optional[int],
    lease_ttl_s: float,
    poll_s: float,
    prebuild: bool,
    on_progress: Optional[Any],
    should_stop: Optional[Any],
    task_runner: Callable[[ScenarioSpec, int], Dict[str, Any]],
    ctx: Any,
    durable: bool,
) -> SuiteReport:
    # ``durable``: the store is the caller's and outlives this run, so its
    # completed records can be promised to a rerun.
    start = time.perf_counter()
    # Store prescan: warm records need no lease at all.
    tasks, records, pending, stats = _plan_tasks(suite, store, on_progress, should_stop)
    specs = [entry.scenario for entry in suite.entries]
    fingerprint = suite.fingerprint()
    total = len(tasks)

    steals = 0
    worker_exits: Dict[int, Optional[int]] = {}
    if pending:
        if prebuild:
            # Same prebuild pass as run_suite, but installed into *this*
            # process's scheduler-delta cache pre-fork: the workers inherit
            # it through fork instead of each re-deriving the tables.
            delta_table = _prebuild_pending_deltas(
                suite, (tasks[index][0] for index in pending)
            )
            if delta_table:
                preload_process_delta_cache(delta_table)

        run_dir = fleet_run_dir(store.root, fingerprint)
        leases_dir = os.path.join(run_dir, "leases")
        # The coordinator owns the lease namespace for this run: stale leases
        # from a previous (crashed) fleet describe chunkings of work that is
        # already reflected in the store, so they are swept, not trusted.
        shutil.rmtree(leases_dir, ignore_errors=True)
        os.makedirs(leases_dir, exist_ok=True)
        chunks = _chunk_tasks(pending, workers, chunk_size)
        _write_fsynced(
            _board_path(leases_dir),
            {
                "board": FLEET_PROTOCOL_VERSION,
                "suite": fingerprint,
                "tasks": total,
                "chunks": chunks,
            },
        )

        suite_json = suite.to_json(indent=None)
        processes = []
        for worker_id in range(min(workers, len(chunks))):
            process = ctx.Process(
                target=_worker_entry,
                args=(
                    worker_id,
                    suite_json,
                    store.root,
                    leases_dir,
                    lease_ttl_s,
                    poll_s,
                    task_runner,
                ),
            )
            process.start()
            processes.append(process)

        observed: Set[int] = set()
        cancelled = False
        aborted = False
        failure: Optional[Dict[str, Any]] = None
        try:
            while True:
                # Liveness first: once every worker has exited, the snapshot
                # below is their final word (a failure recorded just before
                # the last exit is not missed).
                alive = any(process.is_alive() for process in processes)
                done, steals, failure = _progress_snapshot(leases_dir, len(chunks))
                fresh = sorted(done - observed)
                for task_id in fresh:
                    observed.add(task_id)
                    if on_progress is not None:
                        entry_index, trial_index = tasks[task_id]
                        on_progress(
                            {
                                "event": "task",
                                "task": task_id,
                                "entry": entry_index,
                                "trial": trial_index,
                                "done": len(records) + len(observed),
                                "total": total,
                            }
                        )
                if failure is not None:
                    break
                if should_stop is not None and should_stop():
                    cancelled = True
                    break
                if not alive:
                    break
                time.sleep(poll_s)
        except BaseException:
            # An on_progress callback (or anything else in the poll loop)
            # blew up: don't leave orphaned workers grinding on.
            aborted = True
            raise
        finally:
            for worker_id, process in enumerate(processes):
                if (cancelled or aborted or failure is not None) and process.is_alive():
                    process.terminate()
                process.join()
                worker_exits[worker_id] = process.exitcode
        if failure is not None:
            raise FleetTaskError(failure, steals)
        if cancelled:
            where = " (completed records are in the result store)" if durable else ""
            raise SuiteCancelled(
                f"cancelled after {len(records) + len(observed)}/{total} tasks{where}"
            )

        # Collect what the workers produced.  The LRU front revalidates
        # buckets by size+mtime, so the coordinator sees their appends.
        missing: List[int] = []
        for index in pending:
            entry_index, trial_index = tasks[index]
            record = store.get(specs[entry_index], trial_index)
            if record is None:
                missing.append(index)
            else:
                records[index] = record
        if missing:
            exits = {wid: code for wid, code in sorted(worker_exits.items())}
            resume = (
                " Completed records are durable -- rerunning resumes from them."
                if durable
                else ""
            )
            raise RuntimeError(
                f"fleet run incomplete: {len(missing)} of {total} task(s) missing "
                f"from the store (first: {missing[:5]}); worker exit codes {exits}."
                f"{resume}"
            )
        shutil.rmtree(leases_dir, ignore_errors=True)

    report = _assemble_report(suite, records)
    report.store_stats = stats
    report.store_stats["workers"] = workers
    report.store_stats["steals"] = steals
    report.elapsed_s = time.perf_counter() - start
    return report
