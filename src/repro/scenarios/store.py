"""The content-addressed trial result store.

A :class:`ResultStore` persists executed trial records -- the picklable
``trial_record`` wire format of :mod:`repro.scenarios.runtime` (metrics row,
counters, ``perf_stats``) -- under a content-derived key, so any
repeated trial anywhere (a rerun or resumed suite, an overlapping sweep, a
fleet worker picking up a dead worker's chunk) becomes a near-free cache hit
instead of a recompute.

Keying
------
A trial's key is the SHA-256 of three canonical-JSON components:

* the **trial identity** (:func:`scenario_trial_identity`): the scenario's
  canonical form *minus* everything the executed trial does not depend on --
  the spec's ``name``/``description``, the engine path flags (all lanes
  are byte-identical by the trace-identity contract), the declared
  metrics, and the run policy's ``trials``/``master_seed``/``seed_policy``
  (which only matter through the resolved seed);
* the **trial seed**, resolved through the single shared helper
  :func:`repro.analysis.sweep.derive_trial_seed` (via
  :meth:`repro.scenarios.spec.RunPolicy.trial_seed`);
* the **metrics signature** (:func:`metrics_signature`): the declared metric
  specs and the resolved trace mode -- so changing a metric's definition or
  recording mode invalidates exactly the rows it affects, never more.

Dropping the spec name and trial bookkeeping from the key is what makes the
store *content*-addressed: two suite entries with different ids but identical
physics share one stored record, and a ``trials=8`` spec shares its first
three records with the ``trials=3`` prefix of the same experiment.

Layout
------
::

    root/
      store.json            # {"version": 1}
      objects/
        <2 hex chars>.jsonl # append-only JSONL bucket (first 2 key chars)

Each bucket line is one canonical-JSON object
``{"key", "spec", "sig", "record"}`` (``spec`` = the originating spec's full
fingerprint, kept as metadata for ``gc``).  Writers append whole lines with a
single buffered write + ``fsync`` under ``O_APPEND`` semantics, so
concurrent writers from separate processes interleave at line granularity and
never lose each other's rows; duplicate keys are resolved last-write-wins.
Corrupted or truncated lines (a writer killed mid-append) are skipped with a
:class:`RuntimeWarning` and counted in :meth:`ResultStore.stats`;
:meth:`ResultStore.gc` compacts them away.  Bucket access is additionally
serialized by POSIX advisory ``flock`` locks (shared for scans, exclusive for
appends and the ``gc`` rewrite), so :meth:`ResultStore.stats` and
:meth:`ResultStore.gc` are safe to run while other processes append -- a
concurrent writer queues behind the compaction and lands its row in the
rewritten bucket instead of losing it.

An in-process LRU front caches decoded buckets (validated against the file's
size+mtime, so a concurrent writer's appends are picked up) and makes warm
reruns mostly memory reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, TextIO, Tuple

try:  # POSIX advisory locks; absent on Windows (degrades to lock-free mode).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.scenarios.metrics import required_trace_mode
from repro.scenarios.spec import ScenarioSpec, _json_canonical

#: Version of the on-disk layout *and* of the record schema folded into every
#: metrics signature -- bump it to invalidate all stored rows at once.
#: v2: trial records always carry a ``perf_stats`` section with the engine
#: lane report (``lane`` / ``lane_fallback``: why the kernel lane did not
#: run) and the engine's round-section timers.  The section is
#: observability data, outside
#: :func:`~repro.scenarios.suite.deterministic_report_dict`, so its contents
#: may change without a version bump.
STORE_SCHEMA_VERSION = 2

#: Decoded bucket indexes a :class:`ResultStore` keeps in memory (LRU-evicted).
LRU_BUCKETS = 64


# ----------------------------------------------------------------------
# bucket-file locking
# ----------------------------------------------------------------------
# Appends under O_APPEND were always line-atomic in practice, but
# ``stats()``/``gc()`` iterate whole bucket files and used to race concurrent
# writers: a torn in-progress line was miscounted, a bucket deleted between
# ``listdir`` and ``open`` crashed the scan, and a ``gc`` rewrite racing an
# appender could drop the appender's row on ``os.replace``.  Every bucket
# access now takes a POSIX advisory ``flock`` -- shared for readers, exclusive
# for appenders and the gc rewrite -- with the classic reopen-on-stale-inode
# dance so a writer that blocked on a bucket while ``gc`` replaced it lands in
# the *new* file instead of the unlinked one.  On platforms without ``fcntl``
# the helpers degrade to the old lock-free behavior.


def _flock(handle: TextIO, exclusive: bool) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def _same_inode(handle: TextIO, path: str) -> bool:
    try:
        return os.fstat(handle.fileno()).st_ino == os.stat(path).st_ino
    except FileNotFoundError:
        return False


def _open_locked_append(path: str) -> TextIO:
    """Open ``path`` for appending, holding an exclusive lock on the *live* file.

    Loops until the locked handle's inode matches the path: if ``gc``
    replaced the bucket while this writer was blocked on the lock, the stale
    (unlinked) handle is discarded and the new file is locked instead, so no
    append can land in a file nothing will ever read again.
    """
    while True:
        handle = open(path, "a", encoding="utf-8")
        if fcntl is None:
            return handle
        _flock(handle, exclusive=True)
        if _same_inode(handle, path):
            return handle
        handle.close()


@contextmanager
def _locked_bucket_reader(path: str) -> Iterator[Optional[TextIO]]:
    """A shared-locked read handle on a bucket, or ``None`` if it vanished.

    Taking the shared lock means no flock-honoring appender is mid-write, so
    the reader never sees a torn trailing line from a *live* writer (a line
    torn by a kill remains visible, by design).  Reopens on a stale inode
    exactly like :func:`_open_locked_append`.
    """
    while True:
        try:
            handle = open(path, "r", encoding="utf-8", errors="replace")
        except FileNotFoundError:
            yield None
            return
        if fcntl is None:
            break
        _flock(handle, exclusive=False)
        if _same_inode(handle, path):
            break
        handle.close()
    try:
        yield handle
    finally:
        handle.close()


def metrics_signature(spec: ScenarioSpec) -> str:
    """The metrics-identity component of a trial's store key.

    Covers the declared metric specs (names + args, canonical JSON), the
    trace mode the trial records under (``"auto"`` resolved against the
    metric registry), and :data:`STORE_SCHEMA_VERSION`.  Changing any of these --
    adding a metric, changing its args, switching trace modes -- changes the
    signature and therefore misses the old cache entries; everything else
    (engine lanes) deliberately does not.
    """
    if spec.engine.is_auto_trace_mode:
        trace_mode = required_trace_mode(spec.metrics).value
    else:
        trace_mode = spec.engine.trace_mode
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "metrics": [metric.to_dict() for metric in spec.metrics],
        "trace_mode": trace_mode,
        # The removed engine profile flag, pinned to its old default so v2
        # keys stay valid: perf data never enters a key.
        "profile": False,
    }
    digest = hashlib.sha256(_json_canonical(payload).encode()).hexdigest()
    return digest[:16]


def scenario_trial_identity(spec: ScenarioSpec) -> str:
    """Canonical JSON of everything one executed trial's outputs depend on.

    The scenario's canonical dict minus the fields a trial's trace provably
    does not depend on: ``name``/``description`` (labels), ``metrics``
    (covered by :func:`metrics_signature`), the engine block (all engine
    lanes/kernels are trace-identical; the trace mode rides in the metrics
    signature), and the run policy's trial bookkeeping
    (``trials`` / ``master_seed`` / ``seed_policy`` matter only through the
    resolved per-trial seed, which is keyed separately).  The round budget
    (``rounds`` + ``rounds_unit``) stays: it decides how long the trial ran.
    """
    data = spec.to_dict()
    data.pop("name", None)
    data.pop("description", None)
    data.pop("metrics", None)
    data.pop("engine", None)
    data.pop("version", None)
    run = data.pop("run")
    data["rounds"] = run["rounds"]
    data["rounds_unit"] = run["rounds_unit"]
    return _json_canonical(data)


def trial_key(spec: ScenarioSpec, trial_index: int) -> str:
    """The store key of one trial: identity + seed + metrics signature."""
    payload = {
        "identity": scenario_trial_identity(spec),
        "trial_seed": spec.run.trial_seed(trial_index),
        "metrics_signature": metrics_signature(spec),
    }
    return hashlib.sha256(_json_canonical(payload).encode()).hexdigest()[:32]


def _decode_lines(handle: TextIO) -> Iterator[Optional[Dict[str, Any]]]:
    """Each non-blank bucket line's entry, or ``None`` if it is corrupt (not a
    JSON object with a string ``key`` and an object ``record``): the one
    rule ``get``, ``stats`` and ``gc`` share."""
    for line in handle:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            yield None
            continue
        valid = (
            isinstance(entry, dict)
            and isinstance(entry.get("key"), str)
            and isinstance(entry.get("record"), dict)
        )
        yield entry if valid else None


class ResultStore:
    """An append-only, fsync-safe on-disk trial cache with an LRU front.

    Parameters
    ----------
    root:
        Directory of the store (created on first use).

    Every appended record is flushed and fsynced; at most
    :data:`LRU_BUCKETS` decoded bucket indexes are held in memory.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self._corrupt_lines = 0
        #: bucket name -> ((size, mtime_ns), {key: record_line_dict})
        self._buckets: "OrderedDict[str, Tuple[Tuple[int, int], Dict[str, Dict[str, Any]]]]" = (
            OrderedDict()
        )
        self._initialized = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, store: Any) -> Optional["ResultStore"]:
        """``None`` | path string | ``ResultStore`` -> ``ResultStore`` or ``None``.

        Every ``store=`` parameter in the execution stack accepts all three.
        """
        if store is None or isinstance(store, cls):
            return store
        if isinstance(store, (str, os.PathLike)):
            return cls(os.fspath(store))
        raise TypeError(f"store must be a ResultStore, a path, or None; got {store!r}")

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    @property
    def objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _ensure_layout(self) -> None:
        if self._initialized:
            return
        os.makedirs(self.objects_dir, exist_ok=True)
        meta_path = os.path.join(self.root, "store.json")
        if not os.path.exists(meta_path):
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump({"version": STORE_SCHEMA_VERSION}, handle)
                handle.write("\n")
        self._initialized = True

    @staticmethod
    def _bucket_name(key: str) -> str:
        return key[:2]

    def _bucket_path(self, bucket: str) -> str:
        return os.path.join(self.objects_dir, f"{bucket}.jsonl")

    # ------------------------------------------------------------------
    # bucket loading (the LRU front)
    # ------------------------------------------------------------------
    def _parse_bucket(self, path: str) -> Dict[str, Dict[str, Any]]:
        index: Dict[str, Dict[str, Any]] = {}
        corrupt = 0
        with _locked_bucket_reader(path) as handle:
            if handle is None:
                return index
            for entry in _decode_lines(handle):
                if entry is None:
                    corrupt += 1
                else:
                    index[entry["key"]] = entry  # last write wins on duplicates
        if corrupt:
            self._corrupt_lines += corrupt
            warnings.warn(
                f"ResultStore: skipped {corrupt} corrupted/truncated line(s) in "
                f"{path} (run `python -m repro store gc` to compact them away)",
                RuntimeWarning,
                stacklevel=3,
            )
        return index

    def _load_bucket(self, bucket: str) -> Dict[str, Dict[str, Any]]:
        path = self._bucket_path(bucket)
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            self._buckets.pop(bucket, None)
            return {}
        signature = (stat.st_size, stat.st_mtime_ns)
        cached = self._buckets.get(bucket)
        if cached is not None and cached[0] == signature:
            self._buckets.move_to_end(bucket)
            return cached[1]
        index = self._parse_bucket(path)
        self._buckets[bucket] = (signature, index)
        self._buckets.move_to_end(bucket)
        while len(self._buckets) > LRU_BUCKETS:
            self._buckets.popitem(last=False)
        return index

    # ------------------------------------------------------------------
    # the spec-level API
    # ------------------------------------------------------------------
    def get(self, spec: ScenarioSpec, trial_index: int) -> Optional[Dict[str, Any]]:
        """The stored trial record, or ``None`` on a miss.

        On a hit the record's ``trial_index`` is rewritten to the requested
        one: the key identifies content (identity + seed + metrics), and the
        same physical trial may sit at different indexes in different run
        policies (e.g. trial 0 of a pinned-seed spec vs trial 3 of the
        derived-seed spec that produced that seed).
        """
        entry = self.get_entry(trial_key(spec, trial_index))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        record = dict(entry["record"])
        record["trial_index"] = trial_index
        return record

    def put(self, spec: ScenarioSpec, trial_index: int, record: Mapping[str, Any]) -> str:
        """Persist one executed trial record; returns its key."""
        key = trial_key(spec, trial_index)
        self.put_entry(key, record, spec_fingerprint=spec.fingerprint(),
                       signature=metrics_signature(spec))
        return key

    # ------------------------------------------------------------------
    # the key-level API
    # ------------------------------------------------------------------
    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        index = self._load_bucket(self._bucket_name(key))
        return index.get(key)

    def put_entry(
        self,
        key: str,
        record: Mapping[str, Any],
        spec_fingerprint: str = "",
        signature: str = "",
    ) -> None:
        self._ensure_layout()
        entry = {
            "key": key,
            "spec": spec_fingerprint,
            "sig": signature,
            "record": dict(record),
        }
        line = _json_canonical(entry) + "\n"
        bucket = self._bucket_name(key)
        path = self._bucket_path(bucket)
        # One buffered write of the whole line under O_APPEND semantics plus
        # an exclusive bucket lock: concurrent writers interleave at line
        # granularity, and locked readers (stats/gc) never observe the line
        # half-written.
        handle = _open_locked_append(path)
        try:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()
        cached = self._buckets.get(bucket)
        if cached is not None:
            cached[1][key] = entry
            try:
                stat = os.stat(path)
                self._buckets[bucket] = ((stat.st_size, stat.st_mtime_ns), cached[1])
            except FileNotFoundError:  # pragma: no cover - racing an rm -rf
                self._buckets.pop(bucket, None)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _bucket_files(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.objects_dir))
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.objects_dir, name)
            for name in names
            if name.endswith(".jsonl")
        ]

    def stats(self) -> Dict[str, Any]:
        """Store-wide counts: files/lines/entries/bytes on disk, plus this
        process's hit/miss/corrupt counters.

        Safe to call while other processes append or ``gc`` runs: each bucket
        is scanned under a shared lock (so no live writer is mid-line), a
        bucket deleted between the directory listing and the scan is skipped,
        and corrupt lines (by the rule ``get`` skips them with) are counted
        in ``corrupt_lines``; ``lines`` counts every non-blank line.
        """
        scanned = 0
        lines = 0
        entries = 0
        corrupt = 0
        size_bytes = 0
        for path in self._bucket_files():
            keys: Set[str] = set()
            with _locked_bucket_reader(path) as handle:
                if handle is None:
                    continue  # deleted (e.g. by an rm/gc) since the listing
                scanned += 1
                size_bytes += os.fstat(handle.fileno()).st_size
                for entry in _decode_lines(handle):
                    lines += 1
                    if entry is None:
                        corrupt += 1
                    else:
                        keys.add(entry["key"])
            entries += len(keys)
        return {
            "root": self.root,
            "files": scanned,
            "lines": lines,
            "entries": entries,
            "corrupt_lines": corrupt,
            "bytes": size_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_lines_seen": self._corrupt_lines,
        }

    def gc(
        self,
        drop_fingerprints: Tuple[str, ...] = (),
        dry_run: bool = False,
    ) -> Dict[str, int]:
        """Compact every bucket: drop corrupt lines, superseded duplicate
        keys, and (optionally) all records whose originating spec fingerprint
        is in ``drop_fingerprints``.

        Rewrites each bucket atomically (tmp file + ``os.replace``) while
        holding the bucket's exclusive lock, so concurrent writers queue
        behind the rewrite instead of losing in-flight rows: an appender that
        blocked on the old file detects the replaced inode when it acquires
        the lock and reopens the new one (see :func:`_open_locked_append`).
        """
        dropped_corrupt = 0
        dropped_superseded = 0
        dropped_evicted = 0
        kept = 0
        drop = set(drop_fingerprints)
        for path in self._bucket_files():
            raw_lines = 0
            index: "OrderedDict[str, str]" = OrderedDict()
            try:
                handle = open(path, "r", encoding="utf-8", errors="replace")
            except FileNotFoundError:
                continue  # deleted since the directory listing
            with handle:
                # Exclusive (not shared) lock: it is held across the rewrite
                # below, guaranteeing no appender lands between our last read
                # and the os.replace that would orphan its line.
                _flock(handle, exclusive=True)
                if not _same_inode(handle, path):
                    continue  # another gc replaced it; nothing lost, skip
                for entry in _decode_lines(handle):
                    raw_lines += 1
                    if entry is None:
                        dropped_corrupt += 1
                        continue
                    key = entry["key"]
                    spec = entry.get("spec")
                    if isinstance(spec, str) and spec in drop:
                        index.pop(key, None)
                        dropped_evicted += 1
                        continue
                    if key in index:
                        dropped_superseded += 1
                        index.pop(key)  # keep last-write-wins ordering
                    index[key] = _json_canonical(entry)
                kept += len(index)
                if dry_run or raw_lines == len(index):
                    continue
                tmp_path = path + ".tmp"
                with open(tmp_path, "w", encoding="utf-8") as tmp_handle:
                    for line in index.values():
                        tmp_handle.write(line + "\n")
                    tmp_handle.flush()
                    os.fsync(tmp_handle.fileno())
                os.replace(tmp_path, path)
                self._buckets.pop(os.path.basename(path)[:-len(".jsonl")], None)
        return {
            "kept": kept,
            "dropped_corrupt": dropped_corrupt,
            "dropped_superseded": dropped_superseded,
            "dropped_evicted": dropped_evicted,
        }
