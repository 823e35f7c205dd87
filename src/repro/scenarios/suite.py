"""Scenario suites: many specs, one report.

A :class:`SuiteSpec` is a JSON manifest of scenario entries that run as one
unit and reduce -- through the declarative metrics pipeline
(:mod:`repro.scenarios.metrics`) -- into one :class:`SuiteReport`.  It is the
layer the benchmark harnesses were hand-rolling: "run these N configurations,
pool their per-trial metric rows by experimental condition, print one table".

Like :class:`~repro.scenarios.spec.ScenarioSpec`, a suite round-trips
losslessly through JSON and carries a stable content fingerprint.  The
manifest *file* format additionally accepts load-time sugar that disappears
on resolution (see :meth:`SuiteSpec.from_dict`):

* ``"path"`` entries referencing scenario JSON files relative to the
  manifest;
* suite-level ``"defaults"`` (dotted-path overrides applied to every entry)
  and per-entry ``"overrides"``;
* suite-level ``"metrics"`` applied to entries whose scenarios declare none.

Execution (:func:`run_suite`) is the one multi-trial front end: it plans,
prebuilds, dispatches and stores every batch of trials in the package --
:func:`repro.scenarios.runtime.run` in record mode and
:func:`repro.scenarios.runtime.run_many` build suites and call it.  It
flattens every entry's trials into one task list and runs it serially or on a
process pool (per-spec *and* per-trial parallelism in one pool, workers
receiving serialized specs only), with scheduler-delta tables prebuilt once
per distinct table identity by the same pass the fleet coordinator uses.
Trial metric rows are byte-identical to serial
:func:`repro.scenarios.runtime.run` execution; entries sharing a ``group``
label pool their rows into group aggregates, which is how a suite reproduces
a benchmark's several-specs-per-table-row arithmetic exactly.

The flattened task list is also the unit of *durability*: a
content-addressed :class:`~repro.scenarios.store.ResultStore` consulted per
task skips every trial whose record is already stored, and each freshly
executed record is written back as it lands -- so the store is the
checkpoint, and a killed or cancelled run resumes by rerunning against the
same store (serially, on a pool, or on the fleet of
:mod:`repro.scenarios.fleet`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweep import format_table
from repro.dualgraph.adversary import preload_process_delta_cache
from repro.scenarios.metrics import aggregate_metric_rows, flatten_aggregates
from repro.scenarios.runtime import (
    RunResult,
    _aggregate,
    _build_topology,
    _delta_identity,
    _round_budget,
    absorb_trial_record,
    prebuild_delta_table,
    trial_record,
)
from repro.scenarios.spec import (
    MetricSpec,
    ScenarioSpec,
    _json_canonical,
    _reject_unknown_keys,
)
from repro.scenarios.store import ResultStore

#: Suite manifest schema version (independent of the scenario spec version).
SUITE_VERSION = 1


class SuiteCancelled(RuntimeError):
    """Raised when a ``should_stop`` hook halts suite execution.

    Execution stops between tasks: every record already handed to the result
    store is durable and the in-flight trial (if any) is abandoned, so a
    later run against the same store picks up exactly where this one
    stopped.  The scenario service maps job cancellation and graceful
    shutdown onto this exception.
    """


class SuiteTaskError(RuntimeError):
    """A suite task's trial raised: the run stops and names the task.

    ``failure`` carries the ``task`` index, the ``entry`` id, the ``trial``
    index and the exception's ``type`` and ``message`` (see
    :func:`_task_failure`); the original exception is chained as
    ``__cause__``.  ``kind`` and ``detail`` let
    :class:`~repro.scenarios.fleet.FleetTaskError` reuse the message shape.
    Records completed before the failure stay in the result store.  When no
    task raised (a pool worker died), ``failure["task"]`` is ``None`` and the
    message is ``failure["message"]`` alone.
    """

    def __init__(self, failure: Dict[str, Any], kind: str = "suite", detail: str = "") -> None:
        self.failure = failure
        if failure.get("task") is None:
            super().__init__(f"{failure.get('message')}{detail}")
            return
        super().__init__(
            f"{kind} task {failure.get('task')} (entry {failure.get('entry')!r}, "
            f"trial {failure.get('trial')}) raised {failure.get('type')}: "
            f"{failure.get('message')}{detail}"
        )


@dataclass(frozen=True)
class SuiteEntry:
    """One scenario inside a suite, with its pooling group label.

    Entries with the same ``group`` pool their per-trial metric rows in the
    report's group aggregates; ``group`` defaults to the entry ``id`` (one
    group per entry).  The scenario's component args are checked here
    (:meth:`~repro.scenarios.spec.ScenarioSpec.check_component_args`).
    """

    id: str
    scenario: ScenarioSpec
    group: str = ""

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ValueError("suite entry needs a non-empty id string")
        if not isinstance(self.scenario, ScenarioSpec):
            raise TypeError("suite entry scenario must be a ScenarioSpec")
        self.scenario.check_component_args()

    @property
    def group_label(self) -> str:
        return self.group or self.id

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"id": self.id, "scenario": self.scenario.to_dict()}
        if self.group:
            data["group"] = self.group
        return data


@dataclass(frozen=True)
class SuiteSpec:
    """A serializable manifest of scenarios run (and reported) as one unit."""

    name: str
    entries: Tuple[SuiteEntry, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("suite needs a non-empty name string")
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("suite needs at least one entry")
        ids = [entry.id for entry in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate suite entry ids: {sorted(ids)}")
        # Pooled group aggregates assume every member declares the same
        # metrics (ratio/rate definitions are taken once per group); a mixed
        # group would silently lose pooled columns, so reject it up front.
        metric_names_by_group: Dict[str, Tuple[str, ...]] = {}
        for entry in self.entries:
            names = tuple(metric.name for metric in entry.scenario.metrics)
            previous = metric_names_by_group.setdefault(entry.group_label, names)
            if previous != names:
                raise ValueError(
                    f"suite group {entry.group_label!r} mixes metric declarations "
                    f"({list(previous)} vs {list(names)} on entry {entry.id!r}); "
                    "entries pooled into one group must declare the same metrics"
                )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The fully-resolved canonical form (all scenarios inline)."""
        return {
            "version": SUITE_VERSION,
            "name": self.name,
            "description": self.description,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], base_dir: Optional[str] = None
    ) -> "SuiteSpec":
        """Parse a manifest, resolving the load-time sugar.

        Each entry carries either an inline ``"scenario"`` dict or a
        ``"path"`` to a scenario JSON file (resolved against ``base_dir``,
        which :meth:`load` sets to the manifest's directory; ``"path"``
        entries are rejected without one).  Suite-level ``"defaults"`` are
        dotted-path overrides applied to every entry, then per-entry
        ``"overrides"`` on top; suite-level ``"metrics"`` are attached to any
        entry whose scenario declares none.  The resulting suite is fully
        inline -- :meth:`to_dict` never re-emits the sugar.
        """
        _reject_unknown_keys(
            data,
            ("version", "name", "description", "defaults", "metrics", "entries"),
            "suite spec",
        )
        version = data.get("version", SUITE_VERSION)
        if version != SUITE_VERSION:
            raise ValueError(
                f"unsupported suite spec version {version!r} (expected {SUITE_VERSION})"
            )
        defaults = dict(data.get("defaults", {}))
        suite_metrics = tuple(
            MetricSpec.from_dict(entry) for entry in data.get("metrics", [])
        )
        raw_entries = data.get("entries")
        if not raw_entries:
            raise ValueError("suite spec needs a non-empty 'entries' list")
        entries: List[SuiteEntry] = []
        for index, raw in enumerate(raw_entries):
            where = f"suite entry #{index}"
            _reject_unknown_keys(
                raw, ("id", "group", "scenario", "path", "overrides"), where
            )
            if ("scenario" in raw) == ("path" in raw):
                raise ValueError(f"{where} needs exactly one of 'scenario' or 'path'")
            if "scenario" in raw:
                scenario = ScenarioSpec.from_dict(raw["scenario"])
            else:
                if base_dir is None:
                    raise ValueError(
                        f"{where} references a path but the manifest was parsed "
                        "without a base directory (use SuiteSpec.load)"
                    )
                scenario = ScenarioSpec.load(os.path.join(base_dir, raw["path"]))
            overrides = {**defaults, **dict(raw.get("overrides", {}))}
            if overrides:
                scenario = scenario.with_overrides(overrides)
            if suite_metrics and not scenario.metrics:
                scenario = scenario.with_metrics(*suite_metrics)
            entries.append(
                SuiteEntry(
                    id=raw.get("id", scenario.name),
                    scenario=scenario,
                    group=raw.get("group", ""),
                )
            )
        return cls(
            name=data.get("name", "suite"),
            description=data.get("description", ""),
            entries=tuple(entries),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, base_dir: Optional[str] = None) -> "SuiteSpec":
        return cls.from_dict(json.loads(text), base_dir=base_dir)

    @classmethod
    def load(cls, path: str) -> "SuiteSpec":
        """Read a suite manifest (the ``python -m repro suite`` input)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read(), base_dir=os.path.dirname(path) or ".")

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    def fingerprint(self) -> str:
        """SHA-256 content hash of the canonical (resolved) form, truncated.

        Entry scenarios are already fingerprint-stable
        (:meth:`~repro.scenarios.spec.ScenarioSpec.fingerprint`); the suite
        fingerprint extends the same identity over the manifest, so CI can
        pin "this checked-in manifest is exactly the programmatic suite".
        """
        import hashlib

        payload = _json_canonical(self.to_dict()).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    @property
    def groups(self) -> Tuple[str, ...]:
        """Group labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.group_label)
        return tuple(seen)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_suite_task(
    task: int = 0,
    suite_specs: Optional[Sequence[str]] = None,
    suite_tasks: Optional[Sequence[Tuple[int, int]]] = None,
) -> Dict[str, Any]:
    """Worker target of :func:`run_suite`'s process pool (module-level, hence
    picklable).

    ``suite_specs`` holds every entry's serialized scenario and
    ``suite_tasks`` the flattened ``(entry_index, trial_index)`` list, both
    shipped with every submitted task; ``task`` indexes one trial.  Executes
    through :func:`repro.scenarios.runtime.trial_record` (hence
    :func:`repro.scenarios.runtime.run_trial`, the same code path as serial
    runs), so metric rows match byte for byte.
    """
    if suite_specs is None or suite_tasks is None:
        raise ValueError("run_suite_task needs suite_specs and suite_tasks")
    entry_index, trial_index = suite_tasks[task]
    spec = ScenarioSpec.from_json(suite_specs[entry_index])
    return {"entry_index": entry_index, "trial": trial_record(spec, trial_index)}


@dataclass
class SuiteEntryResult:
    """One suite entry's executed outcome (a :class:`RunResult` plus identity)."""

    entry: SuiteEntry
    result: RunResult

    @property
    def row(self) -> Dict[str, Any]:
        """A flat table record for this entry."""
        record = {
            "id": self.entry.id,
            "group": self.entry.group_label,
            "fingerprint": self.result.fingerprint,
        }
        record.update(self.result.metrics)
        return record


@dataclass
class SuiteReport:
    """The outcome of :func:`run_suite`: per-entry results + group aggregates.

    ``group_summaries`` maps each group label to the
    :func:`repro.scenarios.metrics.aggregate_metric_rows` statistics over the
    *pooled* per-trial metric rows of every entry in the group -- pooled
    ratios and rates (with Wilson intervals), not means of means.
    """

    suite: SuiteSpec
    fingerprint: str
    entries: List[SuiteEntryResult] = field(default_factory=list)
    group_summaries: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: Cache accounting when the run used a result store: ``tasks`` total,
    #: ``hits`` served by the store, ``misses`` actually executed (the fleet
    #: adds ``workers`` and ``steals``).  ``None`` on store-less runs.
    store_stats: Optional[Dict[str, int]] = None

    def __bool__(self) -> bool:
        return any(result.result for result in self.entries)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def entry_rows(self) -> List[Dict[str, Any]]:
        return [entry.row for entry in self.entries]

    def group_metrics(self, group: str) -> Dict[str, Any]:
        """The flat pooled-aggregate record of one group."""
        return flatten_aggregates(self.group_summaries.get(group, {}))

    def group_rows(self) -> List[Dict[str, Any]]:
        """One flat record per group: counts plus pooled metric aggregates."""
        rows = []
        for group in self.suite.groups:
            members = [e for e in self.entries if e.entry.group_label == group]
            record: Dict[str, Any] = {
                "group": group,
                "entries": len(members),
                "trials": sum(len(e.result.trials) for e in members),
                "rounds": sum(e.result.metrics.get("rounds", 0) for e in members),
            }
            record.update(self.group_metrics(group))
            rows.append(record)
        return rows

    # ------------------------------------------------------------------
    # renderers
    # ------------------------------------------------------------------
    def format_table(
        self, columns: Optional[Sequence[str]] = None, by: str = "group"
    ) -> str:
        """An aligned text table (``by="group"`` pooled or ``by="entry"``)."""
        rows = self.group_rows() if by == "group" else self.entry_rows()
        return format_table(
            rows, columns=columns, title=f"suite {self.suite.name} (by {by}):"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable report (what ``python -m repro suite --json`` writes).

        The ``store`` key (cache accounting) appears only when the run used a
        result store; strip wall-clock keys with
        :func:`deterministic_report_dict` before comparing reports across
        runs.
        """
        data: Dict[str, Any] = {
            "suite": self.suite.to_dict(),
            "fingerprint": self.fingerprint,
            "elapsed_s": self.elapsed_s,
            "entries": [
                {
                    "id": e.entry.id,
                    "group": e.entry.group_label,
                    "result": e.result.to_dict(),
                }
                for e in self.entries
            ],
            "groups": {
                group: {key: dict(entry) for key, entry in summaries.items()}
                for group, summaries in self.group_summaries.items()
            },
        }
        if self.store_stats is not None:
            data["store"] = dict(self.store_stats)
        return data

    def to_markdown(self, by: str = "group") -> str:
        """The report as a GitHub-flavored markdown table."""
        rows = self.group_rows() if by == "group" else self.entry_rows()
        if not rows:
            return f"## Suite `{self.suite.name}`\n\n(no results)\n"
        columns = list(rows[0])

        def render(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        lines = [
            f"## Suite `{self.suite.name}` (fingerprint `{self.fingerprint}`)",
            "",
        ]
        if self.suite.description:
            lines.extend([self.suite.description, ""])
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in rows:
            lines.append(
                "| " + " | ".join(render(row.get(col, "")) for col in columns) + " |"
            )
        lines.append("")
        return "\n".join(lines)


def _flatten_tasks(suite: SuiteSpec) -> List[Tuple[int, int]]:
    """The suite's canonical task list: ``(entry_index, trial_index)`` pairs.

    Entries in manifest order, trials in index order.  Every execution mode
    (serial, pooled, fleet, resumed from a store) works over this one
    ordering, and reports assemble in it.
    """
    tasks: List[Tuple[int, int]] = []
    for entry_index, entry in enumerate(suite.entries):
        for trial_index in range(entry.scenario.run.trials):
            tasks.append((entry_index, trial_index))
    return tasks


def _task_failure(
    suite: SuiteSpec, tasks: Sequence[Tuple[int, int]], index: int, exc: BaseException
) -> Dict[str, Any]:
    """The failure record naming task ``index`` and the exception it raised."""
    entry_index, trial_index = tasks[index]
    return {
        "task": index,
        "entry": suite.entries[entry_index].id,
        "trial": trial_index,
        "type": type(exc).__name__,
        "message": str(exc),
    }


def _plan_tasks(
    suite: SuiteSpec,
    store: Optional[ResultStore],
    on_progress: Optional[Any],
    should_stop: Optional[Any],
) -> Tuple[List[Tuple[int, int]], Dict[int, Dict[str, Any]], List[int], Dict[str, int]]:
    """Consult the store for every task, announce the plan, honour an early stop.

    The shared front half of :func:`run_suite` and the fleet coordinator.
    Returns the canonical task list, the records the store already holds
    (by task index), the still-pending task indices, and the accounting
    (``tasks``/``hits``/``misses``).  ``on_progress`` receives one ``"plan"``
    event carrying that accounting; a ``should_stop`` that is already true
    raises :class:`SuiteCancelled` before anything executes.
    """
    tasks = _flatten_tasks(suite)
    records: Dict[int, Dict[str, Any]] = {}
    if store is not None:
        specs = [entry.scenario for entry in suite.entries]
        for index, (entry_index, trial_index) in enumerate(tasks):
            hit = store.get(specs[entry_index], trial_index)
            if hit is not None:
                records[index] = hit
    pending = [index for index in range(len(tasks)) if index not in records]
    stats = {"tasks": len(tasks), "hits": len(records), "misses": len(pending)}
    if on_progress is not None:
        on_progress({"event": "plan", **stats})
    if should_stop is not None and should_stop():
        raise SuiteCancelled(
            f"cancelled before execution ({len(records)}/{len(tasks)} tasks done)"
        )
    return tasks, records, pending, stats


def _assemble_report(
    suite: SuiteSpec, records: Mapping[int, Mapping[str, Any]]
) -> SuiteReport:
    """Build the :class:`SuiteReport` from a complete task-index -> record map.

    The single assembly path shared by :func:`run_suite` and the fleet:
    records absorb in canonical task order, so the report is identical no
    matter which processes executed which tasks.
    """
    tasks = _flatten_tasks(suite)
    results = [
        RunResult(spec=entry.scenario, fingerprint=entry.scenario.fingerprint())
        for entry in suite.entries
    ]
    for index, (entry_index, _trial_index) in enumerate(tasks):
        absorb_trial_record(results[entry_index], records[index])
    for result in results:
        _aggregate(result)

    report = SuiteReport(suite=suite, fingerprint=suite.fingerprint())
    report.entries = [
        SuiteEntryResult(entry=entry, result=result)
        for entry, result in zip(suite.entries, results)
    ]
    for group in suite.groups:
        members = [e for e in report.entries if e.entry.group_label == group]
        pooled_rows: List[Dict[str, Any]] = []
        for member in members:
            pooled_rows.extend(member.result.metric_rows)
        # Ratio/rate definitions come from the group's first entry -- safe
        # because SuiteSpec rejects groups whose members declare different
        # metrics at construction time.
        metric_specs = members[0].entry.scenario.metrics if members else ()
        report.group_summaries[group] = aggregate_metric_rows(metric_specs, pooled_rows)
    return report


def _trial0_graph(spec: ScenarioSpec, graphs: Dict[str, Any]) -> Any:
    """Trial 0's topology sample of ``spec``, drawn at most once per delta
    identity (entries sharing one share the topology spec and seed root)."""
    identity = _delta_identity(spec)
    graph = graphs.get(identity)
    if graph is None:
        graph, _ = _build_topology(spec, spec.run.trial_seed(0))
        graphs[identity] = graph
    return graph


def _prebuild_pending_deltas(
    suite: SuiteSpec,
    entry_indices: Iterable[int],
    graphs: Optional[Dict[str, Any]] = None,
) -> Dict[Tuple[Hashable, int], Tuple[int, ...]]:
    """The merged scheduler-delta table of the given entries (the one prebuild pass).

    :func:`run_suite` ships the table to its pool workers or preloads it in
    this process; the fleet coordinator preloads it before forking.  Entries
    whose tables coincide (same :func:`repro.scenarios.runtime._delta_identity`:
    e.g. variants differing only in the environment) are computed once.
    Entries whose scheduler the kernel decides on demand (IID) contribute no
    table (:func:`repro.scenarios.runtime.prebuild_delta_table` is ``None``).
    With ``graphs`` (delta identity -> trial 0's topology) every entry's
    topology is sampled through it, so the dispatch weights
    (:func:`_heaviest_first`) reuse the sample.
    """
    merged: Dict[Tuple[Hashable, int], Tuple[int, ...]] = {}
    seen_identities = set()
    for entry_index in sorted(set(entry_indices)):
        spec = suite.entries[entry_index].scenario
        identity = _delta_identity(spec)
        if identity in seen_identities:
            continue
        seen_identities.add(identity)
        try:
            graph = None if graphs is None else _trial0_graph(spec, graphs)
            table = prebuild_delta_table(spec, graph=graph)
        except (KeyError, TypeError, ValueError):
            # A broken entry fails loudly when it actually runs; the prebuild
            # pass is best-effort.
            continue
        if table:
            merged.update(table)
    return merged


def _heaviest_first(
    suite: SuiteSpec,
    tasks: Sequence[Tuple[int, int]],
    pending: Sequence[int],
    graphs: Dict[str, Any],
) -> List[int]:
    """``pending`` in pool submission order: heaviest declared work first,
    canonical order among ties.

    A task's declared work is its entry's round budget
    (:func:`repro.scenarios.runtime._round_budget`) times its vertex count,
    both read off trial 0's topology sample (``graphs``, which the prebuild
    pass fills).  Submitting the long trials first keeps a worker from
    picking one up last while the others go idle.  An entry whose budget
    cannot be resolved weighs 0; it fails loudly when it runs.
    """
    weights: Dict[int, int] = {}
    for entry_index in sorted({tasks[index][0] for index in pending}):
        spec = suite.entries[entry_index].scenario
        try:
            graph = _trial0_graph(spec, graphs)
            weights[entry_index] = _round_budget(spec, graph) * len(graph.vertices)
        except (KeyError, TypeError, ValueError):
            weights[entry_index] = 0
    return sorted(pending, key=lambda index: -weights[tasks[index][0]])


def run_suite(
    suite: SuiteSpec,
    jobs: Optional[int] = None,
    prebuild: bool = True,
    store: Any = None,
    on_progress: Optional[Any] = None,
    should_stop: Optional[Any] = None,
) -> SuiteReport:
    """Execute every trial of every entry and aggregate into a :class:`SuiteReport`.

    ``jobs`` above 1 runs the flattened (entry, trial) task list on a process
    pool (``None`` = all cores, <2 = serial in this process); the pool is
    handed them heaviest-first (:func:`_heaviest_first`) and each record
    lands as its task completes, while a serial run lands them in canonical
    task order.  The report absorbs records by task index, so it is the same
    either way.  ``prebuild`` computes the pending
    entries' scheduler-delta tables once in this process (see
    :func:`_prebuild_pending_deltas`) and ships the merged table to
    pool workers through the pool initializer.

    ``store`` (a :class:`~repro.scenarios.store.ResultStore` or its root
    path) serves already-computed trials from the content-addressed result
    store and writes each fresh one back (fsynced) as it finishes, making a
    warm rerun pure assembly -- cached records are absorbed verbatim, so the
    report matches the cold run's byte for byte.  The store is also the
    checkpoint: a killed or cancelled run resumes by rerunning against the
    same store.  With a store the report's ``store_stats`` carry the
    ``tasks``/``hits``/``misses`` accounting.

    ``on_progress`` (a callable taking one dict) receives a ``"plan"`` event
    once the store has been consulted (see :func:`_plan_tasks`) and a
    ``"task"`` event after every executed record lands in the store, so a
    consumer that persists the event never gets ahead of durability.
    ``should_stop`` (a zero-argument callable) is polled between tasks;
    returning true raises :class:`SuiteCancelled` with everything completed
    so far already in the store.  A trial that raises stops the run with a
    :class:`SuiteTaskError` naming its task, entry and trial.
    """
    start = time.perf_counter()
    store = ResultStore.coerce(store)
    tasks, records, pending, stats = _plan_tasks(suite, store, on_progress, should_stop)
    specs = [entry.scenario for entry in suite.entries]
    total = len(tasks)
    where = " (completed records are in the result store)" if store is not None else ""

    def land(index: int, trial: Dict[str, Any]) -> None:
        records[index] = trial
        entry_index, trial_index = tasks[index]
        if store is not None:
            store.put(specs[entry_index], trial_index, trial)
        if on_progress is not None:
            on_progress(
                {
                    "event": "task",
                    "task": index,
                    "entry": entry_index,
                    "trial": trial_index,
                    "done": len(records),
                    "total": total,
                }
            )
        if should_stop is not None and should_stop():
            raise SuiteCancelled(f"cancelled after {len(records)}/{total} tasks{where}")

    if pending:
        workers = min(jobs if jobs is not None else (os.cpu_count() or 1), len(pending))
        # Trial 0 topology samples, shared by the prebuild pass and the
        # pool's dispatch weights; a serial run needs no weights.
        graphs: Dict[str, Any] = {}
        delta_table = (
            _prebuild_pending_deltas(
                suite, (tasks[index][0] for index in pending), graphs if workers > 1 else None
            )
            if prebuild
            else {}
        )
        if workers <= 1:
            if delta_table:
                preload_process_delta_cache(delta_table)
            for index in pending:
                entry_index, trial_index = tasks[index]
                try:
                    trial = trial_record(specs[entry_index], trial_index)
                except Exception as exc:
                    raise SuiteTaskError(_task_failure(suite, tasks, index, exc)) from exc
                land(index, trial)
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool

            suite_specs = [spec.to_json(indent=None) for spec in specs]
            pool_kwargs: Dict[str, Any] = {"max_workers": workers}
            if delta_table:
                # Pickled once per worker rather than once per task.
                pool_kwargs["initializer"] = preload_process_delta_cache
                pool_kwargs["initargs"] = (delta_table,)
            # Submitted heaviest first; landed as they complete.
            order = _heaviest_first(suite, tasks, pending, graphs)
            # The platform's default start method (fork on Linux): workers
            # inherit this process's imports and process-wide caches.
            with ProcessPoolExecutor(**pool_kwargs) as pool:
                futures = {
                    pool.submit(run_suite_task, index, suite_specs, tasks): index
                    for index in order
                }
                try:
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            trial = future.result()["trial"]
                        except BrokenProcessPool as exc:
                            # Every pending future fails alike, so the one
                            # seen first did not necessarily kill it.
                            unfinished = sum(1 for i in pending if i not in records)
                            raise SuiteTaskError(
                                {
                                    "task": None,
                                    "type": type(exc).__name__,
                                    "message": (
                                        f"a suite pool worker died with {unfinished}/{total} "
                                        f"tasks unfinished{where}: {exc}"
                                    ),
                                }
                            ) from exc
                        except Exception as exc:
                            raise SuiteTaskError(
                                _task_failure(suite, tasks, index, exc)
                            ) from exc
                        land(index, trial)
                except BaseException:
                    # A cancelled or failing run should not wait out the whole
                    # queue: drop every not-yet-started task before the pool
                    # shutdown joins the in-flight ones.
                    for future in futures:
                        future.cancel()
                    raise
    report = _assemble_report(suite, records)
    if store is not None:
        report.store_stats = stats
    report.elapsed_s = time.perf_counter() - start
    return report


#: Keys whose values derive from wall-clock time, cache accounting or the
#: engine's observability report, hence legitimately differ between two
#: executions of identical work.
_NONDETERMINISTIC_KEYS = frozenset({"elapsed_s", "rounds_per_s", "store", "perf_stats"})


def deterministic_report_dict(data: Any) -> Any:
    """A deep copy of a report dict with the wall-clock-derived keys removed.

    ``elapsed_s`` / ``rounds_per_s`` measure host timing, ``store``
    records cache accounting and ``perf_stats`` carries the engine lane
    report and its section timers; everything else in a
    :meth:`SuiteReport.to_dict` is deterministic.  Two runs of the same suite
    -- serial vs pooled vs fleet, cold vs warm vs resumed from a partly
    filled store -- must compare equal under this normalization; that
    equality is what the execution-mode identity tests assert.
    """
    if isinstance(data, Mapping):
        return {
            key: deterministic_report_dict(value)
            for key, value in data.items()
            if key not in _NONDETERMINISTIC_KEYS
        }
    if isinstance(data, (list, tuple)):
        return [deterministic_report_dict(value) for value in data]
    return data
