"""The serializable scenario specification tree.

A :class:`ScenarioSpec` is a complete, declarative description of one
experiment: which network family to sample (:class:`TopologySpec`), which
link scheduler plays the adversary (:class:`SchedulerSpec`), which algorithm
runs at every vertex (:class:`AlgorithmSpec`), which environment feeds it
(:class:`EnvironmentSpec`), which engine paths to use (:class:`EngineConfig`),
and how long / how often / under which seeds to run it (:class:`RunPolicy`).

Every spec round-trips losslessly through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` and JSON, and :meth:`ScenarioSpec.fingerprint`
is a content hash of that canonical form -- stable across processes and
platforms (it never touches Python object hashing), which is what lets
run results, suite reports and result-store entries name the spec they came
from.

Component names refer to the registries in
:mod:`repro.scenarios.registry`; materialization lives in
:mod:`repro.scenarios.runtime`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.analysis.sweep import TRIAL_SEED_POLICIES, derive_trial_seed
from repro.simulation.trace import TraceMode

#: Spec schema version, embedded in serialized form so future layouts can
#: migrate old files explicitly instead of guessing.
SPEC_VERSION = 1

_ROUNDS_UNITS = ("rounds", "phases", "tack", "algorithm")
_SEED_POLICIES = TRIAL_SEED_POLICIES
#: "auto" defers the choice to the metric registry: the runtime picks the
#: cheapest :class:`TraceMode` covering every declared metric's minimum (see
#: :func:`repro.scenarios.metrics.required_trace_mode`).
AUTO_TRACE_MODE = "auto"
_TRACE_MODES = tuple(mode.value for mode in TraceMode) + (AUTO_TRACE_MODE,)
#: Engine keys of removed knobs (the vector resolver toggle, the kernel
#: backend selector, and the profile flag -- the engine's section timers are
#: now always reported): accepted and ignored on load, so every manifest
#: written before their removal still loads.
_LEGACY_ENGINE_KEYS = ("vector_path", "kernel", "profile")


def _json_canonical(data: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace, ASCII only."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _check_json_value(value: Any, where: str) -> Any:
    """Validate (and normalize) a value as JSON-representable."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{where} must be JSON-serializable (got {type(value).__name__}): {exc}"
        ) from None


def _check_int(value: Any, where: str) -> None:
    """Reject anything but a plain integer (``True`` and ``2.0`` included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{where} must be an integer, got {value!r}")


def _reject_unknown_keys(data: Mapping[str, Any], allowed, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown key(s) in {where}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class _ComponentSpec:
    """A registry name plus its JSON argument mapping (base for the four kinds)."""

    #: Overridden by subclasses; names the registry the spec resolves against.
    kind = "component"

    name: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"{self.kind} spec needs a non-empty name string")
        args = _check_json_value(dict(self.args), f"{self.kind} args")
        object.__setattr__(self, "args", args)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_ComponentSpec":
        _reject_unknown_keys(data, ("name", "args"), f"{cls.kind} spec")
        return cls(name=data["name"], args=dict(data.get("args", {})))

    def with_args(self, **updates: Any) -> "_ComponentSpec":
        merged = dict(self.args)
        merged.update(updates)
        return replace(self, args=merged)


class TopologySpec(_ComponentSpec):
    """Names a registered network generator (``repro.scenarios.registry.TOPOLOGIES``)."""

    kind = "topology"


class SchedulerSpec(_ComponentSpec):
    """Names a registered link scheduler (``repro.scenarios.registry.SCHEDULERS``)."""

    kind = "scheduler"


class AlgorithmSpec(_ComponentSpec):
    """Names a registered per-vertex algorithm (``repro.scenarios.registry.ALGORITHMS``)."""

    kind = "algorithm"


class EnvironmentSpec(_ComponentSpec):
    """Names a registered environment (``repro.scenarios.registry.ENVIRONMENTS``)."""

    kind = "environment"


class MetricSpec(_ComponentSpec):
    """Names a registered metric reducer (``repro.scenarios.metrics.METRICS``).

    A scenario carries any number of these in :attr:`ScenarioSpec.metrics`;
    each one is evaluated per trial against the trial's trace/graph/params and
    contributes namespaced columns (``"<name>.<key>"``) to the trial's metric
    row, then :mod:`repro.analysis.stats`-backed aggregates to the
    :class:`~repro.scenarios.runtime.RunResult`.
    """

    kind = "metric"


class ArrivalSpec(_ComponentSpec):
    """Names an arrival-process kind (``repro.traffic.arrivals.ARRIVAL_KINDS``)."""

    kind = "arrival"


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative workload for the traffic subsystem (``repro.traffic``).

    Attributes
    ----------
    arrival:
        The arrival process generating per-node traffic.
    capacity:
        Per-node FIFO bound for the ``queued`` environment; ``0`` means
        unbounded (overflow beyond the bound is counted as drops).
    sources:
        Which vertices own queues -- any form
        :func:`repro.scenarios.components.resolve_senders` accepts; ``None``
        (default) means every vertex.
    sinks:
        Designated collection points: convergecast arrivals exclude them
        from generation, and traffic-aware schedulers root their routing
        tree at them.
    seed:
        Arrival-stream seed; ``None`` (default) inherits the trial seed, so
        multi-trial runs draw independent arrival realizations.
    """

    arrival: ArrivalSpec
    capacity: int = 0
    sources: Any = None
    sinks: Tuple[Any, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.arrival, ArrivalSpec):
            raise TypeError("traffic arrival must be an ArrivalSpec")
        _check_int(self.capacity, "traffic capacity")
        if self.capacity < 0:
            raise ValueError("traffic capacity must be non-negative (0 = unbounded)")
        if self.sources is not None:
            object.__setattr__(
                self, "sources", _check_json_value(self.sources, "traffic sources")
            )
        object.__setattr__(
            self,
            "sinks",
            tuple(_check_json_value(list(self.sinks), "traffic sinks")),
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "arrival": self.arrival.to_dict(),
            "capacity": self.capacity,
        }
        if self.sources is not None:
            data["sources"] = self.sources
        if self.sinks:
            data["sinks"] = list(self.sinks)
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        _reject_unknown_keys(
            data, ("arrival", "capacity", "sources", "sinks", "seed"), "traffic spec"
        )
        if "arrival" not in data:
            raise ValueError("traffic spec needs an 'arrival' node")
        return cls(
            arrival=ArrivalSpec.from_dict(data["arrival"]),
            capacity=data.get("capacity", 0),
            sources=data.get("sources"),
            sinks=tuple(data.get("sinks", ())),
            seed=data.get("seed"),
        )


@dataclass(frozen=True)
class EngineConfig:
    """Engine-path selection, declaratively (mirrors the ``Simulator`` kwargs).

    ``trace_mode`` is the :class:`~repro.simulation.trace.TraceMode` value as
    its string form (``"full"`` / ``"events"`` / ``"counters"``) so the spec
    stays plain JSON -- or :data:`AUTO_TRACE_MODE` (``"auto"``), in which case
    the runtime selects the cheapest mode that covers every metric the
    scenario declares (``"full"`` when it declares none, the safe historical
    default).

    The legacy keys ``vector_path``, ``kernel`` and ``profile`` are
    accepted and ignored by :meth:`from_dict`.
    """

    fast_path: bool = True
    batch_path: bool = True
    trace_mode: str = "full"

    def __post_init__(self) -> None:
        if self.trace_mode not in _TRACE_MODES:
            raise ValueError(
                f"trace_mode must be one of {_TRACE_MODES}, got {self.trace_mode!r}"
            )

    @property
    def is_auto_trace_mode(self) -> bool:
        return self.trace_mode == AUTO_TRACE_MODE

    @property
    def trace_mode_enum(self) -> TraceMode:
        """The explicit :class:`TraceMode` (``"auto"`` has none until resolved)."""
        if self.is_auto_trace_mode:
            raise ValueError(
                "trace_mode='auto' is resolved against the scenario's metrics; "
                "use repro.scenarios.runtime.resolve_trace_mode(spec)"
            )
        return TraceMode(self.trace_mode)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fast_path": self.fast_path,
            "batch_path": self.batch_path,
            "trace_mode": self.trace_mode,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        allowed = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, allowed + list(_LEGACY_ENGINE_KEYS), "engine config")
        return cls(**{key: data[key] for key in allowed if key in data})


@dataclass(frozen=True)
class RunPolicy:
    """How long, how many times, and under which seeds a scenario runs.

    Attributes
    ----------
    rounds:
        The round budget, interpreted through ``rounds_unit``.
    rounds_unit:
        ``"rounds"`` -- ``rounds`` is the literal round count.
        ``"phases"`` -- ``rounds`` counts algorithm phases (requires the
        algorithm to report a phase length, e.g. LBAlg / SeedAlg).
        ``"tack"`` -- ``rounds`` counts acknowledgment periods
        (``t_ack = (Tack+1)(Ts+Tprog)`` for LBAlg).
        ``"algorithm"`` -- ``rounds`` multiplies the algorithm's natural
        running time (e.g. SeedAlg's ``total_rounds``).
    trials:
        Number of independent trials (fresh topology sample / scheduler /
        processes per trial unless their specs pin explicit seeds).
    master_seed:
        Root of the scenario's determinism; combined with ``seed_policy`` to
        produce each trial's seed.
    seed_policy:
        ``"fixed"`` -- every trial uses ``master_seed`` verbatim.
        ``"sequential"`` -- trial ``i`` uses ``master_seed + i``.
        ``"derived"`` (default) -- trial ``i`` uses the SHA-derived
        :func:`~repro.analysis.sweep.derive_point_seed`, so nearby master
        seeds never share trial seeds.
    """

    rounds: int = 1
    rounds_unit: str = "algorithm"
    trials: int = 1
    master_seed: int = 0
    seed_policy: str = "derived"

    def __post_init__(self) -> None:
        for name in ("rounds", "trials", "master_seed"):
            _check_int(getattr(self, name), f"run {name}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.rounds_unit not in _ROUNDS_UNITS:
            raise ValueError(
                f"rounds_unit must be one of {_ROUNDS_UNITS}, got {self.rounds_unit!r}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed_policy not in _SEED_POLICIES:
            raise ValueError(
                f"seed_policy must be one of {_SEED_POLICIES}, got {self.seed_policy!r}"
            )

    def trial_seed(self, trial_index: int) -> int:
        """The deterministic seed for one trial (see ``seed_policy``).

        Delegates to :func:`repro.analysis.sweep.derive_trial_seed` -- the
        single helper every execution path (serial runs, worker pools, fleet
        workers, the result store's keys) resolves trial seeds through.
        """
        if not 0 <= trial_index < self.trials:
            raise ValueError(f"trial_index must be in [0, {self.trials}), got {trial_index}")
        return derive_trial_seed(self.master_seed, trial_index, self.seed_policy)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "rounds_unit": self.rounds_unit,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "seed_policy": self.seed_policy,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunPolicy":
        allowed = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, allowed, "run policy")
        return cls(**{key: data[key] for key in allowed if key in data})


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable description of one experiment.

    The spec is pure data: materializing it into live objects (graph,
    processes, scheduler, environment, :class:`~repro.simulation.engine.Simulator`)
    is :func:`repro.scenarios.runtime.materialize` /
    :func:`repro.scenarios.runtime.build`; executing it is
    :func:`repro.scenarios.runtime.run` and
    :func:`repro.scenarios.runtime.run_many`.
    """

    name: str
    topology: TopologySpec
    algorithm: AlgorithmSpec
    scheduler: SchedulerSpec = field(default_factory=lambda: SchedulerSpec("none"))
    environment: EnvironmentSpec = field(default_factory=lambda: EnvironmentSpec("null"))
    engine: EngineConfig = field(default_factory=EngineConfig)
    run: RunPolicy = field(default_factory=RunPolicy)
    metrics: Tuple[MetricSpec, ...] = ()
    traffic: Optional[TrafficSpec] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario needs a non-empty name string")
        if self.traffic is not None and not isinstance(self.traffic, TrafficSpec):
            raise TypeError("traffic must be a TrafficSpec (or None)")
        for attr, klass in (
            ("topology", TopologySpec),
            ("algorithm", AlgorithmSpec),
            ("scheduler", SchedulerSpec),
            ("environment", EnvironmentSpec),
            ("engine", EngineConfig),
            ("run", RunPolicy),
        ):
            if not isinstance(getattr(self, attr), klass):
                raise TypeError(f"{attr} must be a {klass.__name__}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for metric in self.metrics:
            if not isinstance(metric, MetricSpec):
                raise TypeError("metrics entries must be MetricSpec instances")
        names = [metric.name for metric in self.metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate metric names in scenario: {sorted(names)}")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON dict that :meth:`from_dict` restores losslessly.

        The ``metrics`` key is emitted only when the scenario declares
        metrics, so metric-free specs keep the serialized form (and hence the
        :meth:`fingerprint`) they had before the metrics pipeline existed.
        The ``traffic`` key is omitted the same way when no workload is
        declared, so every pre-traffic spec serializes byte-identically
        (result-store warm hits preserved).
        """
        data = {
            "version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "topology": self.topology.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "scheduler": self.scheduler.to_dict(),
            "environment": self.environment.to_dict(),
            "engine": self.engine.to_dict(),
            "run": self.run.to_dict(),
        }
        if self.metrics:
            data["metrics"] = [metric.to_dict() for metric in self.metrics]
        if self.traffic is not None:
            data["traffic"] = self.traffic.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        allowed = (
            "version",
            "name",
            "description",
            "topology",
            "algorithm",
            "scheduler",
            "environment",
            "engine",
            "run",
            "metrics",
            "traffic",
        )
        _reject_unknown_keys(data, allowed, "scenario spec")
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported scenario spec version {version!r} (expected {SPEC_VERSION})"
            )
        if "topology" not in data or "algorithm" not in data:
            raise ValueError("scenario spec needs at least 'topology' and 'algorithm'")
        kwargs: Dict[str, Any] = {
            "name": data.get("name", "scenario"),
            "description": data.get("description", ""),
            "topology": TopologySpec.from_dict(data["topology"]),
            "algorithm": AlgorithmSpec.from_dict(data["algorithm"]),
        }
        if "scheduler" in data:
            kwargs["scheduler"] = SchedulerSpec.from_dict(data["scheduler"])
        if "environment" in data:
            kwargs["environment"] = EnvironmentSpec.from_dict(data["environment"])
        if "engine" in data:
            kwargs["engine"] = EngineConfig.from_dict(data["engine"])
        if "run" in data:
            kwargs["run"] = RunPolicy.from_dict(data["run"])
        if "metrics" in data:
            kwargs["metrics"] = tuple(
                MetricSpec.from_dict(entry) for entry in data["metrics"]
            )
        if "traffic" in data:
            kwargs["traffic"] = TrafficSpec.from_dict(data["traffic"])
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a scenario JSON file (the ``python -m repro run`` input)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable content hash of the canonical serialized spec.

        SHA-256 over the canonical JSON form, truncated to 16 hex digits.
        Identical specs produce identical fingerprints in every process and
        on every platform, so run results, suite reports and result-store
        entries can name the spec they came from.
        """
        payload = _json_canonical(self.to_dict()).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied.

        Keys address the serialized form: ``"scheduler.args.probability"``,
        ``"run.trials"``, ``"engine.trace_mode"``, ``"topology.name"`` ...
        Intermediate mappings are created for ``*.args.*`` paths; overriding a
        non-mapping midpoint is an error.  The result is re-validated through
        :meth:`from_dict`, so an override can never produce an unserializable
        spec.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            cursor: Any = data
            for i, part in enumerate(parts[:-1]):
                nxt = cursor.get(part) if isinstance(cursor, dict) else None
                if nxt is None and part == "args" and isinstance(cursor, dict):
                    nxt = cursor[part] = {}
                if not isinstance(nxt, dict):
                    raise KeyError(
                        f"override path {path!r} does not resolve at {'.'.join(parts[: i + 1])!r}"
                    )
                cursor = nxt
            cursor[parts[-1]] = _check_json_value(value, f"override {path!r}")
        return type(self).from_dict(data)

    def with_metrics(self, *metrics: MetricSpec) -> "ScenarioSpec":
        """A copy declaring exactly these metrics (dotted paths cannot address
        list entries, so metric lists are replaced wholesale)."""
        return replace(self, metrics=tuple(metrics))

    def variants(self, grid: Mapping[str, Any]) -> Tuple["ScenarioSpec", ...]:
        """One spec per point of a dotted-path override grid (canonical order)."""
        from repro.analysis.sweep import iter_grid_points

        return tuple(self.with_overrides(point) for point in iter_grid_points(grid))
