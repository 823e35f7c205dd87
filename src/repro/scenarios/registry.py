"""Component registries for the declarative scenario layer.

A :class:`ScenarioSpec` names its parts -- topology, scheduler, algorithm,
environment -- by *registry name* plus a JSON-serializable argument mapping.
The registries defined here map those names to builder callables, in the
style of configuration-driven simulation stacks where adding a workload is a
data change, not a code change.

Four process-wide registries exist (one per component kind), populated by the
decorators :func:`register_topology`, :func:`register_scheduler`,
:func:`register_algorithm`, and :func:`register_environment`.  The built-in
components live in :mod:`repro.scenarios.components`; downstream code can
register additional ones under new names (duplicate names raise, so two
libraries can never silently shadow each other's builders).

Builder signatures by kind:

* **topology** -- ``builder(trial_seed, **args) -> (DualGraph, Embedding)``
* **scheduler** -- ``builder(graph, trial_seed, **args) -> LinkScheduler``
* **algorithm** -- ``builder(graph, rng, **args) -> AlgorithmBuild``
* **environment** -- ``builder(graph, **args) -> Environment``

``trial_seed`` is the per-trial seed resolved by the
:class:`~repro.scenarios.spec.RunPolicy`; builders use it as the default when
their args carry no explicit seed, which is what makes multi-trial runs vary
while fully-pinned specs stay byte-reproducible.

Algorithm builders may additionally implement the **params-only resolution
mode**: accepting a keyword-only ``params_only: bool = False`` and, when it is
true, returning an ``AlgorithmBuild`` whose derived parameters and round
lengths are resolved but whose process population is empty.  Support is
auto-detected from the signature (:meth:`Registry.supports_params_only`), so
downstream-registered algorithms opt in just by taking the keyword.

A fifth registry -- metrics -- lives in :mod:`repro.scenarios.metrics`
(:class:`~repro.scenarios.metrics.MetricRegistry` subclasses
:class:`Registry` with trace-mode and pooled-aggregate metadata).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional


def _accepts_keyword(builder: Callable[..., Any], keyword: str) -> bool:
    """True iff the builder's signature declares the named parameter."""
    try:
        signature = inspect.signature(builder)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return keyword in signature.parameters


def _accepts_params_only(builder: Callable[..., Any]) -> bool:
    """True iff the builder's signature declares a ``params_only`` parameter."""
    return _accepts_keyword(builder, "params_only")


class Registry:
    """A name -> builder mapping with loud duplicate/unknown-name handling."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._builders: Dict[str, Callable[..., Any]] = {}
        self._sample_args: Dict[str, Dict[str, Any]] = {}
        self._trial_seeded: Dict[str, bool] = {}
        self._params_only: Dict[str, bool] = {}
        self._embedding_aware: Dict[str, bool] = {}
        self._traffic_aware: Dict[str, bool] = {}
        self._trial_seed_aware: Dict[str, bool] = {}

    def register(
        self,
        name: str,
        sample_args: Optional[Mapping[str, Any]] = None,
        trial_seeded: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register a builder under ``name``.

        ``sample_args`` is a minimal argument mapping that produces a small
        but valid component -- used by ``python -m repro list``, the docs, and
        the round-trip tests, so every registered component stays runnable.

        ``trial_seeded`` declares that the builder consumes the per-trial seed
        when its args carry no explicit ``seed`` -- i.e. the component
        re-randomizes across trials unless pinned.  The scenario runtime uses
        this (via :meth:`is_trial_seeded`) to decide when cross-trial caches
        such as prebuilt scheduler-delta tables can actually hit.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} registry names must be non-empty strings")

        def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._builders:
                raise ValueError(
                    f"duplicate {self.kind} registration: {name!r} is already "
                    f"bound to {self._builders[name].__qualname__}"
                )
            self._builders[name] = builder
            self._sample_args[name] = dict(sample_args) if sample_args else {}
            self._trial_seeded[name] = bool(trial_seeded)
            self._params_only[name] = _accepts_params_only(builder)
            self._embedding_aware[name] = _accepts_keyword(builder, "embedding")
            self._traffic_aware[name] = _accepts_keyword(builder, "traffic")
            self._trial_seed_aware[name] = _accepts_keyword(builder, "trial_seed")
            return builder

        return decorator

    def get(self, name: str) -> Callable[..., Any]:
        """The builder registered under ``name`` (KeyError lists known names)."""
        try:
            return self._builders[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered {self.kind} names: "
                f"{', '.join(sorted(self._builders)) or '(none)'}"
            ) from None

    def sample_args(self, name: str) -> Dict[str, Any]:
        """A copy of the sample arguments recorded at registration."""
        self.get(name)  # raise uniformly on unknown names
        return dict(self._sample_args[name])

    def is_trial_seeded(self, name: str) -> bool:
        """Whether the builder re-randomizes per trial when no ``seed`` arg is pinned."""
        self.get(name)  # raise uniformly on unknown names
        return self._trial_seeded[name]

    def supports_params_only(self, name: str) -> bool:
        """Whether the builder implements the params-only resolution mode.

        Detected from the builder's signature at registration: a builder that
        accepts a ``params_only`` keyword promises that
        ``builder(..., params_only=True)`` returns its usual build object with
        the derived parameters and round-structure lengths resolved but **no
        process population constructed**.  The scenario runtime uses this
        (``repro.scenarios.runtime.resolve_params``) wherever it needs only
        derived quantities -- delta-table prebuilds, round budget resolution,
        trace-mode selection -- so those paths stop materializing throwaway
        processes.
        """
        self.get(name)  # raise uniformly on unknown names
        return self._params_only[name]

    def supports_embedding(self, name: str) -> bool:
        """Whether the builder accepts the trial topology's ``embedding``.

        Detected from the signature at registration (like
        :meth:`supports_params_only`): a builder declaring an ``embedding``
        keyword receives the topology builder's
        :class:`~repro.dualgraph.geometric.Embedding` from the scenario
        runtime, which is what lets environment sender selections place
        themselves geometrically (e.g. ``center_probe_neighbors``).
        """
        self.get(name)  # raise uniformly on unknown names
        return self._embedding_aware[name]

    def supports_traffic(self, name: str) -> bool:
        """Whether the builder accepts the scenario's ``traffic`` spec.

        Detected from the signature at registration (like
        :meth:`supports_params_only`): a builder declaring a ``traffic``
        keyword receives the :class:`~repro.scenarios.spec.TrafficSpec` of
        the scenario being materialized -- how the ``queued`` environment
        and the traffic-aware schedulers read the declared workload.
        """
        self.get(name)  # raise uniformly on unknown names
        return self._traffic_aware[name]

    def supports_trial_seed(self, name: str) -> bool:
        """Whether an environment builder accepts the per-trial seed.

        Environment builders historically take ``f(graph, **args)``; one that
        declares a ``trial_seed`` keyword receives the trial's seed from the
        runtime, which lets seed-consuming environments (queued arrivals)
        re-randomize across trials unless their spec pins an explicit seed.
        """
        self.get(name)  # raise uniformly on unknown names
        return self._trial_seed_aware[name]

    def names(self) -> List[str]:
        return sorted(self._builders)

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={self.names()})"


#: The process-wide registries backing :class:`~repro.scenarios.spec.ScenarioSpec`.
TOPOLOGIES = Registry("topology")
SCHEDULERS = Registry("scheduler")
ALGORITHMS = Registry("algorithm")
ENVIRONMENTS = Registry("environment")


def register_topology(
    name: str,
    sample_args: Optional[Mapping[str, Any]] = None,
    trial_seeded: bool = False,
):
    """Register a topology builder: ``f(trial_seed, **args) -> (graph, embedding)``."""
    return TOPOLOGIES.register(name, sample_args=sample_args, trial_seeded=trial_seeded)


def register_scheduler(
    name: str,
    sample_args: Optional[Mapping[str, Any]] = None,
    trial_seeded: bool = False,
):
    """Register a scheduler builder: ``f(graph, trial_seed, **args) -> LinkScheduler``."""
    return SCHEDULERS.register(name, sample_args=sample_args, trial_seeded=trial_seeded)


def register_algorithm(name: str, sample_args: Optional[Mapping[str, Any]] = None):
    """Register an algorithm builder: ``f(graph, rng, **args) -> AlgorithmBuild``."""
    return ALGORITHMS.register(name, sample_args=sample_args)


def register_environment(
    name: str,
    sample_args: Optional[Mapping[str, Any]] = None,
    trial_seeded: bool = False,
):
    """Register an environment builder: ``f(graph, **args) -> Environment``.

    Builders may additionally declare ``traffic`` and ``trial_seed`` keywords
    to receive the scenario's :class:`~repro.scenarios.spec.TrafficSpec` and
    the per-trial seed.
    """
    return ENVIRONMENTS.register(name, sample_args=sample_args, trial_seeded=trial_seeded)
