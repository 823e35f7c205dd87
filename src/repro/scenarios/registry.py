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

Builders may additionally declare **context keywords** -- values the
runtime owns rather than the spec's args: ``embedding``, ``traffic`` and
``trial_seed`` for environments, ``traffic`` for schedulers, and
``params_only`` for algorithms (when true, the builder returns an
``AlgorithmBuild`` whose derived parameters and round lengths are resolved
but whose process population is empty).  :meth:`Registry.build` passes each
context keyword only to builders whose signature declares it, so
downstream-registered components opt in just by taking the keyword.

A fifth registry -- metrics -- lives in :mod:`repro.scenarios.metrics`
(:class:`~repro.scenarios.metrics.MetricRegistry` subclasses
:class:`Registry` with trace-mode and pooled-aggregate metadata).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional


def _parameter_names(builder: Callable[..., Any]) -> FrozenSet[str]:
    """The parameter names the builder's signature declares."""
    try:
        return frozenset(inspect.signature(builder).parameters)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return frozenset()


class Registry:
    """A name -> builder mapping with loud duplicate/unknown-name handling."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._builders: Dict[str, Callable[..., Any]] = {}
        self._sample_args: Dict[str, Dict[str, Any]] = {}
        self._trial_seeded: Dict[str, bool] = {}
        self._parameters: Dict[str, FrozenSet[str]] = {}

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
            self._parameters[name] = _parameter_names(builder)
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

    def accepts(self, name: str, keyword: str) -> bool:
        """Whether the builder's signature declares the named parameter."""
        self.get(name)  # raise uniformly on unknown names
        return keyword in self._parameters[name]

    def build(
        self,
        name: str,
        /,
        *leading: Any,
        context: Optional[Mapping[str, Any]] = None,
        **args: Any,
    ) -> Any:
        """Call the builder registered under ``name``.

        ``leading`` are the kind's positional arguments (see the module
        docstring) and ``args`` the spec's argument mapping.  Each
        ``context`` keyword is passed only when the builder declares it
        (:meth:`accepts`), so builders take exactly the context they need.
        """
        builder = self.get(name)
        declared = self._parameters[name]
        passed = {k: v for k, v in (context or {}).items() if k in declared}
        return builder(*leading, **passed, **args)

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

    Builders may additionally declare ``embedding``, ``traffic`` and
    ``trial_seed`` keywords to receive the topology's embedding, the
    scenario's :class:`~repro.scenarios.spec.TrafficSpec` and the per-trial
    seed.
    """
    return ENVIRONMENTS.register(name, sample_args=sample_args, trial_seeded=trial_seeded)
