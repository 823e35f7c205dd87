"""Built-in scenario components.

Importing this module (which :mod:`repro.scenarios` does eagerly) populates
the four registries of :mod:`repro.scenarios.registry` with every network
generator, link scheduler, algorithm, and environment the library ships:

* **topologies** -- the :mod:`repro.dualgraph.generators` families plus the
  benchmark suite's degree-targeted sampler (``target_degree``);
* **schedulers** -- the oblivious schedulers of
  :mod:`repro.dualgraph.adversary`, the anti-schedule adversary, and the
  adaptive collision adversary (outside the paper's model, for boundary
  experiments);
* **algorithms** -- LBAlg, standalone SeedAlg, and the Decay / uniform /
  round-robin baselines;
* **environments** -- the deterministic environments of
  :mod:`repro.simulation.environment`.

Seed conventions: a component whose args pin an explicit ``seed`` is
byte-reproducible regardless of the trial; a component that omits it inherits
the trial seed from the :class:`~repro.scenarios.spec.RunPolicy`, which is
how multi-trial scenarios get independent samples from one spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.local_broadcast import make_lb_processes
from repro.core.params import LBParams, SeedParams
from repro.core.seed_agreement import SeedAgreementProcess
from repro.dualgraph.adversary import (
    AntiScheduleAdversary,
    CollisionAdaptiveAdversary,
    FullInclusionScheduler,
    IIDScheduler,
    NoUnreliableScheduler,
    PeriodicScheduler,
    TraceScheduler,
)
from repro.dualgraph.generators import (
    cluster_network,
    clique_network,
    grid_network,
    line_network,
    random_geographic_network,
    star_network,
    two_clusters_network,
)
from repro.scenarios.registry import (
    register_algorithm,
    register_environment,
    register_scheduler,
    register_topology,
)
from repro.simulation.environment import (
    BurstyEnvironment,
    NullEnvironment,
    SaturatingEnvironment,
    ScriptedEnvironment,
    SingleShotEnvironment,
)
from repro.simulation.process import ProcessContext

#: Network "density profiles" for degree-targeted sampling: approximate
#: reliable degree bound -> (n, side) for random geographic networks.  Degree
#: bounds are approximate by nature (the sample decides), which is fine
#: because experiments record the *measured* Δ of the network they used.
#: (Shared with ``benchmarks/common.py``, which re-exports it.)
DENSITY_PROFILES: Dict[int, Tuple[int, float]] = {
    4: (12, 4.2),
    8: (16, 3.5),
    10: (20, 3.0),
    12: (28, 3.3),
    16: (30, 2.6),
    20: (36, 2.6),
    24: (40, 2.4),
    32: (56, 2.4),
}


def network_with_target_degree(
    target_delta: int, seed: int, require_connected: bool = True
):
    """Sample a random geographic network whose Δ lands near the target."""
    if target_delta not in DENSITY_PROFILES:
        raise KeyError(
            f"no density profile for Δ≈{target_delta}; known targets: {sorted(DENSITY_PROFILES)}"
        )
    n, side = DENSITY_PROFILES[target_delta]
    return random_geographic_network(
        n, side=side, r=2.0, rng=seed, require_connected=require_connected, max_attempts=80
    )


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
@register_topology(
    "random_geographic", sample_args={"n": 16, "side": 3.2, "seed": 7}, trial_seeded=True
)
def _topology_random_geographic(
    trial_seed: int,
    n: int,
    side: float = 4.0,
    r: float = 2.0,
    seed: Optional[int] = None,
    grey_zone_edge_probability: Optional[float] = None,
    require_connected: bool = False,
    max_attempts: int = 50,
):
    return random_geographic_network(
        n,
        side=side,
        r=r,
        rng=seed if seed is not None else trial_seed,
        grey_zone_edge_probability=grey_zone_edge_probability,
        require_connected=require_connected,
        max_attempts=max_attempts,
    )


@register_topology(
    "target_degree", sample_args={"target_delta": 8, "seed": 3}, trial_seeded=True
)
def _topology_target_degree(
    trial_seed: int,
    target_delta: int,
    seed: Optional[int] = None,
    require_connected: bool = True,
):
    return network_with_target_degree(
        target_delta,
        seed=seed if seed is not None else trial_seed,
        require_connected=require_connected,
    )


@register_topology("grid", sample_args={"rows": 3, "cols": 4})
def _topology_grid(trial_seed: int, rows: int, cols: int, spacing: float = 0.9, r: float = 2.0):
    return grid_network(rows, cols, spacing=spacing, r=r)


@register_topology("line", sample_args={"n": 6})
def _topology_line(trial_seed: int, n: int, spacing: float = 0.9, r: float = 2.0):
    return line_network(n, spacing=spacing, r=r)


@register_topology("clique", sample_args={"n": 6})
def _topology_clique(trial_seed: int, n: int, radius: float = 0.45, r: float = 2.0):
    return clique_network(n, radius=radius, r=r)


@register_topology("star", sample_args={"leaves": 5})
def _topology_star(trial_seed: int, leaves: int, r: float = 2.0):
    return star_network(leaves, r=r)


@register_topology(
    "cluster", sample_args={"clusters": 2, "cluster_size": 4, "seed": 11}, trial_seeded=True
)
def _topology_cluster(
    trial_seed: int,
    clusters: int,
    cluster_size: int,
    cluster_spacing: float = 1.5,
    cluster_radius: float = 0.4,
    r: float = 2.0,
    seed: Optional[int] = None,
):
    return cluster_network(
        clusters,
        cluster_size,
        cluster_spacing=cluster_spacing,
        cluster_radius=cluster_radius,
        r=r,
        rng=seed if seed is not None else trial_seed,
    )


@register_topology(
    "two_clusters", sample_args={"cluster_size": 5, "seed": 42}, trial_seeded=True
)
def _topology_two_clusters(
    trial_seed: int,
    cluster_size: int = 6,
    gap: float = 1.5,
    r: float = 2.0,
    seed: Optional[int] = None,
):
    return two_clusters_network(
        cluster_size=cluster_size,
        gap=gap,
        r=r,
        rng=seed if seed is not None else trial_seed,
    )


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
@register_scheduler("none")
def _scheduler_none(graph, trial_seed: int):
    return NoUnreliableScheduler(graph)


@register_scheduler("full")
def _scheduler_full(graph, trial_seed: int):
    return FullInclusionScheduler(graph)


@register_scheduler(
    "iid", sample_args={"probability": 0.5, "seed": 7}, trial_seeded=True
)
def _scheduler_iid(
    graph, trial_seed: int, probability: float = 0.5, seed: Optional[int] = None
):
    return IIDScheduler(
        graph, probability=probability, seed=seed if seed is not None else trial_seed
    )


@register_scheduler(
    "periodic", sample_args={"on_rounds": 3, "off_rounds": 2}, trial_seeded=True
)
def _scheduler_periodic(
    graph,
    trial_seed: int,
    on_rounds: int = 5,
    off_rounds: int = 5,
    stagger: bool = False,
    seed: Optional[int] = None,
):
    return PeriodicScheduler(
        graph,
        on_rounds=on_rounds,
        off_rounds=off_rounds,
        stagger=stagger,
        seed=seed if seed is not None else trial_seed,
    )


@register_scheduler("anti_schedule", sample_args={"victim": "decay"})
def _scheduler_anti_schedule(
    graph,
    trial_seed: int,
    victim: Optional[str] = None,
    victim_probabilities: Optional[List[float]] = None,
    threshold: Optional[float] = None,
    phase_offset: int = 0,
):
    """The targeted oblivious adversary; ``victim="decay"`` derives the
    victim probability cycle from Decay's schedule for the graph's Δ."""
    if victim_probabilities is None:
        if victim != "decay":
            raise ValueError(
                "anti_schedule needs either victim_probabilities or victim='decay'"
            )
        from repro.baselines.decay import decay_schedule

        victim_probabilities = list(decay_schedule(graph.max_reliable_degree))
    return AntiScheduleAdversary(
        graph,
        victim_probabilities,
        threshold=threshold,
        phase_offset=phase_offset,
    )


@register_scheduler("adaptive_collision")
def _scheduler_adaptive_collision(graph, trial_seed: int):
    """The collision-manufacturing adaptive adversary (outside the paper's
    model; the engine automatically falls back to the generic resolver)."""
    return CollisionAdaptiveAdversary(graph)


@register_scheduler("trace", sample_args={"schedule": [[], []]})
def _scheduler_trace(graph, trial_seed: int, schedule: List[List[List[Any]]], cycle: bool = True):
    return TraceScheduler(
        graph, [[tuple(pair) for pair in entry] for entry in schedule], cycle=cycle
    )


def _traffic_forecast(graph, traffic, trial_seed: int):
    """Per-vertex expected arrival rates (and sinks) from a ``TrafficSpec``.

    Builds a throwaway arrival process purely for its a-priori
    ``expected_rate`` view -- no stream bits are consumed, and every arrival
    kind's forecast is seed-independent, so schedulers built in different
    processes (materialize vs. delta prebuild) agree on the schedule.
    Returns ``(None, ())`` when the scenario declares no traffic, which the
    scheduler treats as a uniform unit forecast.
    """
    if traffic is None:
        return None, ()
    from repro.traffic.arrivals import build_arrival_process

    sources = resolve_senders(
        graph, traffic.sources if traffic.sources is not None else {"select": "all"}
    )
    seed = traffic.seed if traffic.seed is not None else trial_seed
    process = build_arrival_process(
        traffic.arrival.name,
        traffic.arrival.args,
        sources=sources,
        sinks=traffic.sinks,
        seed=seed,
    )
    rates = {v: process.expected_rate(v) for v in graph.vertices}
    return rates, tuple(traffic.sinks)


def _register_traffic_scheduler(variant: str):
    @register_scheduler(variant)
    def _build(
        graph,
        trial_seed: int,
        traffic=None,
        frame: Optional[int] = None,
        sinks: Optional[List[Any]] = None,
    ):
        from repro.traffic.schedulers import TrafficAwareScheduler

        rates, traffic_sinks = _traffic_forecast(graph, traffic, trial_seed)
        return TrafficAwareScheduler(
            graph,
            rates=rates,
            sinks=tuple(sinks) if sinks else traffic_sinks,
            frame=frame,
            variant=variant,
        )

    _build.__name__ = f"_scheduler_{variant}"
    _build.__doc__ = (
        f"The {variant!r} slot-frame scheduler of "
        "repro.traffic.schedulers.TrafficAwareScheduler, forecast-driven by "
        "the scenario's traffic spec (uniform forecast when none is declared)."
    )
    return _build


_register_traffic_scheduler("tasa")
_register_traffic_scheduler("longest_queue")


# ----------------------------------------------------------------------
# algorithms
# ----------------------------------------------------------------------
@dataclass
class AlgorithmBuild:
    """What an algorithm builder hands back to the scenario runtime.

    ``phase_length`` / ``tack_rounds`` / ``natural_rounds`` feed the
    :class:`~repro.scenarios.spec.RunPolicy` round units (``"phases"`` /
    ``"tack"`` / ``"algorithm"``); builders leave them ``None`` when the
    algorithm has no such structure (the baselines), in which case only the
    literal ``"rounds"`` unit applies.
    """

    processes: Dict[Hashable, Any]
    params: Any = None
    phase_length: Optional[int] = None
    tack_rounds: Optional[int] = None
    natural_rounds: Optional[int] = None
    extras: Dict[str, Any] = field(default_factory=dict)


@register_algorithm("lbalg", sample_args={"epsilon": 0.2, "preset": "small"})
def _algorithm_lbalg(
    graph,
    rng: random.Random,
    epsilon: float = 0.2,
    preset: str = "derived",
    r: float = 2.0,
    seed_reuse_phases: int = 1,
    delta_budget: Optional[int] = None,
    delta_prime_budget: Optional[int] = None,
    tprog_override: Optional[int] = None,
    tack_phases_override: Optional[int] = None,
    seed_phase_length_override: Optional[int] = None,
    params_only: bool = False,
) -> AlgorithmBuild:
    """LBAlg at every vertex, with parameters derived from the measured Δ, Δ'.

    ``preset="derived"`` is the full Appendix C.1 calculus;
    ``preset="small"`` is :meth:`~repro.core.params.LBParams.small_for_testing`
    (compact but structurally faithful -- what the engine benchmarks use).
    ``delta_budget`` / ``delta_prime_budget`` replace the measured degree
    bounds in the derivation -- the "processes only know the budgets, not the
    sampled maxima" configuration of the locality experiment (the schedule is
    then identical for every sampled network).  ``params_only=True`` resolves
    the derived parameters and round lengths without constructing the process
    population (the params-only resolution mode; see
    :meth:`repro.scenarios.registry.Registry.build`).
    """
    delta, delta_prime = graph.degree_bounds()
    if delta_budget is not None:
        delta = delta_budget
    if delta_prime_budget is not None:
        delta_prime = delta_prime_budget
    if preset == "derived":
        params = LBParams.derive(
            epsilon,
            delta=delta,
            delta_prime=delta_prime,
            r=r,
            tprog_override=tprog_override,
            tack_phases_override=tack_phases_override,
            seed_phase_length_override=seed_phase_length_override,
        )
    elif preset == "small":
        params = LBParams.small_for_testing(
            delta=delta, delta_prime=delta_prime, epsilon=epsilon, r=r
        )
    else:
        raise ValueError(f"unknown lbalg preset {preset!r}; expected 'derived' or 'small'")
    if params_only:
        processes: Dict[Hashable, Any] = {}
    else:
        processes = make_lb_processes(
            graph, params, rng, seed_reuse_phases=seed_reuse_phases
        )
    return AlgorithmBuild(
        processes=processes,
        params=params,
        phase_length=params.phase_length,
        tack_rounds=params.tack_rounds,
        natural_rounds=params.tack_rounds,
    )


@register_algorithm("seed_agreement", sample_args={"epsilon": 0.2})
def _algorithm_seed_agreement(
    graph,
    rng: random.Random,
    epsilon: float = 0.1,
    r: float = 2.0,
    phase_length_override: Optional[int] = None,
    emit_decides: bool = True,
    params_only: bool = False,
) -> AlgorithmBuild:
    """Standalone SeedAlg at every vertex (the Section 3 primitive).

    ``params_only=True`` resolves the derived :class:`SeedParams` (and the
    phase/total round lengths) without building any process.
    """
    delta, delta_prime = graph.degree_bounds()
    params = SeedParams.derive(
        epsilon, delta=delta, r=r, phase_length_override=phase_length_override
    )
    if params_only:
        return AlgorithmBuild(
            processes={},
            params=params,
            phase_length=params.phase_length,
            natural_rounds=params.total_rounds,
        )
    # Natural vertex order (falling back to repr for mixed types): this is the
    # order the pre-spec SeedAlg experiments assigned per-vertex RNGs in, so
    # migrating them onto specs keeps their published outputs.
    try:
        ordered = sorted(graph.vertices)
    except TypeError:
        ordered = sorted(graph.vertices, key=repr)
    processes: Dict[Hashable, Any] = {}
    for vertex in ordered:
        ctx = ProcessContext(
            vertex=vertex,
            delta=delta,
            delta_prime=delta_prime,
            r=r,
            rng=random.Random(rng.getrandbits(64)),
        )
        processes[vertex] = SeedAgreementProcess(ctx, params, emit_decides=emit_decides)
    return AlgorithmBuild(
        processes=processes,
        params=params,
        phase_length=params.phase_length,
        natural_rounds=params.total_rounds,
    )


def _register_baseline(kind: str, sample_args: Mapping[str, Any]):
    @register_algorithm(kind, sample_args=sample_args)
    def _build(graph, rng: random.Random, r: float = 2.0, **kwargs) -> AlgorithmBuild:
        from repro.baselines.factory import make_baseline_processes

        return AlgorithmBuild(
            processes=make_baseline_processes(graph, kind, rng, r=r, **kwargs)
        )

    _build.__name__ = f"_algorithm_{kind}"
    _build.__doc__ = f"The {kind!r} baseline broadcast strategy at every vertex."
    return _build


_register_baseline("decay", {"num_cycles": 4})
_register_baseline("uniform", {})
_register_baseline("round_robin", {})


@register_algorithm("flood", sample_args={"epsilon": 0.2, "source": 0})
def _algorithm_flood(
    graph,
    rng: random.Random,
    epsilon: float = 0.2,
    source: Hashable = 0,
    r: float = 2.0,
    compact_tack: bool = False,
    flood_id: str = "flood",
) -> AlgorithmBuild:
    """Global broadcast by flooding over the LBAlg-backed abstract MAC layer.

    The spec-expressible form of :func:`repro.mac.applications.flood.run_flood`:
    one :class:`~repro.mac.applications.flood.FloodClient` per vertex behind
    :func:`~repro.mac.adapter.make_mac_nodes`, parameters derived from the
    measured (Δ, Δ').  ``compact_tack=True`` applies the E8 harness's
    ``tack_phases_override=max(2, delta_prime)`` -- the flood only needs
    delivery to the next hop, so a compact sending period keeps the
    experiment fast while preserving the ``D * f_ack`` shape being measured.

    The natural round budget is ``(eccentricity(source) + 2) *
    (tack_phases + 1)`` phases, ``run_flood``'s default cap; the live clients
    ride along in ``extras["flood_clients"]`` for the ``flood`` metric, whose
    per-vertex receipt state is fixed once the token lands, so the metric
    row does not depend on where inside the cap the flood completed.
    """
    from repro.mac.adapter import make_mac_nodes
    from repro.mac.applications.flood import FloodClient

    if source not in graph:
        raise KeyError(f"flood source vertex {source!r} is not in the graph")
    delta, delta_prime = graph.degree_bounds()
    params = LBParams.derive(
        epsilon,
        delta=delta,
        delta_prime=delta_prime,
        r=r,
        tack_phases_override=max(2, delta_prime) if compact_tack else None,
    )
    clients = {
        vertex: FloodClient(vertex, is_source=(vertex == source), flood_id=flood_id)
        for vertex in graph.vertices
    }
    nodes = make_mac_nodes(graph, params, lambda v: clients[v], rng)
    max_phases = (graph.reliable_eccentricity(source) + 2) * (params.tack_phases + 1)
    return AlgorithmBuild(
        processes=nodes,
        params=params,
        phase_length=params.phase_length,
        tack_rounds=params.tack_rounds,
        natural_rounds=max_phases * params.phase_length,
        extras={"flood_clients": clients, "flood_source": source},
    )


# ----------------------------------------------------------------------
# environments
# ----------------------------------------------------------------------
def resolve_senders(graph, senders: Any, embedding: Any = None) -> List[Hashable]:
    """Resolve a declarative sender selection against a materialized graph.

    Accepted forms:

    * an explicit list of vertices (used verbatim);
    * ``{"select": "all"}`` -- every vertex, sorted;
    * ``{"select": "first", "count": k}`` -- the first ``k`` vertices in
      sorted order;
    * ``{"select": "first", "divisor": d, "min": m}`` -- the first
      ``max(m, n // d)`` vertices (the benchmark suite's contention recipe);
    * ``{"select": "degree_top", "count": k}`` -- the ``k`` highest reliable
      degree vertices (ties broken by sort order);
    * ``{"select": "center_probe_neighbors", "count": k}`` -- the first ``k``
      sorted reliable neighbors of the vertex embedded nearest the center of
      the deployment area (:func:`repro.dualgraph.geometric.central_vertex`);
      the probe itself when it has no reliable neighbor.  Needs the trial's
      ``embedding`` (environment builders declare an ``embedding`` keyword to
      receive it; see :meth:`repro.scenarios.registry.Registry.build`).  The
      E9 locality experiment's contention recipe: saturate the probe's
      immediate neighborhood, wherever the sample put it.
    """
    if isinstance(senders, (list, tuple)):
        return list(senders)
    if not isinstance(senders, Mapping):
        raise TypeError(
            f"senders must be a list of vertices or a selection mapping, got {senders!r}"
        )
    select = senders.get("select")
    ordered = sorted(graph.vertices)
    if select == "all":
        return ordered
    if select == "first":
        if "count" in senders:
            count = int(senders["count"])
        elif "divisor" in senders:
            count = max(int(senders.get("min", 1)), graph.n // int(senders["divisor"]))
        else:
            raise ValueError("senders select='first' needs 'count' or 'divisor'")
        return ordered[:count]
    if select == "degree_top":
        count = int(senders["count"])
        by_degree = sorted(
            ordered, key=lambda v: len(graph.reliable_neighbors(v)), reverse=True
        )
        return by_degree[:count]
    if select == "center_probe_neighbors":
        if embedding is None:
            raise ValueError(
                "senders select='center_probe_neighbors' needs the trial's "
                "embedding (only embedding-aware environments can resolve it)"
            )
        from repro.dualgraph.geometric import central_vertex

        probe = central_vertex(graph, embedding)
        count = int(senders.get("count", 1))
        neighbors = sorted(graph.reliable_neighbors(probe))
        return neighbors[:count] if neighbors else [probe]
    if select == "receiver_trap":
        # The E6 adversary-resilience recipe: one reliable neighbor of the
        # silent receiver carries the probe, and everything from `cutoff`
        # up (the far cluster of a two_clusters topology) saturates the
        # unreliable bridge.  The receiver itself never sends.
        receiver = senders.get("receiver", 0)
        cutoff = int(senders["cutoff"])
        neighbors = sorted(graph.reliable_neighbors(receiver))
        if not neighbors:
            raise ValueError(
                f"senders select='receiver_trap': receiver {receiver!r} has no "
                "reliable neighbor to carry the probe"
            )
        far = [v for v in ordered if isinstance(v, int) and v >= cutoff]
        return [neighbors[0]] + far
    raise ValueError(
        f"unknown senders selection {select!r}; expected 'all', 'first', "
        "'degree_top', 'center_probe_neighbors' or 'receiver_trap'"
    )


@register_environment("null")
def _environment_null(graph):
    return NullEnvironment()


@register_environment(
    "single_shot",
    sample_args={"senders": {"select": "first", "count": 1}},
)
def _environment_single_shot(
    graph,
    senders: Any,
    start_round: int = 1,
    payload_prefix: str = "msg-",
    embedding: Any = None,
):
    return SingleShotEnvironment(
        senders=resolve_senders(graph, senders, embedding=embedding),
        start_round=start_round,
        payload_prefix=payload_prefix,
    )


@register_environment(
    "saturating", sample_args={"senders": {"select": "first", "count": 2}}
)
def _environment_saturating(graph, senders: Any, start_round: int = 1, embedding: Any = None):
    return SaturatingEnvironment(
        senders=resolve_senders(graph, senders, embedding=embedding),
        start_round=start_round,
    )


@register_environment(
    "bursty", sample_args={"senders": {"select": "first", "count": 2}, "period": 25}
)
def _environment_bursty(
    graph, senders: Any, period: int = 50, start_round: int = 1, embedding: Any = None
):
    return BurstyEnvironment(
        senders=resolve_senders(graph, senders, embedding=embedding),
        period=period,
        start_round=start_round,
    )


@register_environment(
    "queued",
    sample_args={"arrival": {"name": "periodic", "args": {"period": 5}}},
    trial_seeded=True,
)
def _environment_queued(
    graph,
    traffic=None,
    arrival: Optional[Mapping[str, Any]] = None,
    capacity: Optional[int] = None,
    sources: Any = None,
    sinks: Optional[List[Any]] = None,
    seed: Optional[int] = None,
    trial_seed: int = 0,
    embedding: Any = None,
):
    """The queue-backed environment of :mod:`repro.traffic`.

    Configuration comes from the scenario's ``traffic`` node when one is
    declared (the normal path); inline args of the same names override its
    fields, and standalone use (no traffic node) configures entirely inline.
    The arrival seed defaults to the trial seed, so multi-trial runs draw
    independent realizations unless the spec pins one.
    """
    arrival_name: Optional[str] = None
    arrival_args: Mapping[str, Any] = {}
    resolved_capacity = 0
    resolved_sources: Any = None
    resolved_sinks: Tuple[Any, ...] = ()
    resolved_seed: Optional[int] = None
    if traffic is not None:
        arrival_name = traffic.arrival.name
        arrival_args = traffic.arrival.args
        resolved_capacity = traffic.capacity
        resolved_sources = traffic.sources
        resolved_sinks = traffic.sinks
        resolved_seed = traffic.seed
    if arrival is not None:
        arrival_name = arrival["name"]
        arrival_args = arrival.get("args", {})
    if capacity is not None:
        resolved_capacity = capacity
    if sources is not None:
        resolved_sources = sources
    if sinks is not None:
        resolved_sinks = tuple(sinks)
    if seed is not None:
        resolved_seed = seed
    if arrival_name is None:
        raise ValueError(
            "the 'queued' environment needs an arrival process: declare a "
            "'traffic' node on the scenario or pass an inline 'arrival' arg"
        )
    source_vertices = resolve_senders(
        graph,
        resolved_sources if resolved_sources is not None else {"select": "all"},
        embedding=embedding,
    )
    from repro.traffic.arrivals import build_arrival_process
    from repro.traffic.environment import QueuedEnvironment

    process = build_arrival_process(
        arrival_name,
        arrival_args,
        sources=source_vertices,
        sinks=resolved_sinks,
        seed=resolved_seed if resolved_seed is not None else trial_seed,
    )
    return QueuedEnvironment(graph, process, capacity=resolved_capacity)


@register_environment("scripted", sample_args={"script": {"1": {"0": "hello"}}})
def _environment_scripted(graph, script: Mapping[str, Mapping[str, Any]]):
    """A :class:`ScriptedEnvironment` from JSON.

    JSON object keys are strings; round keys are converted to ``int`` and
    vertex keys are converted to ``int`` when the graph's vertices are ints
    (the case for every registered topology), otherwise used verbatim.
    """
    int_vertices = all(isinstance(v, int) for v in graph.vertices)

    def vertex_key(key: Any) -> Any:
        if int_vertices and isinstance(key, str):
            return int(key)
        return key

    converted = {
        int(round_key): {vertex_key(v): payload for v, payload in entries.items()}
        for round_key, entries in script.items()
    }
    return ScriptedEnvironment(converted)
