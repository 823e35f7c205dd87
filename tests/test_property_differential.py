"""Differential fuzzing of the production engine against the reference.

Hypothesis draws random :class:`~repro.scenarios.spec.ScenarioSpec` trees
from the component registries' ``sample_args`` -- topology x scheduler x
algorithm x environment (``queued`` included, with a drawn arrival kind and
queue capacity) x trace mode -- and checks that the production engine
(bitmask kernel resolver, batched cohort stepping) observes exactly the
execution of the ``engine.fast_path=False`` reference, and a queued trial
gives the same ``queue`` metric columns; that every ``lbalg`` and ``flood``
execution meets the deterministic half of the LB specification (timely ack
and validity),
that every ``seed_agreement`` execution meets the deterministic conditions
of ``Seed(δ, ε)`` (consistency, at most one decide per vertex, and
well-formedness once the run covers SeedAlg's rounds), and that the spec
survives a JSON round trip with its fingerprint.  Half the draws are
``lbalg`` or ``flood`` (LBAlg under the MAC clients' environment), run for
whole phases, so bodies, coin-only rounds, acknowledgments and the
submissions that follow them are covered.  Both sides run in
several ``run()`` calls split at the same drawn rounds -- for those two
also inside a body and inside a seed phase, where private coins would be
drawn ahead of the boundary -- so silent-round and coin-only skipping are
checked across run-boundary flushes and mid-body cohort rebuilds, and every
process's RNG state must match the reference's at every boundary.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lb_spec import check_lb_execution
from repro.core.seed_spec import check_seed_execution
from repro.scenarios import (
    ALGORITHMS,
    ENVIRONMENTS,
    METRICS,
    SCHEDULERS,
    TOPOLOGIES,
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricContext,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    materialize,
)
from repro.simulation.trace import TraceMode

SCHEDULER_NAMES = (
    "iid",
    "periodic",
    "none",
    "full",
    "anti_schedule",
    "adaptive_collision",
    "trace",
    "tasa",
)
TRACE_MODES = tuple(mode.value for mode in TraceMode)
SENDER_ENVIRONMENTS = ("single_shot", "saturating", "bursty")
#: The algorithms whose processes are LBAlg (``flood`` under MAC clients).
LB_ALGORITHMS = ("lbalg", "flood")


def _sample_graph(topology: TopologySpec, master_seed: int):
    return TOPOLOGIES.get(topology.name)(master_seed, **topology.args)[0]


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    master_seed = draw(st.integers(0, 2**16))
    topology_name = draw(st.sampled_from(TOPOLOGIES.names()))
    topology_args = TOPOLOGIES.sample_args(topology_name)
    if "seed" in topology_args:
        topology_args["seed"] = draw(st.integers(0, 50))
    topology = TopologySpec(topology_name, topology_args)

    scheduler_name = draw(st.sampled_from(SCHEDULER_NAMES))
    scheduler_args = SCHEDULERS.sample_args(scheduler_name)
    if scheduler_name == "iid":
        scheduler_args["probability"] = draw(st.sampled_from((0.1, 0.5, 0.9)))
        scheduler_args["seed"] = draw(st.integers(0, 50))
    elif scheduler_name == "trace":
        # A short cyclic schedule over the sampled graph's unreliable edges.
        graph = _sample_graph(topology, master_seed)
        edges = sorted(
            (sorted(edge, key=repr) for edge in graph.unreliable_edges), key=repr
        )
        if edges:
            scheduler_args["schedule"] = draw(
                st.lists(
                    st.lists(st.sampled_from(edges), max_size=6, unique_by=repr),
                    min_size=1,
                    max_size=4,
                )
            )

    # Half the draws are LBAlg populations (bare or under the flood's MAC
    # clients), whose bodies and coin-only rounds are the subtlest to skip.
    algorithm_name = draw(
        st.sampled_from(LB_ALGORITHMS) | st.sampled_from(ALGORITHMS.names())
    )
    algorithm_args = ALGORITHMS.sample_args(algorithm_name)
    if algorithm_name == "lbalg":
        # Reuse factors above 1 put same-seed senders at different cursors
        # in one body (cohorts that start sending in a reused-seed phase).
        algorithm_args["seed_reuse_phases"] = draw(st.sampled_from((1, 2, 3)))
    elif algorithm_name == "flood":
        # A compact sending period lets small networks relay and acknowledge
        # within the drawn phases.
        algorithm_args["compact_tack"] = True
    if algorithm_name in LB_ALGORITHMS:
        # Whole phases: every run covers seed phases and bodies, and past
        # tack_phases + 1 of them acknowledgments and the submissions after.
        run_rounds, run_unit = draw(st.sampled_from(range(1, 9))), "phases"
    else:
        run_rounds, run_unit = draw(st.integers(1, 120)), "rounds"
    # The flood brings its own environment (the MAC clients).
    environment_name = (
        "null" if algorithm_name == "flood" else draw(st.sampled_from(ENVIRONMENTS.names()))
    )
    environment_args = ENVIRONMENTS.sample_args(environment_name)
    if environment_name in SENDER_ENVIRONMENTS:
        environment_args["senders"] = {
            "select": "first",
            "count": draw(st.integers(1, 4)),
        }
    elif environment_name == "queued":
        kind = draw(st.sampled_from(("poisson", "periodic", "bursty", "convergecast")))
        if kind in ("poisson", "convergecast"):
            arrival_args = {"rate": draw(st.sampled_from((0.01, 0.05, 0.2, 0.6)))}
        else:
            arrival_args = {"period": draw(st.integers(2, 12))}
            if kind == "bursty":
                arrival_args["burst"] = draw(st.integers(1, 4))
        environment_args["arrival"] = {"name": kind, "args": arrival_args}
        environment_args["capacity"] = draw(st.integers(0, 3))
        if kind == "convergecast":
            environment_args["sinks"] = [0]

    return ScenarioSpec(
        name="differential",
        topology=topology,
        algorithm=AlgorithmSpec(algorithm_name, algorithm_args),
        scheduler=SchedulerSpec(scheduler_name, scheduler_args),
        environment=EnvironmentSpec(environment_name, environment_args),
        run=RunPolicy(
            rounds=run_rounds,
            rounds_unit=run_unit,
            master_seed=master_seed,
            seed_policy="fixed",
        ),
        engine=EngineConfig(trace_mode=draw(st.sampled_from(TRACE_MODES))),
    )


def _queue_row(built, trace):
    """The ``queue`` metric columns of one executed queued trial."""
    context = MetricContext(
        trace=trace, graph=built.graph, rounds=trace.num_rounds, environment=built.environment
    )
    return METRICS.get("queue")(context)


def _rng_states(simulator):
    return {
        vertex: simulator.process_at(vertex).rng.getstate()
        for vertex in simulator.graph.vertices
    }


def _execute(spec: ScenarioSpec, splits=()):
    """Materialize and run ``spec`` in one ``run()`` call per stretch
    between the ``splits`` (rounds, capped at the run's length); return the
    build, the trace and every process's RNG state at each boundary."""
    built = materialize(spec)
    simulator = built.simulator
    states = []
    for split in sorted(set(splits)):
        if simulator.current_round < split < built.total_rounds:
            simulator.run(split - simulator.current_round)
            states.append(_rng_states(simulator))
    trace = simulator.run(built.total_rounds - simulator.current_round)
    states.append(_rng_states(simulator))
    return built, trace, states


def _lbalg_split_anchors(built):
    """Boundaries inside an LBAlg body (between its start and its phase end)
    and inside a seed phase (past its election), where a run that went on
    would have drawn private coins ahead."""
    params = built.params
    length, ts = params.phase_length, params.ts
    seed_length = params.seed_params.phase_length
    anchors = []
    for start in range(0, built.total_rounds, length):
        anchors.extend(range(start + ts + 1, start + length - 1))
        for seed_start in range(start, start + ts, seed_length):
            anchors.extend(range(seed_start + 1, min(seed_start + seed_length, start + ts)))
    return anchors


def _check_production_trace(spec: ScenarioSpec, reference_batched: bool, draw_splits):
    """Run ``spec`` on the production engine and on the reference, split at
    the same rounds (``draw_splits(built)`` picks them), assert they observe
    one execution with equal RNG states at every boundary and that it meets
    the deterministic spec clauses; return the production build."""
    splits = draw_splits(materialize(spec))
    built, production, states = _execute(spec, splits)
    reference_built, reference, reference_states = _execute(
        spec.with_overrides(
            {"engine.fast_path": False, "engine.batch_path": reference_batched}
        ),
        splits,
    )
    assert states == reference_states
    assert reference_built.simulator.lane == "reference"
    assert built.simulator.lane in ("reference", "kernel")

    assert production.num_rounds == reference.num_rounds
    if spec.environment.name == "queued":
        # Skipped rounds realize their arrivals and backlog samples through
        # the environment, which trace identity alone never sees.
        assert _queue_row(built, production) == _queue_row(reference_built, reference)
    assert production.event_counts == reference.event_counts
    assert production.num_transmissions == reference.num_transmissions
    assert production.num_receptions == reference.num_receptions
    if spec.engine.trace_mode != "counters":
        assert production.events == reference.events
    if spec.engine.trace_mode == "full":
        for round_number in range(1, production.num_rounds + 1):
            assert production.transmissions_in_round(
                round_number
            ) == reference.transmissions_in_round(round_number)
            assert production.receptions_in_round(
                round_number
            ) == reference.receptions_in_round(round_number)
    # The LB guarantees are stated against oblivious link schedulers,
    # fixed before the execution as every other drawn scheduler is (tasa
    # included); adaptive_collision reads the round's transmitters, so it
    # is left out.  A counters trace records no events to check.
    if (
        spec.algorithm.name in LB_ALGORITHMS
        and spec.scheduler.name != "adaptive_collision"
        and spec.engine.trace_mode != "counters"
    ):
        params = built.params
        report = check_lb_execution(
            production,
            built.graph,
            params.tack_rounds,
            params.tprog_rounds,
            check_progress=False,
        )
        assert report.deterministic_ok, (
            report.timely_ack_violations,
            report.validity_violations,
        )
    # Consistency and single decides hold in every SeedAlg execution, under
    # any scheduler; every vertex has decided only once the run covers
    # SeedAlg's rounds (the drawn 1-120 rounds may end before that).
    if spec.algorithm.name == "seed_agreement" and spec.engine.trace_mode != "counters":
        params = built.params
        report = check_seed_execution(production, built.graph, params.delta_bound)
        assert report.consistent, report.consistency_violations
        decides = production.decides_by_vertex()
        assert all(len(events) == 1 for events in decides.values()), decides
        if production.num_rounds >= params.total_rounds:
            assert report.well_formed, report.well_formedness_violations
    return built


class TestProductionMatchesReference:
    def test_production_trace_equals_reference(self):
        """Both sides run split at up to three drawn rounds (for ``lbalg``
        and ``flood`` also drawn from inside bodies and seed phases), so
        skipped silent and coin-only rounds cross the run-boundary flush and
        mid-body cohort rebuilds; some drawn examples must skip."""
        skipped = []

        @given(scenario_specs(), st.booleans(), st.data())
        @settings(max_examples=150, deadline=None)
        def check(spec, reference_batched, data):
            def draw_splits(built):
                rounds = st.integers(0, 120)
                if spec.algorithm.name in LB_ALGORITHMS:
                    anchors = _lbalg_split_anchors(built)
                    if anchors:
                        rounds = rounds | st.sampled_from(anchors)
                return data.draw(st.lists(rounds, max_size=3), label="splits")

            built = _check_production_trace(spec, reference_batched, draw_splits)
            skipped.append(built.simulator.perf_stats["rounds_skipped"])

        check()
        assert any(skipped), "no drawn example skipped a silent round"

    @given(scenario_specs())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_keeps_the_fingerprint(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()
