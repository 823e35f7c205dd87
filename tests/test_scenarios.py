"""Tests for the declarative scenario layer (specs, registries, runtime, CLI).

Pinned contracts:

* every registered component round-trips through spec JSON and actually
  materializes (the registry's ``sample_args`` must stay runnable);
* ``fingerprint()`` is a pure function of the serialized spec -- identical
  across processes and hash seeds;
* registries fail loudly on duplicate and unknown names;
* a spec-built simulator observes *byte-identical* executions to the
  equivalent hand-built one (LBAlg + IID, the acceptance workload);
* ``run``'s live serial loop and its record mode (a pool or a store) run
  the same trials with the same seeds and rounds;
* ``run_many`` runs as a suite whose pool workers receive serialized specs
  (not closures), produces worker-count-independent rows, and is served
  from the result store on a rerun;
* the disk-backed scheduler-delta table skips recomputation on re-use.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC_DIR = os.path.join(REPO_ROOT, "src")
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

from repro import (
    IIDScheduler,
    LBParams,
    Simulator,
    SingleShotEnvironment,
    make_lb_processes,
    random_geographic_network,
)
from repro.scenarios import (
    ALGORITHMS,
    ENVIRONMENTS,
    METRICS,
    SCHEDULERS,
    TOPOLOGIES,
    AlgorithmSpec,
    EnvironmentSpec,
    Registry,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    SuiteSpec,
    TopologySpec,
    build,
    materialize,
    prebuild_delta_table,
    run,
    run_many,
)
from repro.analysis.sweep import iter_grid_points
from repro.scenarios import suite as suite_module
from repro.scenarios.cli import main as cli_main
from repro.scenarios.runtime import trial_record
from repro.scenarios.store import ResultStore, trial_key
from repro.scenarios.suite import run_suite_task
from repro.simulation.trace import TraceMode


def small_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        name="test-scenario",
        topology=TopologySpec(
            "random_geographic", {"n": 14, "side": 3.2, "seed": 5, "require_connected": True}
        ),
        algorithm=AlgorithmSpec("lbalg", {"epsilon": 0.2, "preset": "small"}),
        scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": 5}),
        environment=EnvironmentSpec("single_shot", {"senders": [0]}),
        run=RunPolicy(rounds=2, rounds_unit="phases", master_seed=5, seed_policy="fixed"),
    )
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


class TestSpecSerialization:
    def test_json_round_trip_preserves_spec_and_fingerprint(self):
        spec = small_spec()
        text = spec.to_json()
        restored = ScenarioSpec.from_json(text)
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("name", TOPOLOGIES.names())
    def test_every_topology_round_trips_and_materializes(self, name):
        spec = small_spec(
            **{"topology.name": name, "run.rounds_unit": "rounds", "run.rounds": 2}
        )
        spec = spec.with_overrides({"topology.args": TOPOLOGIES.sample_args(name)})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec and restored.fingerprint() == spec.fingerprint()
        built = materialize(restored)
        assert built.graph.n >= 1

    @pytest.mark.parametrize("name", SCHEDULERS.names())
    def test_every_scheduler_round_trips_and_materializes(self, name):
        spec = small_spec(
            **{
                "scheduler.name": name,
                "scheduler.args": SCHEDULERS.sample_args(name),
                "run.rounds_unit": "rounds",
                "run.rounds": 3,
            }
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec and restored.fingerprint() == spec.fingerprint()
        result = run(restored, keep=False)
        assert result.metrics["rounds"] == 3

    @pytest.mark.parametrize("name", ALGORITHMS.names())
    def test_every_algorithm_round_trips_and_materializes(self, name):
        # flood brings its own (MAC client) environment; the spec's is null.
        environment = (
            {"environment.name": "null", "environment.args": {}}
            if name == "flood"
            else {
                "environment.name": "saturating",
                "environment.args": {"senders": {"select": "first", "count": 2}},
            }
        )
        spec = small_spec(
            **{
                "algorithm.name": name,
                "algorithm.args": ALGORITHMS.sample_args(name),
                **environment,
                "run.rounds_unit": "rounds",
                "run.rounds": 4,
            }
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec and restored.fingerprint() == spec.fingerprint()
        result = run(restored, keep=False)
        assert result.metrics["rounds"] == 4

    @pytest.mark.parametrize("name", ENVIRONMENTS.names())
    def test_every_environment_round_trips_and_materializes(self, name):
        spec = small_spec(
            **{
                "environment.name": name,
                "environment.args": ENVIRONMENTS.sample_args(name),
                "run.rounds_unit": "rounds",
                "run.rounds": 3,
            }
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec and restored.fingerprint() == spec.fingerprint()
        result = run(restored, keep=False)
        assert result.metrics["rounds"] == 3

    def test_unknown_spec_keys_are_rejected(self):
        data = small_spec().to_dict()
        data["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            ScenarioSpec.from_dict(data)
        engine = small_spec().to_dict()
        engine["engine"]["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            ScenarioSpec.from_dict(engine)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("rounds", 2.5),
            ("rounds", "3"),
            ("master_seed", 1.5),
            ("master_seed", False),
        ],
    )
    def test_run_policy_rejects_non_integers(self, field, value):
        data = small_spec().to_dict()
        data["run"][field] = value
        with pytest.raises(TypeError, match=f"run {field} must be an integer"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(TypeError, match=f"run {field} must be an integer"):
            RunPolicy(**{field: value})

    def test_non_json_args_are_rejected(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            TopologySpec("grid", {"rows": object()})

    def test_overrides_apply_and_validate(self):
        spec = small_spec()
        varied = spec.with_overrides({"scheduler.args.probability": 0.25, "run.trials": 2})
        assert varied.scheduler.args["probability"] == 0.25
        assert varied.run.trials == 2
        assert varied.fingerprint() != spec.fingerprint()
        with pytest.raises(KeyError, match="does not resolve"):
            spec.with_overrides({"scheduler.args.probability.deep": 1})

    def test_variants_follow_canonical_grid_order(self):
        spec = small_spec()
        variants = spec.variants({"scheduler.args.probability": [0.1, 0.9]})
        assert [v.scheduler.args["probability"] for v in variants] == [0.1, 0.9]


class TestFingerprint:
    def test_fingerprint_is_stable_across_processes_and_hash_seeds(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.save(str(path))
        script = (
            "import sys; from repro.scenarios import ScenarioSpec; "
            "print(ScenarioSpec.load(sys.argv[1]).fingerprint())"
        )
        prints = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            prints.append(proc.stdout.strip())
        assert prints[0] == prints[1] == spec.fingerprint()

    def test_fingerprint_changes_with_content(self):
        spec = small_spec()
        assert spec.fingerprint() != spec.with_overrides({"run.master_seed": 6}).fingerprint()
        assert (
            spec.fingerprint()
            != spec.with_overrides({"topology.args.n": 15}).fingerprint()
        )


class TestLegacyEngineKeys:
    """Removed engine knobs (``vector_path``, ``kernel``, ``profile``) stay
    loadable."""

    #: ``trial_key(small_spec(), 0)``, as computed when the knobs still
    #: existed: stores filled back then must keep hitting.
    PINNED_TRIAL_KEY = "f77fb39d3c9c81dd0227aa1234993234"

    @pytest.mark.parametrize(
        "legacy",
        [
            {"vector_path": False},
            {"vector_path": True},
            {"kernel": "off"},
            {"kernel": "python"},
            {"kernel": "numpy"},
            {"kernel": "auto"},
            {"vector_path": False, "kernel": "numpy"},
            {"profile": False},
            {"profile": True},
        ],
    )
    def test_legacy_keys_load_as_the_default_spec(self, legacy):
        base = small_spec()
        data = base.to_dict()
        data["engine"].update(legacy)
        loaded = ScenarioSpec.from_dict(data)
        assert loaded == base
        assert loaded.fingerprint() == base.fingerprint()
        assert trial_key(loaded, 0) == trial_key(base, 0) == self.PINNED_TRIAL_KEY
        overridden = base.with_overrides({f"engine.{k}": v for k, v in legacy.items()})
        assert overridden == base

    def test_legacy_keys_leave_the_serialized_form(self):
        engine_keys = set(small_spec().engine.to_dict())
        assert engine_keys == {"fast_path", "batch_path", "trace_mode"}

    def test_other_unknown_engine_keys_are_still_rejected(self):
        data = small_spec().to_dict()
        data["engine"]["warp_path"] = True
        with pytest.raises(ValueError, match="warp_path"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "path",
        sorted(
            glob.glob(os.path.join(EXAMPLES_DIR, "**", "*.json"), recursive=True)
        ),
        ids=os.path.basename,
    )
    def test_every_checked_in_example_loads(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if "entries" in data:
            spec = SuiteSpec.load(path)
        else:
            spec = ScenarioSpec.load(path)
        assert spec.fingerprint()


class TestRegistries:
    def test_duplicate_registration_raises(self):
        registry = Registry("widget")

        @registry.register("thing")
        def _build_thing():
            return 1

        with pytest.raises(ValueError, match="duplicate widget registration"):

            @registry.register("thing")
            def _build_thing_again():
                return 2

    def test_build_passes_only_declared_context_keywords(self):
        registry = Registry("widget")

        @registry.register("plain")
        def _build_plain(graph, size=1, **extra):
            return ("plain", graph, size, extra)

        @registry.register("aware")
        def _build_aware(graph, size=1, traffic=None):
            return ("aware", graph, size, traffic)

        context = {"traffic": "load", "trial_seed": 9}
        plain = registry.build("plain", "g", context=context, size=2)
        assert plain == ("plain", "g", 2, {})
        assert registry.build("aware", "g", context=context) == ("aware", "g", 1, "load")
        assert registry.accepts("aware", "traffic")
        assert not registry.accepts("plain", "traffic")
        with pytest.raises(KeyError, match="registered widget names"):
            registry.build("gadget", "g", context=context)

    def test_trial_seeded_metadata_is_recorded(self):
        assert TOPOLOGIES.is_trial_seeded("random_geographic")
        assert TOPOLOGIES.is_trial_seeded("target_degree")
        assert not TOPOLOGIES.is_trial_seeded("grid")
        assert SCHEDULERS.is_trial_seeded("iid")
        assert not SCHEDULERS.is_trial_seeded("full")
        with pytest.raises(KeyError):
            TOPOLOGIES.is_trial_seeded("moebius_strip")

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="registered topology names"):
            TOPOLOGIES.get("moebius_strip")
        with pytest.raises(KeyError, match="registered algorithm names"):
            ALGORITHMS.get("gossip")
        spec = small_spec(**{"scheduler.name": "quantum"})
        with pytest.raises(KeyError, match="unknown scheduler 'quantum'"):
            build(spec)


QUEUED_ARRIVAL = {"name": "periodic", "args": {"period": 5}}


class TestComponentArgChecks:
    """Args the runtime supplies, or the builder lacks, fail at load."""

    @pytest.mark.parametrize(
        "path, component, message",
        [
            (
                "environment",
                {"name": "queued", "args": {"arrival": QUEUED_ARRIVAL, "trial_seed": 3}},
                "environment 'queued': arg 'trial_seed' is passed by the runtime",
            ),
            (
                "scheduler",
                {"name": "tasa", "args": {"traffic": {}}},
                "scheduler 'tasa': arg 'traffic' is passed by the runtime",
            ),
            (
                "scheduler",
                {"name": "periodic", "args": {"period": 3}},
                "scheduler 'periodic' has no arg 'period'",
            ),
            (
                "topology",
                {"name": "grid", "args": {"rows": 2, "cols": 2, "trial_seed": 1}},
                "topology 'grid': arg 'trial_seed' is passed by the runtime",
            ),
            (
                "algorithm",
                {"name": "lbalg", "args": {"params_only": True}},
                "algorithm 'lbalg': arg 'params_only' is passed by the runtime",
            ),
            (
                "metrics",
                [{"name": "progress", "args": {"windows": 3}}],
                "metric 'progress' has no arg 'windows'",
            ),
        ],
    )
    def test_bad_args_fail_at_load(self, tmp_path, path, component, message):
        data = small_spec().to_dict()
        data[path] = component
        with pytest.raises(ValueError, match=message):
            SuiteSpec.from_dict({"name": "bad", "entries": [{"scenario": data}]})
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.load(str(scenario_file))

    def test_construction_allows_a_rename_before_its_args(self):
        # Overrides may rename a component before replacing its args.
        spec = small_spec(**{"topology.name": "grid"})
        assert spec.topology.args["require_connected"] is True
        with pytest.raises(ValueError, match="topology 'grid' has no arg 'n'"):
            spec.check_component_args()
        fixed = spec.with_overrides({"topology.args": {"rows": 2, "cols": 3}})
        fixed.check_component_args()

    def test_open_builders_and_unknown_names_pass(self):
        registry = Registry("widget", leading=1, context=("traffic",))

        @registry.register("open")
        def _build_open(graph, size=1, **extra):
            return size

        @registry.register("aware")
        def _build_aware(graph, traffic=None, size=1):
            return size

        registry.check_args("open", ["size", "anything", "traffic"])
        registry.check_args("nosuch", ["anything"])
        registry.check_args("aware", ["size"])
        with pytest.raises(ValueError, match="widget 'aware': arg 'graph'"):
            registry.check_args("aware", ["graph"])
        with pytest.raises(ValueError, match="widget 'aware': arg 'traffic'"):
            registry.check_args("aware", ["traffic"])

    def test_every_sample_and_checked_in_spec_passes(self):
        for registry in (TOPOLOGIES, SCHEDULERS, ALGORITHMS, ENVIRONMENTS, METRICS):
            for name in registry.names():
                registry.check_args(name, registry.sample_args(name))
        for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "scenarios", "*.json"))):
            ScenarioSpec.load(path)
        for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "suites", "*.json"))):
            SuiteSpec.load(path)


class TestTraceIdentity:
    def test_spec_built_simulator_matches_hand_built(self):
        """The acceptance contract: byte-identical traces for LBAlg + IID."""
        spec = ScenarioSpec(
            name="identity",
            topology=TopologySpec(
                "random_geographic",
                {"n": 18, "side": 3.2, "seed": 41, "require_connected": True},
            ),
            algorithm=AlgorithmSpec("lbalg", {"epsilon": 0.2, "preset": "small"}),
            scheduler=SchedulerSpec("iid", {"probability": 0.4, "seed": 13}),
            environment=EnvironmentSpec(
                "single_shot", {"senders": {"select": "first", "count": 3}}
            ),
            run=RunPolicy(rounds=2, rounds_unit="phases", master_seed=99, seed_policy="fixed"),
        )
        built = materialize(spec)
        spec_trace = built.simulator.run(built.total_rounds)

        graph, _ = random_geographic_network(18, side=3.2, r=2.0, rng=41, require_connected=True)
        delta, delta_prime = graph.degree_bounds()
        params = LBParams.small_for_testing(
            delta=delta, delta_prime=delta_prime, epsilon=0.2, r=2.0
        )
        hand_sim = Simulator(
            graph,
            make_lb_processes(graph, params, random.Random(99)),
            scheduler=IIDScheduler(graph, probability=0.4, seed=13),
            environment=SingleShotEnvironment(senders=sorted(graph.vertices)[:3]),
        )
        hand_trace = hand_sim.run(2 * params.phase_length)

        assert spec_trace.events == hand_trace.events
        for round_number in range(1, built.total_rounds + 1):
            assert spec_trace.transmissions_in_round(
                round_number
            ) == hand_trace.transmissions_in_round(round_number)
            assert spec_trace.receptions_in_round(
                round_number
            ) == hand_trace.receptions_in_round(round_number)

    def test_build_returns_configured_simulator(self):
        spec = small_spec(**{"engine.batch_path": False, "engine.trace_mode": "events"})
        simulator = build(spec)
        assert simulator.lane == "kernel" and not simulator.uses_batch_stepping
        assert simulator.trace.mode is TraceMode.EVENTS
        reference = build(spec.with_overrides({"engine.fast_path": False}))
        assert reference.lane == "reference"


class TestRunPolicy:
    def test_rounds_units_resolve_through_algorithm(self):
        spec = small_spec(**{"run.rounds_unit": "tack", "run.rounds": 1})
        built = materialize(spec)
        assert built.total_rounds == built.params.tack_rounds
        spec = small_spec(**{"run.rounds_unit": "rounds", "run.rounds": 17})
        assert materialize(spec).total_rounds == 17

    def test_rounds_unit_without_structure_fails_loudly(self):
        spec = small_spec(
            **{
                "algorithm.name": "uniform",
                "algorithm.args": {},
                "run.rounds_unit": "phases",
            }
        )
        with pytest.raises(ValueError, match="rounds_unit='phases'"):
            materialize(spec)

    def test_seed_policies(self):
        derived = RunPolicy(trials=3, master_seed=9, seed_policy="derived")
        sequential = RunPolicy(trials=3, master_seed=9, seed_policy="sequential")
        fixed = RunPolicy(trials=3, master_seed=9, seed_policy="fixed")
        assert [sequential.trial_seed(i) for i in range(3)] == [9, 10, 11]
        assert [fixed.trial_seed(i) for i in range(3)] == [9, 9, 9]
        assert len({derived.trial_seed(i) for i in range(3)}) == 3
        assert derived.trial_seed(0) != 9

    def test_multi_trial_run_varies_unpinned_components(self):
        spec = small_spec(
            **{
                "topology.args": {"n": 12, "side": 3.4, "require_connected": True},
                "scheduler.args": {"probability": 0.5},
                "run.trials": 2,
                "run.seed_policy": "derived",
            }
        )
        result = run(spec)
        assert len(result.trials) == 2
        assert result.trials[0].seed != result.trials[1].seed
        assert result.metrics["trials"] == 2


class TestRecordMode:
    """Multi-trial execution through :func:`run`: the live serial loop and
    record mode (a pool or a store, i.e. a one-entry suite) agree on how
    many trials run, which seeds they get and how many rounds each runs."""

    MODES = ["serial", "pool", "store"]

    @staticmethod
    def _run(spec, mode, tmp_path):
        if mode == "pool":
            return run(spec, keep=False, jobs=2)
        if mode == "store":
            return run(spec, keep=False, store=str(tmp_path / "store"))
        return run(spec, keep=False)

    @pytest.mark.parametrize("mode", MODES)
    def test_runs_requested_number_of_trials(self, mode, tmp_path):
        spec = small_spec(**{"run.trials": 4})
        result = self._run(spec, mode, tmp_path)
        assert [t.trial_index for t in result.trials] == [0, 1, 2, 3]
        assert result.metrics["trials"] == 4

    @pytest.mark.parametrize("mode", MODES)
    def test_seeds_follow_the_master_seed(self, mode, tmp_path):
        spec = small_spec(
            **{"run.trials": 3, "run.master_seed": 10, "run.seed_policy": "sequential"}
        )
        result = self._run(spec, mode, tmp_path)
        assert [t.seed for t in result.trials] == [10, 11, 12]

    @pytest.mark.parametrize("mode", MODES)
    def test_each_trial_runs_the_resolved_rounds(self, mode, tmp_path):
        spec = small_spec(**{"run.trials": 2})
        expected = materialize(spec).total_rounds
        result = self._run(spec, mode, tmp_path)
        assert expected > 0
        assert [t.rounds for t in result.trials] == [expected, expected]
        assert result.metrics["rounds"] == 2 * expected

    def test_record_mode_carries_no_live_objects(self, tmp_path):
        spec = small_spec(**{"run.trials": 2})
        live = run(spec)
        assert all(t.trace is not None and t.simulator is not None for t in live.trials)
        for mode in ("pool", "store"):
            recorded = self._run(spec, mode, tmp_path)
            assert all(t.trace is None and t.simulator is None for t in recorded.trials)
            assert recorded.metric_rows == live.metric_rows

    def test_single_trial_with_jobs_stays_on_the_live_path(self, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a single trial went through run_suite")

        monkeypatch.setattr(suite_module, "run_suite", no_suite)
        result = run(small_spec(), jobs=2)
        assert len(result.trials) == 1
        assert result.trials[0].trace is not None


class TestRunMany:
    GRID = {"scheduler.args.probability": [0.25, 0.75]}

    @staticmethod
    def _strip_timing(rows):
        return [
            {k: v for k, v in row.items() if k not in ("elapsed_s", "rounds_per_s")}
            for row in rows
        ]

    def test_rows_independent_of_worker_count(self):
        spec = small_spec()
        serial = run_many(spec, self.GRID, jobs=1)
        parallel = run_many(spec, self.GRID, jobs=2)
        assert self._strip_timing(serial.rows) == self._strip_timing(parallel.rows)
        assert [row["scheduler.args.probability"] for row in serial.rows] == [0.25, 0.75]

    def test_workers_receive_serialized_specs_not_closures(self):
        # The pool's dispatch target is a picklable module-level function...
        assert run_suite_task.__module__ == "repro.scenarios.suite"
        assert pickle.loads(pickle.dumps(run_suite_task)) is run_suite_task
        # ... and reconstructs a trial entirely from the spec's JSON text.
        spec = small_spec(**{"scheduler.args.probability": 0.25})
        out = run_suite_task(1, [small_spec().to_json(), spec.to_json()], [(0, 0), (1, 0)])
        assert out["entry_index"] == 1
        expected = trial_record(spec, 0)
        assert out["trial"]["seed"] == expected["seed"]
        assert out["trial"]["rounds"] == expected["rounds"] > 0
        timing = ("elapsed_s", "rounds_per_s")
        assert {k: v for k, v in out["trial"]["metrics"].items() if k not in timing} == {
            k: v for k, v in expected["metrics"].items() if k not in timing
        }

    def test_injected_base_seed_overrides_master_seed(self):
        spec = small_spec(
            **{
                "topology.args": {"n": 12, "side": 3.4, "require_connected": True},
                "scheduler.args": {"probability": 0.5},
            }
        )
        with_seed = run_many(spec, self.GRID, jobs=1, base_seed=123)
        again = run_many(spec, self.GRID, jobs=2, base_seed=123)
        assert self._strip_timing(with_seed.rows) == self._strip_timing(again.rows)

    def test_jobs_one_matches_a_loop_of_live_runs(self):
        spec = small_spec()
        suite_rows = run_many(spec, self.GRID, jobs=1).rows
        live_rows = [
            {**point, **run(spec.with_overrides(point), keep=False).to_row()}
            for point in iter_grid_points(self.GRID)
        ]
        assert self._strip_timing(suite_rows) == self._strip_timing(live_rows)

    def test_base_seed_changes_the_draws(self):
        spec = small_spec(
            **{
                "topology.args": {"n": 12, "side": 3.4, "require_connected": True},
                "scheduler.args": {"probability": 0.5},
            }
        )
        seven = run_many(spec, self.GRID, jobs=1, base_seed=7).rows
        eight = run_many(spec, self.GRID, jobs=1, base_seed=8).rows
        counters = ("transmissions", "receptions")
        draws = lambda rows: [[row[k] for k in counters] for row in rows]  # noqa: E731
        assert draws(seven) != draws(eight)

    def test_empty_grid_runs_the_spec_once(self):
        spec = small_spec()
        rows = run_many(spec, jobs=1).rows
        assert len(rows) == 1
        assert rows[0]["fingerprint"] == spec.fingerprint()
        assert not any(key.startswith("scheduler.") for key in rows[0])

    def test_second_call_is_served_from_the_store(self, tmp_path, monkeypatch):
        spec = small_spec(**{"run.trials": 2, "run.seed_policy": "derived"})
        store = ResultStore(str(tmp_path / "store"))
        first = run_many(spec, self.GRID, jobs=1, store=store)

        hits = []
        lookup = store.get

        def counting_get(trial_spec, trial_index):
            record = lookup(trial_spec, trial_index)
            hits.append(record is not None)
            return record

        def no_execution(*args, **kwargs):
            raise AssertionError("a warm run_many executed a trial")

        monkeypatch.setattr(store, "get", counting_get)
        monkeypatch.setattr(suite_module, "trial_record", no_execution)
        again = run_many(spec, self.GRID, jobs=2, store=store)
        assert hits == [True] * 4  # 2 grid points x 2 trials, every one a hit
        assert again.rows == first.rows


class TestPrebuildDeltaTable:
    def test_adaptive_scheduler_yields_no_table(self):
        spec = small_spec(**{"scheduler.name": "adaptive_collision", "scheduler.args": {}})
        assert prebuild_delta_table(spec) is None


class TestCLI:
    QUICKSTART = os.path.join(REPO_ROOT, "examples", "scenarios", "quickstart.json")

    def test_run_subcommand_produces_nonempty_result(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main(
            [
                "run",
                self.QUICKSTART,
                "--set",
                "algorithm.args.preset=small",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["rounds"] > 0
        assert payload["metrics"]["transmissions"] > 0
        assert payload["scenario"]["name"] == "quickstart"
        assert "fingerprint" in payload
        stdout = capsys.readouterr().out
        assert "per-trial results" in stdout

    def test_sweep_subcommand_runs_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli_main(
            [
                "sweep",
                self.QUICKSTART,
                "--set",
                "algorithm.args.preset=small",
                "--set",
                "run.rounds_unit=phases",
                "--set",
                "run.rounds=2",
                "--grid",
                "scheduler.args.probability=0.25,0.75",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2
        assert {row["scheduler.args.probability"] for row in payload["rows"]} == {0.25, 0.75}

    def test_list_subcommand_reports_registries(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "lbalg" in payload["algorithm"]
        assert "iid" in payload["scheduler"]
        assert "random_geographic" in payload["topology"]
        assert "single_shot" in payload["environment"]


class TestBenchJobsParsing:
    def test_unparseable_bench_jobs_warns_and_falls_back(self, monkeypatch):
        from benchmarks import common

        monkeypatch.setenv(common.JOBS_ENV_VAR, "all")
        with pytest.warns(RuntimeWarning, match="BENCH_JOBS"):
            assert common.default_jobs() == 1
        monkeypatch.setenv(common.JOBS_ENV_VAR, "4")
        assert common.default_jobs() == 4
