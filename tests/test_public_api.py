"""Tests of the public package surface.

A downstream user's first contact with the library is ``import repro`` and the
names re-exported there; these tests pin that surface (so refactors cannot
silently drop public names), check that public modules document themselves,
and cross-check the derived parameters against the closed-form theory module.
"""

import importlib
import inspect

import pytest

import repro
from repro.analysis import theory
from repro.core.params import LBParams, SeedParams

PUBLIC_MODULES = [
    "repro",
    "repro.dualgraph",
    "repro.dualgraph.graph",
    "repro.dualgraph.geometric",
    "repro.dualgraph.generators",
    "repro.dualgraph.regions",
    "repro.dualgraph.adversary",
    "repro.simulation",
    "repro.simulation.engine",
    "repro.simulation.process",
    "repro.simulation.environment",
    "repro.simulation.trace",
    "repro.simulation.metrics",
    "repro.core",
    "repro.core.constants",
    "repro.core.params",
    "repro.core.seedbits",
    "repro.core.seed_agreement",
    "repro.core.seed_spec",
    "repro.core.local_broadcast",
    "repro.core.lb_spec",
    "repro.baselines",
    "repro.mac",
    "repro.mac.spec",
    "repro.mac.adapter",
    "repro.mac.applications",
    "repro.mac.applications.flood",
    "repro.mac.applications.multi_message",
    "repro.mac.applications.neighbor_discovery",
    "repro.analysis",
    "repro.analysis.theory",
    "repro.analysis.stats",
    "repro.analysis.sweep",
    "repro.scenarios",
    "repro.scenarios.spec",
    "repro.scenarios.registry",
    "repro.scenarios.components",
    "repro.scenarios.runtime",
    "repro.scenarios.cli",
]


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_modules_import_and_are_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), f"{module_name} has no docstring"

    def test_key_entry_points_are_exported(self):
        for name in (
            "DualGraph",
            "random_geographic_network",
            "Simulator",
            "LBParams",
            "SeedParams",
            "LocalBroadcastProcess",
            "SeedAgreementProcess",
            "check_lb_execution",
            "check_seed_execution",
            "make_lb_processes",
            "run_flood",
            "DecayProcess",
            "IIDScheduler",
            "AntiScheduleAdversary",
            "ScenarioSpec",
            "register_topology",
        ):
            assert name in repro.__all__

    def test_public_classes_have_docstrings(self):
        for name in ("DualGraph", "Simulator", "LocalBroadcastProcess",
                     "SeedAgreementProcess", "LBParams", "SeedParams"):
            obj = getattr(repro, name)
            assert inspect.getdoc(obj), f"{name} has no docstring"
            public_methods = [
                m for n, m in inspect.getmembers(obj, predicate=inspect.isfunction)
                if not n.startswith("_")
            ]
            for method in public_methods:
                assert inspect.getdoc(method), (
                    f"{name}.{method.__name__} has no docstring"
                )


class TestTheoryConsistency:
    """The derived simulation parameters must track the closed-form shapes."""

    def test_tprog_tracks_theory_in_delta(self):
        ratios = []
        for delta in (8, 32, 128):
            derived = LBParams.derive(0.1, delta=delta, delta_prime=delta).tprog
            predicted = theory.tprog_bound(delta, 0.1)
            ratios.append(derived / predicted)
        # Constant-factor agreement: the ratio varies by < 3x across the sweep.
        assert max(ratios) / min(ratios) < 3.0

    def test_tack_tracks_theory_in_delta(self):
        ratios = []
        for delta in (8, 32, 128):
            derived = LBParams.derive(0.1, delta=delta, delta_prime=delta).tack_rounds
            predicted = theory.tack_bound(delta, 0.1)
            ratios.append(derived / predicted)
        assert max(ratios) / min(ratios) < 4.0

    def test_seed_runtime_tracks_theory_in_epsilon(self):
        ratios = []
        for epsilon in (0.2, 0.05, 0.01):
            derived = SeedParams.derive(epsilon, delta=16).total_rounds
            predicted = theory.seed_runtime_bound(16, epsilon)
            ratios.append(derived / predicted)
        assert max(ratios) / min(ratios) < 4.0

    def test_upper_bounds_exceed_lower_bounds_for_derived_params(self):
        for delta in (4, 16, 64):
            params = LBParams.derive(0.1, delta=delta, delta_prime=delta)
            assert params.tack_rounds >= theory.ack_lower_bound(delta)
            assert params.tprog_rounds >= theory.progress_lower_bound(delta)
