"""The docs checker resolves Sphinx-role references in ``src/`` docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
_SPEC = importlib.util.spec_from_file_location("check_docs", _PATH)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


@pytest.mark.parametrize(
    "target",
    [
        "repro.scenarios.runtime",  # a module
        "repro.simulation.engine._SCHED_MASK_CACHE",  # a module-level name
        "repro.dualgraph.graph.TopologyIndex.g_neighbors",  # a __slots__ entry
        "repro.simulation.engine.Simulator.lane_fallback",  # a property
        "repro.DualGraph.topology_index",  # re-exported by a package __init__
    ],
)
def test_defined_targets_resolve(target):
    assert check_docs.check_dotted_target(target) is None


@pytest.mark.parametrize(
    "target, missing",
    [
        ("repro.dualgraph.graph.DualGraph.topology_version", "'topology_version'"),
        ("repro.DualGraph.no_such_method", "'no_such_method'"),
        ("repro.no_such_module", "'no_such_module'"),
        ("repro.simulation.engine.Simulator.run.deeper", "is not a nested class"),
    ],
)
def test_dangling_targets_are_reported(target, missing):
    assert missing in check_docs.check_dotted_target(target)


def test_role_references_are_found_with_their_line():
    text = 'x\n"""See :meth:`~repro.DualGraph.topology_index` and :func:`len`."""\n'
    assert list(check_docs.iter_role_references(text)) == [
        (2, "repro.DualGraph.topology_index")
    ]

