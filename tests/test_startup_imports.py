"""The start-up contract: a ``repro`` command loads only the modules it runs.

Every ``python -m repro`` request is a fresh process, so the import is part
of every request.  The package ``__init__`` files re-export lazily
(``src/repro/_lazy.py``) and the optional layers -- the fleet, the job
service, the MAC layer, traffic, the spec checkers -- are imported where they
are used.  These tests run in fresh interpreters, because the test process
itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Modules neither ``import repro.scenarios.cli`` nor a serial ``suite`` run of
#: an IID/saturating manifest may load.
OPTIONAL_MODULES = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.scenarios.fleet",
    "repro.scenarios.jobs",
    "repro.scenarios.service",
    "repro.baselines",
    "repro.mac",
    "repro.traffic",
    "repro.core.lb_spec",
    "repro.core.seed_spec",
)

PACKAGES = (
    "repro",
    "repro.core",
    "repro.dualgraph",
    "repro.simulation",
    "repro.analysis",
    "repro.mac",
    "repro.traffic",
    "repro.baselines",
    "repro.scenarios",
)

SMALL_SUITE = {
    "name": "startup",
    "entries": [
        {
            "id": "iid-saturating",
            "scenario": {
                "topology": {"name": "grid", "args": {"rows": 3, "cols": 3}},
                "algorithm": {"name": "lbalg", "args": {"epsilon": 0.2, "preset": "small"}},
                "scheduler": {"name": "iid", "args": {"probability": 0.5, "seed": 3}},
                "environment": {"name": "saturating", "args": {"senders": [0, 4]}},
                "metrics": [{"name": "params"}, {"name": "progress"}],
                "run": {"master_seed": 5, "rounds": 1, "rounds_unit": "phases", "trials": 2},
            },
        }
    ],
}


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_optional(modules) -> list:
    return sorted(name for name in OPTIONAL_MODULES if name in modules)


def test_cli_import_loads_no_optional_layer():
    modules = _python(
        "import json, sys\n"
        "import repro.scenarios.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert _loaded_optional(modules) == []


def test_suite_run_loads_no_optional_layer(tmp_path):
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps(SMALL_SUITE))
    report = tmp_path / "report.json"
    argv = [
        "repro", "suite", str(manifest), "--store", str(tmp_path / "store"),
        "--json", str(report), "--quiet",
    ]
    result = _python(
        "import json, runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    code = exit.code\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert result["code"] == 0
    assert len(json.loads(report.read_text())["entries"][0]["result"]["trials"]) == 2
    assert _loaded_optional(result["modules"]) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    problems = _python(
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "public = list(package.__all__)\n"
        "problems = {'not_in_dir': sorted(set(public) - set(dir(package)))}\n"
        "problems['stale_table'] = sorted(set(package._EXPORTS) - set(public))\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "problems['unbound'] = [n for n in public if n not in namespace]\n"
        "problems['missing'] = [n for n in public if not hasattr(package, n)]\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == {"not_in_dir": [], "stale_table": [], "missing": [], "unbound": []}


def test_analysis_sweep_stays_the_function():
    # ``repro.analysis.sweep`` is a submodule and the function it defines;
    # importing the submodule must not rebind the package attribute.
    kinds = _python(
        "import json, types\n"
        "import repro.analysis.sweep\n"
        "import repro.analysis as analysis\n"
        "from repro import sweep\n"
        "print(json.dumps([callable(analysis.sweep), sweep is analysis.sweep,\n"
        "                  isinstance(analysis.sweep, types.ModuleType)]))\n"
    )
    assert kinds == [True, True, False]
