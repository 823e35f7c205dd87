"""The end-to-end benchmark's tracer still finds every name it wraps.

``perfbench/spans.py:install`` wraps layer entry points of ``repro`` by name
(``owner.__dict__[name]``), so deleting or renaming one of them breaks
``perfbench/run.py --trace 1`` with a ``KeyError`` / ``AttributeError``.
Running the tracer around the cheapest CLI command (``list``) turns that
into a test failure here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_spans_install_finds_every_patched_name(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "spans.py"), str(out), "--", "list"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["status"] == 0
