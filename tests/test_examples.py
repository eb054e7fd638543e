"""Smoke tests: every example script runs to completion.

Each script runs in a fresh interpreter from a temporary working directory
(so any files it writes land there) with ``src`` on ``PYTHONPATH``.
``reproduce_paper.py`` is left out: it regenerates every paper figure, and
the figure benchmarks already cover its outputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path for path in (REPO / "examples").glob("*.py")
                  if path.name != "reproduce_paper.py")


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                               env=env, capture_output=True, text=True,
                               timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
