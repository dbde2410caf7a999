"""Smoke test: every script in ``demos/`` runs to completion.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH`` and a
temporary working directory, so files it writes land there.  ``TMPDIR``
points at an empty directory that must be empty again when the demo exits:
a demo cleans up whatever temporary files it makes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not any(scratch.iterdir())
