"""Every demo script runs to completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

import tauberlab

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(tauberlab.__file__)))
DEMO_TIMEOUT = 300


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=DEMO_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
