"""Every demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvmeta

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def run_demo(path):
    src = str(Path(cvmeta.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # a numpy warning in a demo fails it, as it fails an in-process test
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    if path.name == "02_interval_methods.py":
        # HSSP's count, derived in test_intervals.py's test_hssp_trace
        assert "644 corner evaluations" in proc.stdout
