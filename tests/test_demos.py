"""The demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import genbounds

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(genbounds.__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(name):
    # a demo calls the public API as a user would, so a deleted or renamed name fails here
    done = run_demo(name)
    assert done.returncode == 0, done.stderr


def test_sco_counterexample_demo_runs():
    # demo 07 prints the scaling study's fields by name, so a renamed field fails here
    done = run_demo("07_sco_counterexample.py")
    assert done.returncode == 0, done.stderr
    assert "log-log slope of exact E[gen]" in done.stdout
