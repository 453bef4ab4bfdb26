"""The demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import genbounds

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(genbounds.__file__).resolve().parents[1]


def test_sco_counterexample_demo_runs():
    # demo 07 prints the scaling study's fields by name, so a renamed field fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(DEMOS / "07_sco_counterexample.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "log-log slope of exact E[gen]" in done.stdout
