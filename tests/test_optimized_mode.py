"""Library invariants must hold under `python -O`, which strips assert statements."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import genbounds
from genbounds.cli import main
from test_io_cli import problem_file  # noqa: F401 (a fixture)

SRC = Path(genbounds.__file__).resolve().parent


def test_no_bare_assert_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"use an explicit raise instead of assert: {found}"


def _same_bytes_under_optimize(tmp_path, args, name):
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-O", "-m", "genbounds.cli", *args, "--out", str(tmp_path / "optimized")],
        check=True, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
    )
    plain = (tmp_path / "plain" / name).read_bytes()
    assert (tmp_path / "optimized" / name).read_bytes() == plain


def test_rd_output_identical_under_optimize(tmp_path):
    args = ["rd", "--source", "0.2,0.3,0.5", "--distortion", "abs", "--epsilon-grid", "0.05,0.2"]
    _same_bytes_under_optimize(tmp_path, args, "rd_curve.csv")


def test_covering_output_identical_under_optimize(tmp_path):
    args = ["covering", "--m-grid", "4,8", "--trials", "300", "--seed", "5"]
    _same_bytes_under_optimize(tmp_path, args, "covering.csv")


def test_forked_and_searched_paths_identical_under_optimize(tmp_path, problem_file):
    # one `python -O` process runs all three, as its start-up (about 0.5 s) costs more than they do
    runs = {
        # 4 trials x 1024 steps x 2 rates reach the sweep's cutoff, so the rates run in forked workers
        "sweep.csv": ["trajectory", "--lr-grid", "0.1,0.8", "--trials", "4", "--steps", "1024", "--seed", "3"],
        "validation.json": ["mc-validate", "--problem", str(problem_file), "--n", "4", "--trials", "100"],
        # --lam 0 runs thm5's multiplier search
        "report.json": ["bound", "--kind", "thm5i", "--lam", "0", "--problem", str(problem_file), "--n", "4"],
    }
    for name, args in runs.items():
        assert main([*args, "--out", str(tmp_path / "plain" / name)]) == 0
    argvs = [[*args, "--out", str(tmp_path / "optimized" / name)] for name, args in runs.items()]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    program = "import json, sys; from genbounds.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"
    subprocess.run(
        [sys.executable, "-O", "-c", program, json.dumps(argvs)],
        check=True, env={**os.environ, "PYTHONPATH": path}, capture_output=True,
    )
    for name in runs:
        assert (tmp_path / "optimized" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
