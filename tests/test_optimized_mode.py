"""Library invariants must hold under `python -O`, which strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import genbounds
from genbounds.cli import main

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
