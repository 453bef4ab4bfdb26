"""The library runs on numpy alone: scipy is a test oracle, not a dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import genbounds

SRC = Path(genbounds.__file__).resolve().parent


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module or ""]
    return []


def test_no_scipy_import_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported(node)
        if name.split(".")[0] == "scipy"
    ]
    assert found == [], f"the library imports scipy: {found}"


def test_cli_import_loads_no_scipy():
    # nor multiprocessing, which only `ratedistortion._map_units` above its cutoff and eq21's KL-ball search import
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, genbounds.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
        " or m == 'concurrent.futures'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert out.stdout.strip() == "[]"
