"""`learning` builds the exact tables; the bounds and the RD solver only take them as arrays."""

import ast
from pathlib import Path

import genbounds

SRC = Path(genbounds.__file__).resolve().parent


def _package_imports(name: str) -> set[str]:
    """The genbounds modules that `name`.py imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("genbounds."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("genbounds."))
    return found


def test_ratedistortion_imports_info_only():
    assert _package_imports("ratedistortion") == {"info"}


def test_bounds_imports_info_and_ratedistortion_only():
    assert _package_imports("bounds") == {"info", "ratedistortion"}


def test_learning_imports_info_and_seeding_only():
    assert _package_imports("learning") == {"info", "seeding"}
