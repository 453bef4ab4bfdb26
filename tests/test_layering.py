"""`learning` builds the exact tables; the bounds and the RD solver only take them as arrays.

Every name the package exports has a caller outside its own definition.
"""

import ast
from pathlib import Path

import genbounds

SRC = Path(genbounds.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# `reconstruct_bound` has no caller: it is the public audit of a report, recomputing its value from its
# terms with the kind's one formula, the one that built it
UNCALLED_EXPORTS = {"reconstruct_bound"}


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


def _loaded_names(path: Path, strings: bool = False) -> set[str]:
    """Names that `path` loads, bare or as an attribute, less each top-level def's or class's loads of its own
    name; with `strings`, its string constants too (`bench/tracer.py` wraps functions named by strings)."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        found |= names
    return found


def test_every_export_has_a_caller():
    # a name imported into genbounds/__init__.py is loaded by another package module, a demo or the benchmark
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set().union(
        *(_loaded_names(path) for path in SRC.glob("*.py") if path.name != "__init__.py"),
        *(_loaded_names(path) for path in ROOT.glob("demos/*.py")),
        *(_loaded_names(path, strings=True) for path in ROOT.glob("bench/*.py")),
    )
    assert UNCALLED_EXPORTS <= exported
    assert sorted(exported - used - UNCALLED_EXPORTS) == []
