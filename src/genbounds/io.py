"""Canonical report persistence: JSON with sorted keys and 17-digit floats, CSV with headers.

Writing the same data twice produces byte-identical files, so run manifests
can hash outputs for reproducibility checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .info import Pmf
from .learning import FiniteLearningProblem, _whole

__all__ = [
    "canonical_json",
    "write_report",
    "write_csv",
    "file_sha256",
    "load_problem",
]


def _render(obj, indent: int) -> str:
    # hand-rolled so floats serialize with 17 significant digits verbatim
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no literal for nan or +-inf, so those go out as strings
        return _fmt_cell(obj) if math.isfinite(obj) else f'"{_fmt_cell(obj)}"'
    if obj is None:
        return "null"
    return json.dumps(obj)


def canonical_json(data) -> str:
    return _render(data, 0) + "\n"


def write_report(data, path) -> Path:
    """Serialize a report dict (or an object with to_dict) to canonical JSON."""
    if hasattr(data, "to_dict"):
        data = data.to_dict()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(data), encoding="utf-8")
    return path


def _fmt_cell(v) -> str:
    """A float with 17 significant digits (nan, inf and -inf spelled so), anything else by str."""
    return format(float(v), ".17g") if isinstance(v, (float, np.floating)) else str(v)


def write_csv(rows, header, path) -> Path:
    """Write rows (iterables of cells) under a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
    return path


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_object(path, source: str, keys, required=()) -> dict:
    """The JSON object in file `path`; ValueError if it is not one, repeats a key, lacks a required key or holds
    one outside `keys`."""

    def hook(pairs):
        names = [k for k, _ in pairs]
        dupes = {k for k in names if names.count(k) > 1}
        if dupes:
            raise ValueError(f"duplicate {source} key(s): {sorted(dupes)}")
        return dict(pairs)

    data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=hook)
    if not isinstance(data, dict):
        raise ValueError(f"a {source} holds one JSON object")
    missing, unknown = set(required) - set(data), set(data) - set(keys)
    if missing:
        raise ValueError(f"{source} missing key(s): {sorted(missing)}")
    if unknown:
        raise ValueError(f"unknown {source} key(s): {sorted(unknown)}")
    return data


def _finite(value, name: str, ndim: int | None):
    """`value` as finite floats, of `ndim` axes unless None (a float at 0); ValueError naming it otherwise."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or ndim not in (None, a.ndim) or not np.isfinite(a).all():
        shape = "a finite number" if ndim == 0 else "an array of finite numbers"
        raise ValueError(f"{name} must be {shape}, got {value!r:.60}")
    return float(a) if ndim == 0 else a.astype(float)


def load_problem(path) -> FiniteLearningProblem:
    """Problem file: {"z_alphabet": k, "w_alphabet": l, "loss": ..., "mu": [...], "B": opt}.

    `loss` is a flat row-major list of k * l numbers or a (k, l) nested list.
    """
    required = {"z_alphabet", "w_alphabet", "loss", "mu"}
    data = _json_object(path, "problem file", required | {"B"}, required)
    z, w = (_whole(data[key], f"problem file key {key!r}", 1) for key in ("z_alphabet", "w_alphabet"))
    loss, mu = (_finite(data[key], f"problem file key {key!r}", ndim) for key, ndim in (("loss", None), ("mu", 1)))
    if loss.shape not in ((z * w,), (z, w)):
        raise ValueError(f"problem file key 'loss' must be a flat row-major list of {z * w} numbers or a "
                         f"({z}, {w}) nested list, got shape {loss.shape}")
    bound = None if data.get("B") is None else _finite(data["B"], "problem file key 'B'", 0)
    return FiniteLearningProblem(loss=loss.reshape(z, w), mu=Pmf(mu), bound=bound)
