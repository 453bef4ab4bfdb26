"""Output checks: parse each operation's output, test invariants, compare with the reference.

Reference values live in ``bench/reference/<workload>.json`` (written by
``bench/make_reference.py``). Values that do not depend on the workload seed
are checked on every seed; seed-dependent values and output sha256 digests
are checked on the seeds the reference holds. Floats must agree within
REL_TOL relative plus ABS_TOL absolute; counts, flags and strings exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sum_terms(kind: str, t: dict) -> float:
    if kind == "eq21":
        return math.sqrt(t["rate_term"] + t["confidence_term"]) + t["epsilon_term"]
    if kind == "thm5i":
        return t["rate_term"] + t["mgf_term"] + t["epsilon_term"]
    if kind == "thm5ii":
        return math.exp(t["rate_term"] + t["mgf_term"])
    return sum(t.values())  # eq22, prop5i, prop5ii


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def parse(op: dict, result) -> tuple[dict, list[str]]:
    """(values to compare with the reference, invariant violations)."""
    kind, exp = op["parse"], op["expect"]
    bad: list[str] = []
    if kind == "rd_dimension":
        slopes, dim = result
        vals = {"slopes": [float(s) for s in slopes], "dim": float(dim)}
        if exp["acceptance"] and not abs(dim - 1.0) <= 0.2:
            bad.append(f"|dim - 1| = {abs(dim - 1.0):.3f} > 0.2")
        return vals, bad
    path = ROOT / op["output"]
    if kind == "bound":
        rep = json.loads(path.read_text(encoding="utf-8"))
        v = rep["bound_value"]
        vals = {"bound_value": v}
        if not _finite(v):
            bad.append(f"bound_value {v!r} is not finite")
        elif not math.isclose(_sum_terms(rep["kind"], rep["terms"]), v, rel_tol=1e-9, abs_tol=1e-12):
            bad.append("bound_value does not reconstruct from its terms")
        if rep["kind"] == "eq21":
            vals["sup_rd"] = rep["extra"]["sup_rd"]
            if not rep["extra"]["sup_rd"] >= rep["extra"]["baseline_rd"]:
                bad.append("sup_rd below the nu = P baseline")
        return vals, bad
    if kind == "mc":
        rep = json.loads(path.read_text(encoding="utf-8"))
        vals = {"violations": rep["violations"]}
        if rep["trials"] != exp["trials"] or not 0 <= rep["violations"] <= rep["trials"]:
            bad.append(f"violations {rep['violations']} of {rep['trials']} trials")
        if rep["pass"] is not True:
            bad.append("tail validation did not pass")
        return vals, bad
    rows = _rows(path)
    if kind == "covering":
        vals = {"failures": [int(r["failures"]) for r in rows]}
        if [int(r["m"]) for r in rows] != exp["m"]:
            bad.append("covering rows do not match the m grid")
        if any(not 0 <= f <= exp["trials"] for f in vals["failures"]):
            bad.append("covering failures out of range")
        return vals, bad
    if kind == "scaling":
        slope = float(rows[0]["slope_fit"])
        if exp["acceptance"] and not -1.35 <= slope <= -0.65:
            bad.append(f"bound slope {slope} outside [-1.35, -0.65]")
        return {"slope_bound": slope}, bad
    if kind == "sweep":
        table = [[float(r["lr"]), float(r["mean_gen"]), float(r["rd_nats"]), r["flag"]] for r in rows]
        if len(table) != exp["rows"]:
            bad.append(f"{len(table)} sweep rows, expected {exp['rows']}")
        for lr, gen, rd, flag in table:
            if flag not in ("ok", "diverged") or (flag == "ok" and not (_finite(gen) and _finite(rd))):
                bad.append(f"bad sweep row at lr={lr}")
        return {"rows": table}, bad
    if kind == "rd":
        rates = [float(r["rate_nats"]) for r in rows]
        vals = {"rates": rates, "converged": [r["converged"] == "True" for r in rows]}
        if not all(map(_finite, rates)) or any(b < a - 1e-9 for a, b in zip(rates, rates[1:])):
            bad.append("rates not finite and non-decreasing as epsilon shrinks")
        return vals, bad
    raise ValueError(f"unknown parser {kind!r}")


def close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)) or isinstance(a, bool):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def sha256(op: dict) -> str | None:
    if op["output"] is None:
        return None
    return hashlib.sha256((ROOT / op["output"]).read_bytes()).hexdigest()


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


class Checker:
    """Checks the outputs of one workload and seed against a reference.

    `ref` is the workload's reference file: {"any_seed": {key:
    values}, "seeds": {seed: {key: {"values": ..., "sha256": ...}}}}, with
    key = "<case id>/<op name>".
    """

    def __init__(self, ref: dict, seed: int):
        self.any_seed = ref.get("any_seed", {})
        self.by_seed = ref.get("seeds", {}).get(str(seed))
        self.identical = 0
        self.hashed = 0
        self.last: dict = {}

    def check(self, key: str, op: dict, result) -> list[str]:
        vals, bad = parse(op, result)
        self.last = vals
        if self.by_seed is not None:
            ref = self.by_seed.get(key)
            if ref is None:
                return bad + [f"{key}: no reference entry"]
            want = ref["values"]
            digest = sha256(op)
            if digest is not None:
                self.hashed += 1
                self.identical += digest == ref["sha256"]
        else:
            want = self.any_seed.get(key) if not op["seeded"] else None
        if want is not None and not close(vals, want):
            bad.append(f"{key}: {vals} differs from reference {want}")
        return bad
