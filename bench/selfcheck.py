"""Self-check of the benchmark on tiny inputs (about a minute).

    python3 bench/selfcheck.py

For every workload it asserts that
  * an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
    each with a unit, and a traced run exactly the per-layer metrics;
  * the deterministic counters of two traced runs with the same seed agree;
  * a second pass over the same inputs reproduces every output byte for byte
    against a reference recorded from the first;
  * perturbing each reference value makes its operation count as failed,
    so the output check can fail.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run  # sets the BLAS thread count before numpy loads
import cases
import checks
from make_reference import Recorder


def perturb(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return v + 1 if isinstance(v, int) else v * (1 + 1e-6) + 1e-9
    if isinstance(v, str):
        return v + "x"
    if isinstance(v, list):
        return [perturb(v[0])] + v[1:]
    return {k: perturb(x) if i == 0 else x for i, (k, x) in enumerate(v.items())}


def check_workload(workload: str, spec: dict) -> list[str]:
    errors = []
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        counters = []
        for _ in range(2 if trace else 1):
            result, details = run.run_workload(workload, 0, 0.1, trace, scale="tiny")
            if not result["correct"] or result["failed"]:
                errors.append(f"tiny run not correct: {details['problems']}")
            want = {m["name"]: m["unit"] for m in spec[listed]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{listed}: emitted {sorted(got.items())} but BENCHMARK.json lists {sorted(want.items())}")
            counters.append(details.get("counters"))
        if trace and counters[0] != counters[1]:
            errors.append("counters differ between two traced runs with the same seed")

    plan = json.loads(cases.write_inputs(workload, 0, "tiny", run.WORK / "selfcheck" / workload).read_text())
    rec = Recorder()
    run.Runner(plan, rec).round(False)
    ref = {"seeds": {"0": rec.values}}
    again = run.Runner(plan, checks.Checker(ref, 0))
    again.round(False)
    if again.failed or again.checker.identical != again.checker.hashed:
        errors.append(f"second pass differs from the first: {again.problems}")
    bad = copy.deepcopy(ref)
    for entry in bad["seeds"]["0"].values():
        entry["values"] = perturb(entry["values"])
    caught = run.Runner(plan, checks.Checker(bad, 0))
    caught.round(False)
    if caught.failed != caught.attempted:
        errors.append(f"perturbed references caught on {caught.failed} of {caught.attempted} operations")
    return errors


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in cases.WORKLOADS:
        errors = check_workload(workload, spec)
        failures += bool(errors)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
