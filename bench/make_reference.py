"""Regenerate the stored reference outputs of one workload.

    python3 bench/make_reference.py --workload exact-bound --seeds 0-15

Runs one full pass per seed with invariant checks only, and writes
bench/reference/<workload>.json: the parsed values and sha256 of every
output per seed, plus under "any_seed" the values that do not depend on the
seed (verified equal across the seeds run). Regenerate only when the
library's outputs change on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # sets the BLAS thread count before numpy loads
import cases
import checks


class Recorder(checks.Checker):
    def __init__(self):
        super().__init__({}, 0)
        self.values: dict = {}

    def check(self, key, op, result):
        vals, bad = checks.parse(op, result)
        self.last = vals
        self.values[key] = {"values": vals, "sha256": checks.sha256(op)}
        return bad


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    args = ap.parse_args(argv)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    by_seed = {}
    ops = {}
    for seed in args.seeds:
        plan_path = cases.write_inputs(args.workload, seed, "full", run.WORK / args.workload / f"ref-seed{seed}")
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        rec = Recorder()
        runner = run.Runner(plan, rec)
        runner.round(False)
        if runner.problems:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        by_seed[str(seed)] = rec.values
        ops = {f"{c['id']}/{op['name']}": op for c in plan["cases"] for op in c["ops"]}
        print(f"{args.workload} seed {seed}: {len(rec.values)} outputs", flush=True)
    any_seed = {}
    for key, op in ops.items():
        if op["seeded"]:
            continue
        first = by_seed[str(args.seeds[0])][key]["values"]
        if not all(checks.close(v[key]["values"], first) for v in by_seed.values()):
            print(f"{key} is marked seed-independent but its values vary with the seed", file=sys.stderr)
            return 1
        any_seed[key] = first
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    out = checks.REFERENCE_DIR / f"{args.workload}.json"
    out.write_text(json.dumps({"any_seed": any_seed, "seeds": by_seed}, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
