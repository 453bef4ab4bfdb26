"""Workload inputs and operation plans for the genbounds benchmark.

A workload is a list of cases; a case is a list of operations, each one
in-process call of ``genbounds.cli.main`` or of a public library function.
Everything a run feeds the library is derived here from the workload seed or
from fixed constants, so the same seed always yields the same inputs.

Run as a script, this file is the set-up step a CLI user pays for: it starts
a fresh interpreter, imports ``genbounds.cli`` (numpy and scipy with it) and
writes the generated inputs plus ``plan.json`` into the given directory:

    python3 bench/cases.py --workload exact-bound --seed 3 --scale full --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("exact-bound", "mc-validate", "trajectory-rd")
_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# The exact-bound problems and their eq21 search seeds come from a fixed bank
# instead of the workload seed: one eq21 call costs between 73k and 262k
# Blahut-Arimoto evaluations depending on the random 4x4 problem (38 problems
# measured), and up to 1.7x more on one problem depending on the KL-ball
# search seed, so per-seed inputs would make the run-to-run spread of eq21
# time exceed any useful bound. The bank is the first BANK entries of a fixed
# stream, taken without selection; the workload seed sets the --seed of the
# other kinds (the dataset sampled for eq22 and prop5).
BANK_KEY = 230305369

SCALES = {
    "full": {
        "bank": 3, "eq21_n": 3, "kinds_n": 30,
        "mc_n": 25, "mc_trials": 10_000,
        "cov_m": "4,8,12", "cov_trials": 8000,
        "cex_n": "4,6,8,10", "cex_trials": 2000,
        "traj": ["--trials", "50"], "traj_lrs": 8,
        "dim_bits": 8, "dim_eps": [2.0**-j for j in range(2, 7)],
        "rd_k": 64, "rd_eps": "0.25,0.125,0.0625,0.03125",
        "acceptance": True,
    },
    # tiny sizes for the warm-up pass and the self-check
    "tiny": {
        "bank": 1, "eq21_n": 1, "kinds_n": 3,
        "mc_n": 5, "mc_trials": 100,
        "cov_m": "2,4", "cov_trials": 40,
        "cex_n": "4,6", "cex_trials": 20,
        "traj": ["--trials", "3", "--lr-grid", "0.1,0.8", "--steps", "20", "--n", "8"], "traj_lrs": 2,
        "dim_bits": 4, "dim_eps": [0.25, 0.125, 0.0625],
        "rd_k": 8, "rd_eps": "0.25,0.125",
        "acceptance": False,
    },
}


def sub_seed(seed: int, *path: int) -> int:
    """A 31-bit CLI seed derived from a root seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def make_problem(key) -> dict:
    """A 4x4 problem shaped like the CLI test fixture: loss in [0, 1] with a
    zero diagonal, Dirichlet mu, B = 1."""
    gen = np.random.default_rng(key)
    loss = gen.uniform(0.0, 1.0, size=(4, 4))
    np.fill_diagonal(loss, 0.0)
    mu = gen.dirichlet(np.ones(4))
    return {"z_alphabet": 4, "w_alphabet": 4, "loss": loss.tolist(), "mu": mu.tolist(), "B": 1.0}


def _cli(name, slot, argv, out, parse, seeded=True, **expect):
    """An operation that runs `genbounds <argv> --out <out>`.

    `seeded` says whether the parsed values depend on the workload seed;
    values that do not are checked against the reference on every seed.
    """
    return {"name": name, "slot": slot, "kind": "cli", "argv": [str(a) for a in argv] + ["--out", out],
            "output": out, "parse": parse, "seeded": seeded, "expect": expect}


def plan(workload: str, seed: int, scale: str, out_dir: Path) -> tuple[dict, dict]:
    """(plan, input files) for one workload, seed and scale.

    Paths in the plan are relative to the repository root.
    """
    if workload not in _TAG:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sc = SCALES[scale]
    rel = out_dir.resolve().relative_to(ROOT)
    tag = _TAG[workload]
    files: dict[str, dict] = {}
    cases = []
    if workload == "exact-bound":
        for k in range(sc["bank"]):
            prob = str(rel / f"problem{k}.json")
            files[prob] = make_problem([BANK_KEY, k])
            o = rel / "out" / f"c{k}"
            ops = [_cli("eq21", "op1", ["bound", "--problem", prob, "--seed", sub_seed(BANK_KEY, k),
                                        "--kind", "eq21", "--n", sc["eq21_n"]],
                        str(o / "eq21" / "report.json"), "bound", seeded=False)]
            base = ["bound", "--problem", prob, "--seed", sub_seed(seed, tag, k)]
            for kind, slot in (("thm5i", "op2"), ("thm5ii", "op2"),
                               ("eq22", "op3"), ("prop5i", "op3"), ("prop5ii", "op3")):
                ops.append(_cli(kind, slot, base + ["--kind", kind, "--n", sc["kinds_n"]],
                                str(o / kind / "report.json"), "bound", seeded=kind not in ("thm5i", "thm5ii")))
            cases.append({"id": f"c{k}", "ops": ops})
    elif workload == "mc-validate":
        prob = str(rel / "problem.json")
        files[prob] = make_problem([seed, tag])
        o = rel / "out" / "c0"
        cases.append({"id": "c0", "ops": [
            _cli("mc", "op1", ["mc-validate", "--problem", prob, "--kind", "thm1", "--n", sc["mc_n"],
                               "--trials", sc["mc_trials"], "--seed", sub_seed(seed, tag, 1)],
                 str(o / "mc" / "validation.json"), "mc", trials=sc["mc_trials"]),
            _cli("covering", "op2", ["covering", "--m-grid", sc["cov_m"], "--trials", sc["cov_trials"],
                                     "--seed", sub_seed(seed, tag, 2)],
                 str(o / "covering" / "covering.csv"), "covering",
                 m=[int(m) for m in sc["cov_m"].split(",")], trials=sc["cov_trials"]),
            _cli("counterexample", "op3", ["counterexample", "--n-list", sc["cex_n"], "--trials", sc["cex_trials"],
                                           "--seed", sub_seed(seed, tag, 3)],
                 str(o / "counterexample" / "scaling.csv"), "scaling", seeded=False,
                 acceptance=sc["acceptance"]),
        ]})
    else:
        o = rel / "out" / "c0"
        k = sc["rd_k"]
        # two sweeps per pass: the sweep's cost varies with its seed by about 5%
        sweeps = [_cli(name, "op1", ["trajectory", "--model", "logistic", *sc["traj"],
                                     "--seed", sub_seed(seed, tag, i)],
                       str(o / name / "sweep.csv"), "sweep", rows=sc["traj_lrs"])
                  for i, name in ((1, "trajectory"), (4, "trajectory2"))]
        cases.append({"id": "c0", "ops": sweeps + [
            {"name": "rd_dimension", "slot": "op2", "kind": "rd_dimension", "bits": sc["dim_bits"],
             "eps": sc["dim_eps"], "output": None, "parse": "rd_dimension", "seeded": False,
             "expect": {"acceptance": sc["acceptance"]}},
            _cli("rd_edge", "op3", ["rd", "--source", ",".join([repr(1.0 / k)] * k), "--distortion", "abs",
                                    "--epsilon-grid", sc["rd_eps"]],
                 str(o / "rd_edge" / "rd_curve.csv"), "rd", seeded=False),
        ]})
    return {"workload": workload, "seed": seed, "scale": scale, "cases": cases}, files


def write_inputs(workload: str, seed: int, scale: str, out_dir: Path) -> Path:
    """Write the input files and plan.json; returns the plan path."""
    p, files = plan(workload, seed, scale, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, data in files.items():
        (ROOT / path).write_text(json.dumps(data, indent=1), encoding="utf-8")
    path = out_dir / "plan.json"
    path.write_text(json.dumps(p, indent=1), encoding="utf-8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import genbounds.cli  # noqa: F401  (the import every CLI user pays for)

    write_inputs(args.workload, args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
