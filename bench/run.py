"""genbounds benchmark: closed-loop, one-client workloads driven through the library's CLI.

    python3 bench/run.py --workload exact-bound --seed 0 --seconds 32 --trace 0

Each operation is one in-process call of ``genbounds.cli.main([...])`` (or
of ``rd_dimension``, which has no subcommand); the next starts when the
previous returns. A run writes its inputs in fresh processes (set-up), warms
up on a tiny pass, then repeats full passes over the workload's cases while
they fit in --seconds, checking every output. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics. The last stdout line is the result JSON;
the line before it holds the details (environment, sample counts, tails,
per-check failures); both are also written under bench/work/results/.

Timings are wall-clock seconds rescaled to a reference machine speed. Every
50 ms during an operation a signal handler times a fixed calibration unit
(the benchmark's own code, not the library's); the operation's time, less the
handler's, is multiplied by CAL_REF_S over the mean unit time. The machine is
shared and its speed swings by up to 2x within seconds; the rescaling removes
most of that. The raw wall-clock medians are reported alongside.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one client, one thread; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 3
CAL_ITERS = 200
CAL_REF_S = 0.0016  # calibration unit time at the reference machine speed
SAMPLE_FIRST_S = 0.005
SAMPLE_S = 0.05
SLOTS = ("op1", "op2", "op3")
# issue-level names of the slot metrics, per workload
OP_NAMES = {
    "exact-bound": {"op1": "eq21_s", "op2": "thm5_kinds_s", "op3": "eq22_prop5_kinds_s"},
    "mc-validate": {"op1": "mc_validate_s", "op2": "covering_s", "op3": "counterexample_s"},
    "trajectory-rd": {"op1": "trajectory_s", "op2": "rd_dimension_s", "op3": "rd_edge_s"},
}


_CAL_SMALL = np.ones(16)
_CAL_GRID = np.linspace(0.0, 1.0, 192 * 192).reshape(192, 192)
_CAL_BUF = np.empty_like(_CAL_GRID)
_CAL_P = [0.1, 0.2, 0.3, 0.4]


def calibration_unit() -> float:
    """Time one fixed unit of work with the library's mix of costs: small
    numpy calls, plain Python dict and list work, a Philox stream built and
    drawn from, and one elementwise pass over a 192x192 array. A mix tracks
    the machine's speed on all three workloads; each part alone tracks one."""
    t = perf_counter()
    s = 0.0
    for _ in range(CAL_ITERS):
        s += float((_CAL_SMALL * _CAL_SMALL).sum())
    d, acc = {}, []
    for i in range(7 * CAL_ITERS):
        d[i & 63] = i * 0.5
        acc.append(d[i & 63] + 1.0)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 3])))
    for _ in range(CAL_ITERS // 10):
        gen.choice(4, size=25, p=_CAL_P)
    np.exp(-_CAL_GRID, out=_CAL_BUF)
    return perf_counter() - t


class Clock:
    """Times calls and rescales them to the reference machine speed.

    While a call runs, SIGALRM fires every SAMPLE_S seconds and the handler
    times one calibration unit on the same CPU, so the speed is sampled
    during the call rather than beside it. The handler's own time is
    subtracted from in-process calls. `on_sample(t0, t1)` lets a tracer
    record the handler as a span of its own.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.on_sample = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        t0 = perf_counter()
        d = calibration_unit()
        self.samples.append(d)
        self.spent += perf_counter() - t0
        if self.on_sample is not None:
            self.on_sample(t0, perf_counter())

    def time(self, fn, in_process=True):
        """(result, error, raw seconds, seconds at reference speed)."""
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_FIRST_S, SAMPLE_S)
        t = perf_counter()
        try:
            result, error = fn(), None
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = perf_counter() - t - (self.spent if in_process else 0.0)
        if not self.samples:
            self.samples.append(calibration_unit())
        return result, error, raw, raw * CAL_REF_S / statistics.fmean(self.samples)


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(xs)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(xs)[n - 11]}


def stats(xs, raw=None):
    out = {"median": median(xs), "n": len(xs), "tail": tail(xs)}
    if raw is not None:
        out["raw_wall_median"] = median(raw)
    return out


class Runner:
    def __init__(self, plan: dict, checker: checks.Checker, tracer=None):
        import genbounds.cli
        import genbounds.ratedistortion as rdm

        self.cli, self.rdm = genbounds.cli, rdm
        self.plan, self.checker, self.tracer = plan, checker, tracer
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unconverged = 0
        self.inputs = {}
        for case in plan["cases"]:
            for op in case["ops"]:
                if op["kind"] == "rd_dimension":
                    k = 2 ** op["bits"]
                    grid = np.arange(k) / k
                    rho = np.abs(grid[:, None] - grid[None, :])
                    self.inputs[id(op)] = (np.full(k, 1.0 / k), rdm.DistortionSpec(rho, 0), op["eps"])

    def _call(self, op):
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(op["argv"])
        return self.rdm.rd_dimension(*self.inputs[id(op)])

    def round(self, traced: bool) -> dict:
        """One pass over every case; returns slot samples and the pass time."""
        if traced:
            self.tracer.install()
            self.clock.on_sample = self.tracer.calibration_span
        slots = {s: [] for s in SLOTS}
        raw_slots = {s: [] for s in SLOTS}
        factors, total, total_raw = {}, 0.0, 0.0
        try:
            for case in self.plan["cases"]:
                per_slot = dict.fromkeys(SLOTS, 0.0)
                per_slot_raw = dict.fromkeys(SLOTS, 0.0)
                for op in case["ops"]:
                    key = f"{case['id']}/{op['name']}"
                    op_id = len(factors)
                    if self.tracer is not None:
                        self.tracer.op = op_id
                    result, error, raw, norm = self.clock.time(lambda: self._call(op))
                    factors[op_id] = norm / raw if raw > 0 else 1.0
                    per_slot[op["slot"]] += norm
                    per_slot_raw[op["slot"]] += raw
                    total += norm
                    total_raw += raw
                    self.attempted += 1
                    bad = self._check(key, op, result, error)
                    self.failed += bool(bad)
                    self.problems += [f"{key}: {p}" for p in bad]
                for s in SLOTS:
                    slots[s].append(per_slot[s])
                    raw_slots[s].append(per_slot_raw[s])
        finally:
            if traced:
                self.tracer.uninstall()
                self.clock.on_sample = None
        # a slot's sample is its mean time per case in this pass
        return {"slots": {s: statistics.fmean(v) for s, v in slots.items()},
                "raw_slots": {s: statistics.fmean(v) for s, v in raw_slots.items()},
                "workload_s": total, "raw_s": total_raw, "factors": factors}

    def _check(self, key, op, result, error) -> list[str]:
        if error is not None:
            return [f"raised {error.strip().splitlines()[-1]}"]
        if op["kind"] == "cli" and result != 0:
            return [f"exit code {result}"]
        try:
            bad = self.checker.check(key, op, result)
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if op["parse"] == "rd":
            self.unconverged += sum(not c for c in self.checker.last["converged"])
        return bad


def setup(workload: str, seed: int, scale: str, repeats: int) -> tuple[dict, list, list]:
    """Write the inputs in fresh processes; returns (plan, scaled times, raw times)."""
    out = WORK / workload / f"seed{seed}-{scale}"
    cmd = [sys.executable, str(BENCH / "cases.py"), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--out", str(out)]
    clock = Clock()
    times, raws = [], []
    for _ in range(repeats):
        proc, error, raw, scaled = clock.time(
            lambda: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120), in_process=False)
        if error is not None or proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {error or proc.stderr.strip()}")
        times.append(scaled)
        raws.append(raw)
    return json.loads((out / "plan.json").read_text(encoding="utf-8")), times, raws


def environment(workload, seed, seconds, trace, scale) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas, "blas_threads": BLAS_THREADS, "calibration_ref_s": CAL_REF_S,
        "platform": platform.platform(),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "genbounds").glob("*.py")):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:16]


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list]:
    """Full passes while they fit in `seconds`; with trace, alternate untraced and traced.

    A traced run first makes one full untraced pass that it does not time:
    the first full pass pays one-off costs (page faults on the first large
    arrays), which would otherwise be charged to the untraced side of the
    tracing overhead.
    """
    plain, traced = [], []
    if trace:
        runner.round(False)
    start = perf_counter()
    longest = 0.0
    while True:
        do_trace = trace and len(traced) < len(plain)
        need_more = not plain or (trace and not traced)
        if not need_more and perf_counter() - start + longest > seconds:
            break
        t = perf_counter()
        rec = runner.round(do_trace)
        if do_trace:
            rec["spans"] = runner.tracer.spans
            rec["layers"] = tracing.layer_metrics(runner.tracer, rec["factors"])
            runner.tracer.reset()
            traced.append(rec)
        else:
            plain.append(rec)
        longest = max(longest, perf_counter() - t)
    return plain, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """(result, details) of one benchmark run.

    genbounds must already be imported from SRC, which also leaves its
    bytecode cache warm for the timed set-up processes.
    """
    plan, setup_s, setup_raw = setup(workload, seed, scale, 1 if trace else SETUP_REPEATS)
    # warm-up on the tiny scale: imports, lazy scipy modules, first-call paths
    tiny_plan = json.loads(cases.write_inputs(workload, seed, "tiny",
                                              WORK / workload / f"seed{seed}-warm").read_text(encoding="utf-8"))
    warm = Runner(tiny_plan, checks.Checker({}, seed))
    warm.round(False)

    checker = checks.Checker(checks.load_reference(workload) if scale == "full" else {}, seed)
    runner = Runner(plan, checker, tracing.Tracer() if trace else None)
    plain, traced = measure(runner, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = warm.problems + runner.problems
    attempted = warm.attempted + runner.attempted
    failed = warm.failed + runner.failed
    factors = [f for r in plain for f in r["factors"].values()]
    details = {
        "environment": environment(workload, seed, seconds, trace, scale),
        "ops": attempted,
        "failed_ops_frac": failed / attempted,
        "reference": "seed" if checker.by_seed is not None else "seed-independent values only",
        "outputs_identical": checker.identical if checker.by_seed is not None else None,
        "outputs_with_reference_hash": checker.hashed,
        "rd_unconverged_points_per_pass": runner.unconverged / (len(plain) + len(traced)),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "speed_scale": {"min": min(factors), "max": max(factors)},
    }
    wl = [r["workload_s"] for r in plain]
    if not trace:
        metrics = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "workload_s": {"value": median(wl), "unit": "s"},
        }
        names = OP_NAMES[workload]
        timings = {"setup_s": stats(setup_s, setup_raw),
                   "workload_s": stats(wl, [r["raw_s"] for r in plain])}
        for s in SLOTS:
            xs = [r["slots"][s] for r in plain]
            metrics[f"{s}_s"] = {"value": median(xs), "unit": "s"}
            timings[names[s]] = stats(xs, [r["raw_slots"][s] for r in plain])
        if workload == "exact-bound":
            timings["exact_kinds_s"] = stats([r["slots"]["op2"] + r["slots"]["op3"] for r in plain])
        elif workload == "mc-validate":
            mc, cov = (op["expect"] for op in plan["cases"][0]["ops"][:2])
            timings["mc_trials_per_s"] = mc["trials"] / timings[names["op1"]]["median"]
            timings["covering_trials_per_s"] = cov["trials"] * len(cov["m"]) / timings[names["op2"]]["median"]
        details["timings"] = timings
    else:
        counters = traced[0]["layers"][0]
        if any(rec["layers"][0] != counters for rec in traced[1:]):
            problems.append("trace: counters differ between two traced passes of the same inputs")
        problems += compare_counters(workload, seed, scale, counters)
        layer_t = {k: median([r["layers"][1][k] for r in traced]) for k in traced[0]["layers"][1]}
        traced_wl = median([r["workload_s"] for r in traced])
        self_sum = layer_t.pop("trace.self_sum_s")
        layer_t["trace.overhead_s"] = traced_wl - median(wl)
        layer_t["trace.attributed_frac"] = self_sum / traced_wl
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in {**counters, **layer_t}.items()}
        details["counters"] = counters
        details["timings"] = {"untraced_workload_s": stats(wl),
                              "traced_workload_s": stats([r["workload_s"] for r in traced]), "layers": layer_t}
        spans = WORK / "spans" / f"{workload}-seed{seed}-{scale}.csv"
        tracing.write_spans(traced[0]["spans"], spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
    details["problems"] = problems[:50]
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="genbounds benchmark")
    ap.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "genbounds" / "__init__.py").is_file():
        print(f"error: no genbounds sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import genbounds

    if not Path(genbounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: genbounds imported from {genbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"detail": details, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"detail": details}))
    print(json.dumps(result))
    return 0


def compare_counters(workload: str, seed: int, scale: str, counters: dict) -> list[str]:
    """Deterministic counters must repeat exactly for the same seed and sources."""
    path = WORK / "counters" / f"{workload}-seed{seed}-{scale}-{source_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counters:
            diff = sorted(k for k in counters if earlier.get(k) != counters[k])
            return [f"trace: counters differ from an earlier run with the same seed: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, indent=1, sort_keys=True), encoding="utf-8")
    return []


if __name__ == "__main__":
    sys.exit(main())
