"""Span tracing of genbounds layers from outside the library.

`Tracer.install()` wraps each function named in SPANS and COUNTS and puts the
wrapper in place of the original in every ``genbounds`` module namespace that
holds it (modules bind names at import, e.g. ``cli`` holds ``rd_tail_bound``
and ``validation`` holds ``seeding.rng`` as ``_rng``); methods are replaced on
their class. A span is (layer, start, end, parent span, operation id) and is
kept in memory until the caller writes it out. `uninstall()` restores the
originals, so untraced passes in the same process run the plain library.
"""

from __future__ import annotations

import collections
import inspect
import sys
from pathlib import Path
from time import perf_counter

# (layer, module, attribute); several functions may share one layer name
SPANS = [
    ("info.gdelta_sup", "genbounds.info", "gdelta_sup"),
    ("ratedistortion.rd_curve", "genbounds.ratedistortion", "rd_curve"),
    ("ratedistortion.rd_gen", "genbounds.ratedistortion", "rd_gen"),
    ("ratedistortion.rd_dimension", "genbounds.ratedistortion", "rd_dimension"),
    ("learning.induced_joint", "genbounds.learning", "induced_joint"),
    ("learning.posterior", "genbounds.learning", "GibbsAlgorithm.posterior"),
    ("learning.posterior", "genbounds.learning", "GibbsAlgorithm.posterior_from_counts"),
    ("learning.gen_errors", "genbounds.learning", "gen_errors"),
    ("learning.gen_table", "genbounds.learning", "gen_table"),
    ("bounds.rd_tail_bound", "genbounds.bounds", "rd_tail_bound"),
    ("bounds.closed_form", "genbounds.bounds", "thm1_bound"),
    ("bounds.closed_form", "genbounds.bounds", "fixed_size_bound"),
    ("bounds.exact_kinds", "genbounds.bounds", "log_mgf"),
    ("bounds.exact_kinds", "genbounds.bounds", "pac_bayes_eq22"),
    ("bounds.exact_kinds", "genbounds.bounds", "prop5_bound"),
    ("bounds.exact_kinds", "genbounds.bounds", "thm5_expectation_bound"),
    ("validation.mc_tail_validate", "genbounds.validation", "mc_tail_validate"),
    ("validation.covering", "genbounds.validation", "covering_failure_estimate"),
    ("seeding.rng", "genbounds.seeding", "rng"),
    ("trajectory.lr_sweep", "genbounds.trajectory", "lr_sweep"),
    ("trajectory.simulate_trajectory", "genbounds.trajectory", "simulate_trajectory"),
    ("trajectory.gen_trajectory", "genbounds.trajectory", "gen_trajectory"),
    ("trajectory.trajectory_distribution", "genbounds.trajectory", "trajectory_distribution"),
    ("counterexample.scaling_study", "genbounds.counterexample", "scaling_study"),
    ("counterexample.assemble_bound", "genbounds.counterexample", "assemble_bound"),
    ("counterexample.exact_mean_gen", "genbounds.counterexample", "exact_mean_gen"),
    ("io.write", "genbounds.io", "write_report"),
    ("io.write", "genbounds.io", "write_csv"),
    ("io.file_sha256", "genbounds.io", "file_sha256"),
    ("cli.main", "genbounds.cli", "main"),
]
CALIBRATION = "bench.calibration"
# called too often for a span to be cheap; only counted
COUNTS = [("info.kl_divergence", "genbounds.info", "kl_divergence")]


def _arg(fn, name):
    sig = inspect.signature(fn)
    return lambda a, k: sig.bind(*a, **k).arguments[name]


def _notes() -> dict:
    """Per-layer counters read from a call's arguments or result."""
    import genbounds.validation as val
    import genbounds.counterexample as cex

    mc_trials = _arg(val.mc_tail_validate, "trials")
    cex_trials = _arg(cex.scaling_study, "trials")
    return {
        "ratedistortion.rd_curve": lambda a, k, r: {"iterations": r.iterations, "unconverged": int(not r.converged)},
        "learning.induced_joint": lambda a, k, r: {"rows": len(r[1])},
        "validation.mc_tail_validate": lambda a, k, r: {"trials": mc_trials(a, k)},
        "validation.covering": lambda a, k, r: {"trials": sum(x.trials for x in r),
                                                "failures": sum(x.failures for x in r)},
        "counterexample.scaling_study": lambda a, k, r: {"trials": cex_trials(a, k) * len(r.rows)},
        # manifest.json holds the wall time, so its length varies between runs
        "io.write": lambda a, k, r: {"bytes": 0 if Path(r).name == "manifest.json" else Path(r).stat().st_size},
    }


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    *owner, name = attr.split(".")
    for part in owner:
        obj = getattr(obj, part)
    return obj, name, getattr(obj, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.notes = collections.defaultdict(collections.Counter)
        self.counts = collections.Counter()
        self.op = 0
        self._saved: list = []

    def reset(self):
        self.spans, self.stack = [], []
        self.notes.clear()
        self.counts.clear()

    def calibration_span(self, t0, t1):
        """Record the benchmark's calibration sampling, so no layer is charged for it."""
        self.spans.append((CALIBRATION, t0, t1, self.stack[-1] if self.stack else -1, self.op))

    def _span(self, fn, layer, note):
        tr = self

        def traced(*a, **k):
            spans, stack = tr.spans, tr.stack
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                r = fn(*a, **k)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (layer, t0, t1, parent, tr.op)
            if note is not None:
                tr.notes[layer].update(note(a, k, r))
            return r

        return traced

    def _count(self, fn, layer):
        counts = self.counts

        def counted(*a, **k):
            counts[layer] += 1
            return fn(*a, **k)

        return counted

    def install(self):
        if self._saved:
            return
        notes = _notes()
        wrappers = {}
        for layer, module, attr in SPANS:
            owner, name, fn = _resolve(module, attr)
            w = self._span(fn, layer, notes.get(layer))
            if isinstance(owner, type):
                self._saved.append((owner, name, fn))
                setattr(owner, name, w)
            else:
                wrappers[id(fn)] = (fn, w)
        for layer, module, attr in COUNTS:
            _, _, fn = _resolve(module, attr)
            wrappers[id(fn)] = (fn, self._count(fn, layer))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "genbounds" or mod_name.startswith("genbounds.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)


def write_spans(spans: list, path: Path):
    """Write spans as CSV: index, layer, start_s, end_s, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        fh.write("index,layer,start_s,end_s,parent,op\n")
        for i, (layer, a, b, parent, op) in enumerate(spans):
            fh.write(f"{i},{layer},{a - t0:.9f},{b - t0:.9f},{parent},{op}\n")


def _under(spans, i, layer) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == layer:
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer: Tracer, factors: dict) -> tuple[dict, dict]:
    """(counters, timings) for one traced pass.

    `factors[op]` rescales the spans of operation `op` to reference machine
    speed. busy_s is the time a layer was on the stack (calls nested in the
    same layer counted once), self_s its busy time minus its children's.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for layer, a, b, parent, op in spans:
        if parent >= 0:
            child[parent] += (b - a) * factors[op]
    calls = collections.Counter()
    busy = collections.Counter()
    own = collections.Counter()
    for i, (layer, a, b, parent, op) in enumerate(spans):
        d = (b - a) * factors[op]
        calls[layer] += 1
        own[layer] += d - child[i]
        if not _under(spans, i, layer):
            busy[layer] += d
    notes = tracer.notes
    evals = sum(1 for i, s in enumerate(spans) if s[0] == "ratedistortion.rd_gen" and _under(spans, i, "info.gdelta_sup"))
    mc_post = sum(1 for i, s in enumerate(spans)
                  if s[0] == "learning.posterior" and _under(spans, i, "validation.mc_tail_validate"))
    mc_trials = notes["validation.mc_tail_validate"]["trials"]

    def per(x, n, unit):
        return x / n * unit if n else 0.0

    counters = {
        "info.gdelta_sup.evals": evals,
        "info.kl_divergence.calls": tracer.counts["info.kl_divergence"],
        "ratedistortion.rd_curve.calls": calls["ratedistortion.rd_curve"],
        "ratedistortion.rd_curve.iterations": notes["ratedistortion.rd_curve"]["iterations"],
        "ratedistortion.rd_curve.unconverged": notes["ratedistortion.rd_curve"]["unconverged"],
        "ratedistortion.rd_gen.calls": calls["ratedistortion.rd_gen"],
        "learning.induced_joint.calls": calls["learning.induced_joint"],
        "learning.induced_joint.rows": notes["learning.induced_joint"]["rows"],
        "learning.posterior.calls": calls["learning.posterior"],
        "learning.posterior.calls_per_trial": per(mc_post, mc_trials, 1),
        "learning.gen_errors.calls": calls["learning.gen_errors"],
        "bounds.closed_form.calls": calls["bounds.closed_form"],
        "validation.mc_tail_validate.trials": mc_trials,
        "validation.covering.trials": notes["validation.covering"]["trials"],
        "validation.covering.failures": notes["validation.covering"]["failures"],
        "seeding.rng.calls": calls["seeding.rng"],
        "trajectory.simulate_trajectory.calls": calls["trajectory.simulate_trajectory"],
        "trajectory.gen_trajectory.calls": calls["trajectory.gen_trajectory"],
        "counterexample.scaling_study.trials": notes["counterexample.scaling_study"]["trials"],
        "io.write.calls": calls["io.write"],
        "io.bytes_written": notes["io.write"]["bytes"],
        "cli.main.calls": calls["cli.main"],
    }
    rows = notes["learning.induced_joint"]["rows"]
    timings = {
        "info.gdelta_sup.busy_s": busy["info.gdelta_sup"],
        "info.gdelta_sup.self_s": own["info.gdelta_sup"],
        "ratedistortion.rd_curve.busy_s": busy["ratedistortion.rd_curve"],
        "ratedistortion.rd_curve.self_s": own["ratedistortion.rd_curve"],
        "ratedistortion.rd_curve.ms_per_call": per(busy["ratedistortion.rd_curve"], calls["ratedistortion.rd_curve"], 1e3),
        "ratedistortion.rd_dimension.busy_s": busy["ratedistortion.rd_dimension"],
        "learning.induced_joint.busy_s": busy["learning.induced_joint"],
        "learning.induced_joint.us_per_row": per(busy["learning.induced_joint"], rows, 1e6),
        "learning.posterior.busy_s": busy["learning.posterior"],
        "learning.gen_errors.busy_s": busy["learning.gen_errors"],
        "learning.gen_table.busy_s": busy["learning.gen_table"],
        "bounds.rd_tail_bound.self_s": own["bounds.rd_tail_bound"],
        "bounds.closed_form.busy_s": busy["bounds.closed_form"],
        "bounds.exact_kinds.busy_s": busy["bounds.exact_kinds"],
        "validation.mc_tail_validate.self_s": own["validation.mc_tail_validate"],
        "validation.mc_tail_validate.us_per_trial": per(busy["validation.mc_tail_validate"], mc_trials, 1e6),
        "validation.covering.self_s": own["validation.covering"],
        "validation.covering.us_per_trial": per(busy["validation.covering"],
                                                notes["validation.covering"]["trials"], 1e6),
        "seeding.rng.busy_s": busy["seeding.rng"],
        "seeding.rng.us_per_call": per(busy["seeding.rng"], calls["seeding.rng"], 1e6),
        "trajectory.lr_sweep.self_s": own["trajectory.lr_sweep"],
        "trajectory.simulate_trajectory.busy_s": busy["trajectory.simulate_trajectory"],
        "trajectory.gen_trajectory.busy_s": busy["trajectory.gen_trajectory"],
        "trajectory.trajectory_distribution.busy_s": busy["trajectory.trajectory_distribution"],
        "counterexample.scaling_study.self_s": own["counterexample.scaling_study"],
        "counterexample.assemble_bound.busy_s": busy["counterexample.assemble_bound"],
        "counterexample.exact_mean_gen.busy_s": busy["counterexample.exact_mean_gen"],
        "io.write.busy_s": busy["io.write"],
        "io.file_sha256.busy_s": busy["io.file_sha256"],
        "cli.main.self_s": own["cli.main"],
        "trace.self_sum_s": sum(v for k, v in own.items() if k != CALIBRATION),
    }
    return counters, timings


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    for suffix, u in (("ms_per_call", "ms"), ("us_per_row", "us"), ("us_per_trial", "us"), ("us_per_call", "us"),
                      ("calls_per_trial", "1/trial"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return u
    return "ratio" if name.endswith("_frac") else "count"
