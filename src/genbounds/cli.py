"""Command-line front end: bound, rd, mc-validate, covering, trajectory, counterexample, sweep.

Flags may be seeded from a JSON config file (--config); explicit flags
override file values, unknown or duplicate config keys are rejected, and
each value is converted and checked as the same text given as a flag. Every
run writes its outputs plus a manifest (config snapshot, artifact version,
wall time, output hashes) into the output directory. Exit codes: 0 pass,
2 validation failure, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    _conditional,
    fixed_size_bound,
    log_mgf,
    pac_bayes_eq22,
    prop5_bound,
    rd_tail_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    thm5_expectation_bound,
    toy_example_bound,
)
from .counterexample import scaling_study
from .info import Pmf
from .io import _finite, _json_object, file_sha256, load_problem, write_csv, write_report
from .learning import GibbsAlgorithm, _symbol_counts, gen_table, induced_joint, sample_dataset
from .ratedistortion import _gen_problem, _rd_grid
from .seeding import rng as _rng
from .trajectory import LogisticToy, QuadraticToy, lr_sweep, thm7_bound, thm8_bound
from .validation import covering_default_instance, covering_failure_estimate, mc_tail_validate

BOUND_KINDS = ("thm1", "eq4", "eq21", "seeger", "eq22", "prop5i", "prop5ii", "toy", "thm5i", "thm5ii")
_SWEEP_KINDS = ("thm1", "eq4", "seeger", "thm7", "thm8")


def _config_value(action: argparse.Action, key: str, value):
    """`value` converted and checked as argparse treats the same text given as a flag."""
    if value is None and action.default is None:
        return None  # null leaves an optional flag unset
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key}: {value!r} is not one of {list(action.choices)}")
    return value


def _apply_config(parser, args: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # a key names an optional flag of the subcommand; --help and --config themselves are not settable
    actions = {a.dest: a for a in sub.choices[args.command]._actions if a.option_strings}
    cfg = _json_object(args.config, "config", set(actions) - {"help", "config"})
    cli_tokens = {t.split("=")[0].lstrip("-").replace("-", "_") for t in argv if t.startswith("--")}
    for key, value in cfg.items():
        if key not in cli_tokens:  # an explicit flag wins
            setattr(args, key, _config_value(actions[key], key, value))
    return args


def _numbers(text: str, kind=float) -> list:
    values = [kind(x) for x in str(text).split(",") if x != ""]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _manifest(args, path: Path) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    return {
        "config": cfg,
        "artifact_version": __version__,
        "wall_time_s": time.time() - args._t0,
        "outputs": [{"path": str(path), "sha256": file_sha256(path)}],
    }


def _emit(args, write, data, default_name: str, *header) -> Path:
    """Write `data` to --out (a file, or a directory plus `default_name`) and manifest.json beside it."""
    out = Path(args.out)
    path = write(data, *header, out if out.suffix else out / default_name)
    write_report(_manifest(args, path), path.parent / "manifest.json")
    return path


# closed-form kinds shared by `bound` and `sweep`: (args, n) -> BoundReport
_CLOSED_FORM = {
    "thm1": lambda a, n: thm1_bound(a.rate, a.sigma, n, a.delta, a.epsilon),
    "eq4": lambda a, n: fixed_size_bound(a.rate, a.sigma, n, a.delta, a.epsilon),
    "seeger": lambda a, n: seeger_fast_rate_bound(a.emp_risk, a.sup_mi, a.sigma, n, a.delta),
    "toy": lambda a, n: toy_example_bound(a.means_sq_sum, a.lipschitz, a.d, a.sigma, n, a.delta),
    "thm7": lambda a, n: thm7_bound(a.rate, a.delta, n, a.epsilon),
    "thm8": lambda a, n: thm8_bound(a.rate, a.log_m, a.lipschitz, a.delta, n, a.epsilon),
}


def _gibbs_setup(args):
    if not getattr(args, "problem", None):
        raise ValueError(f"--problem is required for this {args.command} invocation")
    prob = load_problem(args.problem)
    prior = Pmf.uniform(prob.w_alphabet_size)
    return prob, GibbsAlgorithm(prior=prior, beta=args.beta)


def cmd_bound(args) -> int:
    kind = args.kind
    if kind in _CLOSED_FORM:
        rep = _CLOSED_FORM[kind](args, args.n)
    else:  # the exact kinds, on the type-level joint of the Gibbs algorithm
        prob, alg = _gibbs_setup(args)
        joint, contexts = induced_joint(prob, alg, args.n, by_type=True)
        gtab = gen_table(prob, contexts, by_type=True)
        if kind == "eq21":
            rep = rd_tail_bound(joint, gtab, prob.sigma, args.n, args.delta, args.epsilon, seed=args.seed)
        elif kind in ("thm5i", "thm5ii"):
            q = np.asarray(joint.marginal_w())
            pws = _conditional(np.asarray(joint), np.asarray(joint.marginal_s()))
            if kind == "thm5i":
                lam = None if args.lam <= 0 else args.lam  # a NaN lam reaches the bound, which rejects it
                rep = thm5_expectation_bound("i", joint, pws, q, gtab, gtab, lam=lam, epsilon=args.epsilon)
            else:
                f = gtab**2 + args.f_floor
                rep = thm5_expectation_bound("ii", joint, pws, q, f, f, lam=None, alpha=args.alpha)
        else:
            f = args.lam * gtab
            p_s = np.asarray(joint.marginal_s())
            s = sample_dataset(prob, args.n, args.seed)
            counts = _symbol_counts(s.samples[None], prob.z_alphabet_size)
            s_idx = int(np.flatnonzero((contexts == counts).all(axis=1))[0])
            pi = np.asarray(alg.posterior(prob, s))
            if kind == "eq22":
                rep = pac_bayes_eq22(pi, np.asarray(alg.prior), log_mgf(p_s, alg.prior, f), args.delta)
            elif kind == "prop5i":
                eps = 0.0  # lossless quantizer: reproduction = W, g = f
                rep = prop5_bound(
                    "i", P_S=p_s, q_hat=alg.prior, g=f, delta=args.delta, epsilon=eps,
                    s_index=s_idx, pi=pi, p_quant=pi, f=f,
                )
            else:
                k = prob.w_alphabet_size
                flip = args.kernel_flip
                kernel = (1 - flip) * np.eye(k) + flip / max(k - 1, 1) * (1 - np.eye(k))
                w_idx = int(_rng(args.seed, 1).choice(k, p=pi))
                pws = alg.posteriors(prob, contexts)
                achieved = float(f[s_idx, w_idx] - kernel[w_idx] @ f[s_idx])
                rep = prop5_bound(
                    "ii", P_S=p_s, q_hat=alg.prior, g=f, delta=args.delta,
                    epsilon=max(args.epsilon, achieved, 0.0), s_index=s_idx,
                    kernel=kernel, P_WgS=pws, w_index=w_idx, f=f,
                )
    _emit(args, write_report, rep, "report.json")
    print(f"{kind}: bound = {rep.bound_value:.6g}")
    return 0


def cmd_rd(args) -> int:
    if args.problem:
        prob, alg = _gibbs_setup(args)
        joint, contexts = induced_joint(prob, alg, args.n, by_type=True)
        source, d, shift = _gen_problem(joint, gen_table(prob, contexts, by_type=True))
    else:
        source = Pmf(np.asarray(_numbers(args.source)))
        k = source.alphabet_size
        if args.distortion == "hamming":
            d = 1.0 - np.eye(k)
        elif args.distortion == "abs":
            grid = np.arange(k, dtype=float) / max(k - 1, 1)
            d = np.abs(grid[:, None] - grid[None, :])
        else:
            d = _finite(json.loads(Path(args.distortion).read_text()), f"distortion file {args.distortion}", None)
        shift = 0.0
    eps_grid = _numbers(args.epsilon_grid)
    points = _rd_grid(source, d, [eps - shift for eps in eps_grid])
    rows = [(eps, pt.rate, pt.lagrange, pt.iterations, pt.converged) for eps, pt in zip(eps_grid, points)]
    header = ["epsilon", "rate_nats", "lagrange", "iterations", "converged"]
    path = _emit(args, write_csv, rows, "rd_curve.csv", header)
    print(f"rd: {len(rows)} points -> {path}")
    return 0


def cmd_mc_validate(args) -> int:
    prob, alg = _gibbs_setup(args)
    sigma = prob.sigma
    prior = np.asarray(alg.prior)
    bound = thm1_bound if args.kind == "thm1" else fixed_size_bound

    @functools.cache  # trials share few distinct rates, and each gives the same bound bits
    def bound_at(rate):
        return bound(rate, sigma, args.n, args.delta, args.epsilon).bound_value

    def bound_fn(s, w, post):
        return bound_at(max(0.0, math.log(post[w] / prior[w])) if post[w] > 0 else 0.0)

    report = mc_tail_validate(prob, alg, bound_fn, args.n, args.delta, args.trials, args.seed)
    _emit(args, write_report, report, "validation.json")
    print(
        f"mc-validate: rate {report.violation_rate:.4f} vs delta {args.delta} "
        f"(+3se {report.target_delta + 3 * report.binomial_se:.4f}) -> {'pass' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 2


def cmd_covering(args) -> int:
    inst = covering_default_instance()
    rows = covering_failure_estimate(
        inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
        _numbers(args.m_grid, int), args.trials, args.seed, q_hat=inst["q_hat"],
    )
    _emit(
        args, write_csv, [(r.m, r.trials, r.failures, r.exponent, r.censored) for r in rows],
        "covering.csv", ["m", "trials", "failures", "exponent", "censored"],
    )
    for r in rows:
        print(f"m={r.m}: failures {r.failures}/{r.trials}, exponent {r.exponent:.4f}, censored={r.censored}")
    return 0


def _load_trajectory_spec(path: str):
    known = {
        "logistic": {"mu", "w_max"},
        "quadratic": {"z_values", "mu", "w_lo", "w_hi"},
    }
    data = _json_object(path, "trajectory spec", {"model", *known["logistic"], *known["quadratic"]})
    kind = data.pop("model", "logistic")
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"unknown trajectory model {kind!r}")
    unknown = set(data) - known[kind]
    if unknown:
        raise ValueError(f"unknown {kind} trajectory spec key(s): {sorted(unknown)}")
    values = {k: _finite(v, f"trajectory spec key {k!r}", 1 if k in ("mu", "z_values") else 0) for k, v in data.items()}
    try:
        return LogisticToy(**values) if kind == "logistic" else QuadraticToy(**values)
    except OverflowError as exc:
        raise ValueError(f"trajectory spec values overflow: {exc}") from None


def cmd_trajectory(args) -> int:
    if args.spec:
        model = _load_trajectory_spec(args.spec)
    else:
        model = LogisticToy() if args.model == "logistic" else QuadraticToy()
    result = lr_sweep(
        model, _numbers(args.lr_grid), args.trials, n=args.n, steps=args.steps,
        epsilon=None if args.epsilon <= 0 else args.epsilon, seed=args.seed, bins=args.bins,
    )
    _emit(args, write_csv, result.to_csv_rows(), "sweep.csv", ["lr", "mean_gen", "rd_nats", "flag"])
    print(f"trajectory: spearman rho = {result.spearman_rho}")
    return 0


def cmd_counterexample(args) -> int:
    result = scaling_study(_numbers(args.n_list, int), args.trials, delta=args.delta)
    _emit(
        args, write_csv,
        [
            (r.n, r.exact_mean_gen, r.bound_expectation, r.bound_tail, r.event_probability, result.slope_bound)
            for r in result.rows
        ],
        "scaling.csv",
        ["n", "exact_mean_gen", "bound_expectation", "bound_tail", "event_probability", "slope_fit"],
    )
    print(f"counterexample: bound slope {result.slope_bound:.3f}, exact slope {result.slope_exact:.3f}")
    return 0


def cmd_sweep(args) -> int:
    rows = [(n, _CLOSED_FORM[args.kind](args, n).bound_value) for n in _numbers(args.n_grid, int)]
    path = _emit(args, write_csv, rows, "sweep_bounds.csv", ["n", "bound_value"])
    print(f"sweep: {len(rows)} rows -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: `_apply_config` sees a flag as explicit only when it is spelled in full
    parser = argparse.ArgumentParser(prog="genbounds", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, seeded: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="64-bit root seed")
        p.add_argument("--out", type=str, default="out", help="output file or directory")
        p.add_argument("--config", type=str, default=None, help="JSON config; flags override")
        return p

    p = command("bound", "evaluate one bound and write report.json")
    p.add_argument("--kind", choices=BOUND_KINDS, required=True)
    p.add_argument("--problem", type=str, default=None, help="problem JSON file")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0, help="multiplier; <= 0 minimises the thm5i bound over it")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--emp-risk", dest="emp_risk", type=float, default=0.0)
    p.add_argument("--sup-mi", dest="sup_mi", type=float, default=0.0)
    p.add_argument("--means-sq-sum", dest="means_sq_sum", type=float, default=0.0)
    p.add_argument("--lipschitz", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--kernel-flip", dest="kernel_flip", type=float, default=0.0)
    p.add_argument("--f-floor", dest="f_floor", type=float, default=1e-12)
    p.set_defaults(func=cmd_bound)

    p = command("rd", "rate-distortion curve to CSV", seeded=False)
    p.add_argument("--problem", type=str, default=None)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--source", type=str, default="0.5,0.5")
    p.add_argument("--distortion", type=str, default="hamming", help="hamming | abs | matrix JSON file")
    p.add_argument("--epsilon-grid", dest="epsilon_grid", type=str, default="0.05,0.1,0.25")
    p.set_defaults(func=cmd_rd)

    p = command("mc-validate", "Monte Carlo tail validation of thm1/eq4")
    p.add_argument("--problem", type=str, required=True)
    p.add_argument("--kind", choices=("thm1", "eq4"), default="thm1")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=25)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(func=cmd_mc_validate)

    p = command("covering", "random-coding covering failure exponents")
    p.add_argument("--m-grid", dest="m_grid", type=str, default="4,8,12")
    p.add_argument("--trials", type=int, default=4000)
    p.set_defaults(func=cmd_covering)

    p = command("trajectory", "learning-rate sweep: gen error vs trajectory RD")
    p.add_argument("--spec", type=str, default=None, help="toy-model spec JSON (overrides --model)")
    p.add_argument("--model", choices=("logistic", "quadratic"), default="logistic")
    p.add_argument("--lr-grid", dest="lr_grid", type=str, default="0.05,0.1,0.2,0.4,0.8,1.2,1.6,2.0")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=0.0, help="<= 0 means 10%% of the distortion range")
    p.set_defaults(func=cmd_trajectory)

    p = command("counterexample", "SCO counter-example scaling study (exact, no sampling)", seeded=False)
    p.add_argument("--n-list", dest="n_list", type=str, default="4,6,8,10")
    ignored = "accepted for old scripts; no output depends on it"
    p.add_argument("--trials", type=int, default=0, help=f"whole number >= 0, {ignored}")
    p.add_argument("--seed", type=int, default=0, help=ignored)
    p.add_argument("--delta", type=float, default=0.05)
    p.set_defaults(func=cmd_counterexample)

    p = command("sweep", "closed-form bound values over an n grid", seeded=False)
    p.add_argument("--kind", choices=_SWEEP_KINDS, default="thm1")
    p.add_argument("--n-grid", dest="n_grid", type=str, default="10,20,40,80")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--emp-risk", dest="emp_risk", type=float, default=0.0)
    p.add_argument("--sup-mi", dest="sup_mi", type=float, default=0.0)
    p.add_argument("--log-m", dest="log_m", type=float, default=0.0)
    p.add_argument("--lipschitz", type=float, default=1.0)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        args._t0 = time.time()
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
