"""High-dimensional SCO counter-example: projected GD, quantization, assembled bounds.

The instance is fully determined by n: T = 2n^2 gradient steps, step size
eta = 1/(n sqrt(5n)), dimension d = (3/4) T 2^n, regularizer lam = 1/(n sqrt(d)).
Data are iid Bern(1/2)^d vectors; a coordinate is `bad` when it is zero in
every training sample. Under the event {T/2 <= #bad <= T} the GD output has
a per-coordinate closed form (good j: (lam/2)(-1 + (1 - 2 eta muhat_j)^T),
bad j: -eta), which the iterative path must reproduce.

The max-term subgradient oracle pushes one coordinate per step: the argmax
coordinate, ties broken by smallest empirical mean then smallest index (the
memorizing oracle these constructions rely on; a tie-averaging rule provably
cannot reach the closed form). Because only bad coordinates sit at the max
value 0 once training starts, exactly min(#bad, T) of them end at -eta, and
the projection never activates (the squared norm stays below
2/(5n) + 1/(4n^2) < 1), so the closed form is exact whenever #bad <= T.

Everything needed by the scaling study (generalization errors, distortions,
the assembled bounds) reduces to per-coordinate closed forms conditioned on
the bad count k ~ Binomial(d, 2^-n), so the distortion term of the bound is
computed exactly rather than through the inequality chain; the chain value is
attached for audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.stats import binom

from .bounds import BoundReport, _finish
from .seeding import rng as _rng, rngs

__all__ = [
    "ScoInstance",
    "BadCoords",
    "sco_loss",
    "sco_population_risk",
    "sco_empirical_risk",
    "bad_coords",
    "run_gd",
    "bad_coord_stats",
    "quantizer_levels",
    "quantize_w",
    "exact_mean_gen",
    "assemble_bound",
    "scaling_study",
    "ScalingRow",
    "ScalingResult",
]

MAX_N = 12  # memory cap: d = (3/4) 2n^2 2^n coordinates per instance


@dataclass(frozen=True)
class ScoInstance:
    """All constants derived from n, bit-reproducibly."""

    n: int
    d_override: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @cached_property
    def T(self) -> int:
        return 2 * self.n**2

    @cached_property
    def eta(self) -> float:
        return 1.0 / (self.n * math.sqrt(5.0 * self.n))

    @cached_property
    def d(self) -> int:
        if self.d_override is not None:
            return self.d_override
        return (3 * self.T * 2**self.n) // 4

    @cached_property
    def lam(self) -> float:
        return 1.0 / (self.n * math.sqrt(self.d)) if self.d > 0 else 0.0

    @cached_property
    def bad_count_pmf(self) -> np.ndarray:
        """Read-only Binomial(d, 2^-n) pmf of the bad-coordinate count over k = 0..d."""
        pmf = binom.pmf(np.arange(self.d + 1), self.d, 2.0 ** (-self.n))
        pmf.flags.writeable = False
        return pmf

    @property
    def sigma(self) -> float:
        """Half of the quantized-loss range 2/(5n) + 1/(4n^2)."""
        return 1.0 / (5 * self.n) + 1.0 / (8 * self.n**2)


@dataclass(frozen=True)
class BadCoords:
    mask: np.ndarray
    count: int
    event_ok: bool


def _check_w(inst: ScoInstance, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.size != inst.d:
        raise ValueError(f"w must have length d = {inst.d}")
    if float(w @ w) > 1.0 + 1e-9:
        raise ValueError("w lies outside the unit ball")
    return w


def _check_r(inst: ScoInstance, r: float) -> None:
    if not 1.0 - 1.0 / inst.n**2 <= r <= 1.0:
        raise ValueError(f"r must lie in [1 - 1/n^2, 1] = [{1 - 1/inst.n**2}, 1]")


def _hinge(w: np.ndarray) -> float:
    return max(float(w.max()), 0.0) if w.size else 0.0


def sco_loss(inst: ScoInstance, z, w) -> float:
    """ell(z, w) = sum_j z_j w_j^2 + lam <w, z> + max(max_j w_j, 0)."""
    w = _check_w(inst, w)
    z = np.asarray(z, dtype=float)
    if z.size != inst.d:
        raise ValueError(f"z must have length d = {inst.d}")
    quad = float(z @ (w * w))
    lin = inst.lam * float(w @ z)
    return quad + lin + _hinge(w)


def sco_population_risk(inst: ScoInstance, w) -> float:
    """E_z ell(z, w) = sum_j w_j^2 / 2 + (lam/2) sum_j w_j + max(max_j w_j, 0)."""
    w = _check_w(inst, w)
    return float((w * w).sum()) / 2.0 + inst.lam * float(w.sum()) / 2.0 + _hinge(w)


def sco_empirical_risk(inst: ScoInstance, mu_hat, w) -> float:
    w = _check_w(inst, w)
    m = np.asarray(mu_hat, dtype=float)
    return float(m @ (w * w)) + inst.lam * float(m @ w) + _hinge(w)


def bad_coords(inst: ScoInstance, s: np.ndarray) -> BadCoords:
    """Coordinates that are zero in every training sample."""
    s = np.asarray(s)
    mask = ~s.any(axis=0)
    count = int(mask.sum())
    return BadCoords(mask=mask, count=count, event_ok=bool(inst.T // 2 <= count <= inst.T))


def good_value(inst: ScoInstance, mu_hat, eta: float | None = None):
    """Closed-form terminal value (lam/2)(-1 + (1 - 2 eta muhat)^T) of a good coordinate, elementwise."""
    eta = inst.eta if eta is None else eta
    return inst.lam / 2.0 * (-1.0 + (1.0 - 2.0 * eta * mu_hat) ** inst.T)


def run_gd(inst: ScoInstance, s: np.ndarray, mode: str = "iterative", eta: float | None = None):
    """T steps of projected GD from 0, or the closed form, on dataset s.

    Returns (w_T, event_ok). The closed form is the per-coordinate law that
    holds under the event (all bad coordinates at -eta); outside the event the
    two modes may differ and event_ok reports it.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != inst.d:
        raise ValueError(f"s must be an (n, d) bit matrix with d = {inst.d}")
    eta = inst.eta if eta is None else float(eta)
    mu_hat = s.mean(axis=0)
    bc = bad_coords(inst, s)

    if mode == "closed_form":
        w = good_value(inst, mu_hat, eta)
        w[bc.mask] = -eta
        return w, bc.event_ok
    if mode != "iterative":
        raise ValueError("mode must be 'iterative' or 'closed_form'")

    w = np.zeros(inst.d)
    coef = 1.0 - 2.0 * eta * mu_hat
    drift = -eta * inst.lam * mu_hat
    for _ in range(inst.T):
        grad_max = None
        m = w.max()
        if m >= 0.0:
            idx = np.flatnonzero(w == m)
            grad_max = idx[int(np.argmin(mu_hat[idx]))]
        w = coef * w + drift
        if grad_max is not None:
            w[grad_max] -= eta
        nrm2 = float(w @ w)
        if nrm2 > 1.0:
            w /= math.sqrt(nrm2)
    return w, bc.event_ok


def bad_coord_stats(inst: ScoInstance, trials: int, seed: int) -> dict:
    """MC estimate of P(T/2 <= #bad <= T) against the floor 1 - 2 e^{-T/36}.

    #bad is Binomial(d, 2^-n) exactly, so trials sample it directly. The
    returned dict carries the estimate, the floor, the 3-sigma check, and the
    mean check E[#bad] = (3/4) T.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    gen = _rng(seed)
    p = 2.0 ** (-inst.n)
    counts = gen.binomial(inst.d, p, size=trials) if inst.d > 0 else np.zeros(trials, dtype=int)
    hits = (counts >= inst.T // 2) & (counts <= inst.T)
    est = float(hits.mean())
    floor = 1.0 - 2.0 * math.exp(-inst.T / 36.0)
    se = math.sqrt(max(est * (1 - est), 1e-12) / trials)
    mean = float(counts.mean())
    expected_mean = inst.d * p
    mean_se = math.sqrt(inst.d * p * (1 - p) / trials) if inst.d > 0 else 0.0
    return {
        "estimate": est,
        "floor": floor,
        "se": se,
        "passed": est >= floor - 3 * se,
        "mean": mean,
        "expected_mean": expected_mean,
        "mean_ok": abs(mean - expected_mean) <= 3 * mean_se + 1e-12,
    }


def quantizer_levels(inst: ScoInstance) -> tuple[float, float]:
    """(v0, v1) = ((lam/2)(-1 + (1-eta)^T), -eta): v0 is the good value at muhat = 1/2."""
    return good_value(inst, 0.5), -inst.eta


def quantize_w(inst: ScoInstance, s: np.ndarray, r: float, seed: int) -> np.ndarray:
    """Randomized two-level quantization of the GD output.

    If the bad-count event fails the output is the zero vector; otherwise
    coordinates with positive empirical mean map to v0 and zero-mean (bad)
    coordinates to v0 with probability r, v1 with probability 1 - r.
    """
    _check_r(inst, r)
    s = np.asarray(s)
    bc = bad_coords(inst, s)
    if not bc.event_ok:
        return np.zeros(inst.d)
    v0, v1 = quantizer_levels(inst)
    w_hat = np.full(inst.d, v0)
    gen = _rng(seed)
    flips = gen.random(bc.count) >= r
    bad_idx = np.flatnonzero(bc.mask)
    w_hat[bad_idx[flips]] = v1
    return w_hat


# ---------------------------------------------------------------------------
# per-coordinate closed forms for exact expectations
#
# gen(S, w) = sum_j (1/2 - muhat_j) w_j (w_j + lam) whenever max_j w_j <= 0,
# and the coordinates decouple conditionally on the bad count k: bad ones are
# iid pushed/-eta, good ones iid with muhat ~ Binomial(n, 1/2)/n given > 0.


def _phi(inst: ScoInstance, x):
    return x * (x + inst.lam)


def _good_law(inst: ScoInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per count m = 0..n of a coordinate: its Binomial(n, 1/2) pmf (unconditioned),
    the gap weight 1/2 - m/n and phi of the good terminal value w(m/n).

    The m = 0 cell is the bad one; its gap and phi entries are not used.
    """
    n = inst.n
    pm = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float) * 2.0 ** (-n)
    gap = 0.5 - np.arange(n + 1) / n
    # one scalar pow per m: numpy's vectorised power may round differently from libm
    phi_w = _phi(inst, np.array([good_value(inst, m / n) for m in range(n + 1)]))
    return pm, gap, phi_w


def _given_good(pm: np.ndarray) -> np.ndarray:
    """The count law conditioned on m > 0, normalised by the full-length sum."""
    probs = pm.copy()
    probs[0] = 0.0
    return probs / probs.sum()


def _gen_given_k(inst: ScoInstance, ks: np.ndarray, c_good_gen: float) -> np.ndarray:
    """E[gen(S, W_T) | #bad = k]: min(k, T) pushed bad coordinates and d - k good ones."""
    return np.minimum(ks, inst.T) * 0.5 * _phi(inst, -inst.eta) + (inst.d - ks) * c_good_gen


def exact_mean_gen(inst: ScoInstance) -> float:
    """Exact E[gen(S, W_T)] of the GD output under the true dynamics.

    min(k, T) bad coordinates end at -eta and contribute phi(-eta)/2 each;
    good coordinates contribute (1/2 - m/n) phi(w(m)) in expectation. The
    single k = 0 cell, where the oracle would push one good coordinate
    instead, is treated as push-free: its weight exp(-1.5 n^2) is below
    double precision for every supported n.
    """
    pm, gap, phi_w = _good_law(inst)
    c_good_gen = float((_given_good(pm) * gap * phi_w).sum())
    pmf = inst.bad_count_pmf
    per_k = _gen_given_k(inst, np.arange(inst.d + 1), c_good_gen)
    return float((pmf * per_k).sum())


def _distortion_terms(inst: ScoInstance, r: float) -> dict:
    """Per-coordinate distortion pieces for the quantizer at parameter r."""
    v0, v1 = quantizer_levels(inst)
    pm, gap, phi_w = _good_law(inst)
    probs = _given_good(pm)
    phi_v0 = _phi(inst, v0)
    good_diff_m = gap * (phi_w - phi_v0)
    return {
        "c_bad_diff": 0.5 * r * (_phi(inst, v1) - phi_v0),
        "c_good_diff": float((probs * good_diff_m).sum()),
        "c_good_gen": float((probs * gap * phi_w).sum()),
        "good_diff_max": float(good_diff_m[1:].max()),
    }


def exact_distortion(inst: ScoInstance, r: float) -> float:
    """Exact E[gen(S, W_T) - gen(S, What)] over data and quantizer randomness.

    Inside the event the quantizer difference decouples per coordinate;
    outside it What = 0 so the difference is gen(S, W_T) itself, also exact.
    """
    terms = _distortion_terms(inst, r)
    pmf = inst.bad_count_pmf
    ks = np.arange(inst.d + 1)
    in_event = (ks >= inst.T // 2) & (ks <= inst.T)
    per_k = np.where(
        in_event,
        ks * terms["c_bad_diff"] + (inst.d - ks) * terms["c_good_diff"],
        _gen_given_k(inst, ks, terms["c_good_gen"]),
    )
    return float((pmf * per_k).sum())


def tail_distortion(inst: ScoInstance, r: float) -> float:
    """Uniform-over-event upper bound on the per-dataset quantizer distortion."""
    terms = _distortion_terms(inst, r)
    return inst.T * max(terms["c_bad_diff"], 0.0) + (inst.d - inst.T // 2) * max(
        0.0, terms["good_diff_max"]
    )


def _chain_distortion(inst: ScoInstance) -> float:
    """The source inequality-chain O(1/n) distortion value, kept for audit."""
    n, T, d = inst.n, inst.T, inst.d
    eta, lam = inst.eta, inst.lam
    b_mean = 0.75 * T
    tail = (4.0 + 2.0 / n) * math.exp(-T / 36.0)
    term1 = eta * lam**2 * (T + 1) / (4 * math.sqrt(n)) * (d - b_mean) + eta**2 / 2 * b_mean + tail
    term2 = eta * lam**2 * (T + 1) / (2 * math.sqrt(n)) * (d - b_mean) + tail
    return term1 + term2


def _rate_term_raw(inst: ScoInstance, r: float) -> float:
    """(1/18) T log2(e) e^{-T/36} + (3/4)(1-r) T (n + 1 - log2(1-r)); r=1 limit drops the tail."""
    n, T = inst.n, inst.T
    first = T / 18.0 * math.log2(math.e) * math.exp(-T / 36.0)
    if r >= 1.0:
        return first
    return first + 0.75 * (1.0 - r) * T * (n + 1.0 - math.log2(1.0 - r))


def assemble_bound(inst: ScoInstance, r: float, mode: str, delta: float | None = None) -> BoundReport:
    """Assembled generalization bound for the counter-example.

    Expectation mode uses lam = n^2, tail mode lam = n^2/60 plus a
    log(1/delta)/lam confidence term; both share the mutual-information rate
    term bound H(event) + d h_b((1-r) 2^-n) and the MGF term lam/(10 n^3).
    The distortion term is exact in expectation mode and a uniform-over-event
    bound in tail mode; the inequality-chain value rides along in `extra`.
    """
    _check_r(inst, r)
    n = inst.n
    if mode == "expectation":
        lam_mult = float(n**2)
        eps = exact_distortion(inst, r)
        kind = "sco_expectation"
        params = {"n": n, "r": r, "lambda": lam_mult, "mode": mode}
    elif mode == "tail":
        if delta is None or not 0 < delta < 1:
            raise ValueError("tail mode needs delta in (0, 1)")
        lam_mult = n**2 / 60.0
        eps = tail_distortion(inst, r)
        kind = "sco_tail"
        params = {"n": n, "r": r, "lambda": lam_mult, "mode": mode, "delta": delta}
    else:
        raise ValueError("mode must be 'expectation' or 'tail'")
    rate = _rate_term_raw(inst, r) / lam_mult
    terms = {"rate_term": rate, "mgf_term": lam_mult / (10.0 * n**3), "epsilon_term": eps}
    if mode == "tail":
        terms["confidence_term"] = math.log(1.0 / delta) / lam_mult
    extra = {"epsilon_paper_chain": _chain_distortion(inst), "sigma": inst.sigma}
    return _finish(kind, terms, params, extra)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    mc_mean_gen: float
    mc_se: float
    bound_expectation: float
    bound_tail: float
    event_rate: float
    exact_mean_gen: float
    dominance_ok: bool


@dataclass(frozen=True)
class ScalingResult:
    rows: list
    slope_bound: float
    slope_mc: float


def _trial_gen(inst: ScoInstance, law: tuple, gen: np.random.Generator) -> tuple[float, bool]:
    """One MC draw of gen(S, W_T) via the exact per-type closed forms; `law` is `_good_law(inst)`."""
    pm, gap, phi_w = law
    counts = gen.multinomial(inst.d, pm)
    k = int(counts[0])
    val = min(k, inst.T) * 0.5 * _phi(inst, -inst.eta) + float((counts[1:] * gap[1:] * phi_w[1:]).sum())
    return val, inst.T // 2 <= k <= inst.T


def scaling_study(n_list, trials: int, seed: int = 0, delta: float = 0.05) -> ScalingResult:
    """Assembled bounds vs MC generalization error across instance sizes.

    Per n: `trials` MC draws of gen(S, W_T) (closed forms over the bad-count
    and empirical-mean types), both assembled bounds at r = 1 - 1/n^2, and
    the event frequency. Raises if the MC mean exceeds the expectation bound
    beyond 3 standard errors at any n. Slopes are least-squares fits of
    log(value) against log(n), so `n_list` needs at least two distinct
    values; with trials = 0 the table is bounds-only, and otherwise trials
    must be at least 2 for a standard error. n is capped at MAX_N.
    """
    if trials != 0 and trials < 2:
        raise ValueError("trials must be 0 (bounds only) or at least 2")
    ns = sorted(int(x) for x in n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])) or len(ns) != len(set(ns)):
        raise ValueError("n_list must be strictly increasing")
    if len(ns) < 2:
        raise ValueError("n_list needs at least two n values to fit a slope")
    if ns[-1] > MAX_N:
        raise ValueError(f"n = {ns[-1]} exceeds the memory cap n <= {MAX_N}")
    rows: list[ScalingRow] = []
    for ni, n in enumerate(ns):
        inst = ScoInstance(n)
        r = 1.0 - 1.0 / n**2
        be = assemble_bound(inst, r, "expectation")
        bt = assemble_bound(inst, r, "tail", delta=delta)
        if trials > 0:
            law = _good_law(inst)
            vals = np.empty(trials)
            hits = 0
            for t, gen in enumerate(rngs(seed, ni, count=trials)):
                vals[t], ok = _trial_gen(inst, law, gen)
                hits += ok
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(trials))
            event_rate = hits / trials
            ok = mean <= be.bound_value + 3 * se
            if not ok:
                raise AssertionError(
                    f"MC mean gen {mean} exceeded the expectation bound {be.bound_value} at n={n}"
                )
        else:
            mean, se, event_rate, ok = math.nan, math.nan, math.nan, True
        rows.append(
            ScalingRow(
                n=n,
                mc_mean_gen=mean,
                mc_se=se,
                bound_expectation=be.bound_value,
                bound_tail=bt.bound_value,
                event_rate=event_rate,
                exact_mean_gen=exact_mean_gen(inst),
                dominance_ok=ok,
            )
        )
    logn = np.log(np.asarray(ns, dtype=float))
    fit = lambda ys: float(np.polyfit(logn, np.log(ys), 1)[0])
    slope_bound = fit([r.bound_expectation for r in rows])
    slope_mc = (
        fit([r.mc_mean_gen for r in rows])
        if trials > 0 and all(r.mc_mean_gen > 0 for r in rows)
        else math.nan
    )
    return ScalingResult(rows=rows, slope_bound=slope_bound, slope_mc=slope_mc)
