"""High-dimensional SCO counter-example: projected GD, quantization, assembled bounds.

The instance is fully determined by n: T = 2n^2 gradient steps, step size
eta = 1/(n sqrt(5n)), dimension d = (3/4) T 2^n, regularizer lam = 1/(n sqrt(d)).
Data are iid Bern(1/2)^d vectors z, the loss on the unit ball is
ell(z, w) = sum_j z_j w_j^2 + lam <w, z> + max(max_j w_j, 0), and a
coordinate is `bad` when it is zero in every training sample. Under the
event {T/2 <= #bad <= T} the GD output has a per-coordinate closed form
(good j: (lam/2)(-1 + (1 - 2 eta muhat_j)^T), bad j: -eta), which the
iterative path must reproduce.

The max-term subgradient oracle pushes one coordinate per step: the argmax
coordinate, ties broken by smallest empirical mean then smallest index (the
memorizing oracle these constructions rely on; a tie-averaging rule provably
cannot reach the closed form). Because only bad coordinates sit at the max
value 0 once training starts, exactly min(#bad, T) of them end at -eta, and
the projection never activates (the squared norm stays below
2/(5n) + 1/(4n^2) < 1), so the closed form is exact whenever #bad <= T.
With no bad coordinate the oracle pushes one good coordinate, of least
empirical mean, at the first step only.

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

from .bounds import BoundReport, _check_domain, _finish
from .learning import _whole
from .seeding import rng as _rng

__all__ = [
    "ScoInstance",
    "BadCoords",
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


# Binomial pmf in Loader's saddle-point form (Loader 2000, "Fast and accurate
# computation of binomial probabilities"; R's dbinom): each cell is
# exp(stirlerr(d) - stirlerr(k) - stirlerr(d-k) - bd0(k, dp) - bd0(d-k, dq)
# - log(2 pi k (1 - k/d)) / 2), with no lgamma difference to cancel.
# _STIRLERR[k] = log k! - (k + 1/2) log k + k - log sqrt(2 pi), correctly rounded
# for k = 1..15 ([0] is never read); R's series takes over above 15.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_LN_2PI = math.log(2 * math.pi)
# exp(x) is exactly 0 in float64 for every x below this
_LOG_UNDERFLOW = -746.0


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Stirling-series error at integers k >= 1: the table up to 15, R's series above."""
    small = k <= 15
    out = _STIRLERR[np.where(small, k, 0).astype(int)]
    if not small.all():
        big = k[~small]
        kk = big * big
        out[~small] = np.select(
            [big > 500, big > 80, big > 35],
            [(_S0 - _S1 / kk) / big,
             (_S0 - (_S1 - _S2 / kk) / kk) / big,
             (_S0 - (_S1 - (_S2 - _S3 / kk) / kk) / kk) / big],
            (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / big,
        )
    return out


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, by Veltkamp splits)."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _bd0(x: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Deviance x log(x/m) + m - x for x > 0 as an unevaluated sum hi + lo.

    Where |x - m| < 0.1 (x + m) it is R's series (lo = 0). Elsewhere it is
    x log1p((x - m)/m) - (x - m), whose product and difference carry their
    rounding errors in lo: tail cells have deviances of several hundred, so
    the rounding of these two steps alone would cost up to 1e-13 of the cell.
    """
    dev = x - m
    prod, e_prod = _two_prod(x, np.log1p(dev / m))
    hi, e_diff = _two_sum(prod, -dev)
    lo = e_diff + e_prod
    near = np.abs(dev) < 0.1 * (x + m)
    if near.any():
        xn = x[near]
        v = dev[near] / (xn + m)
        s = dev[near] * v
        ej = 2 * xn * v
        v = v * v
        for j in range(1, 1000):  # v^2 < 0.01: each term is 100 times smaller
            ej = ej * v
            s1 = s + ej / (2 * j + 1)
            if np.array_equal(s1, s):
                break
            s = s1
        hi[near], lo[near] = s, 0.0
    return hi, lo


def _binom_logpmf(k: np.ndarray, d: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """log Binomial(d, p) pmf as hi + lo at the integers k (as floats) in [0, d].

    For d >= 1 and 0 < p < 1. The edge cells k = 0 and k = d follow R's
    dbinom_raw. Inner cells add the small terms first and the deviance of k
    last, the largest term, with the rounding errors collected in lo.
    """
    q = 1.0 - p
    one = np.ones(1)
    hi, lo = np.empty(k.shape), np.zeros(k.shape)
    inner = (k > 0) & (k < d)
    ki = k[inner]
    dev_k, lo_k = _bd0(ki, d * p)
    dev_rest, lo_rest = _bd0(d - ki, d * q)
    rest = (_stirlerr(d * one) - _stirlerr(ki) - _stirlerr(d - ki)
            - 0.5 * (_LN_2PI + np.log(ki) + np.log1p(-ki / d)) - dev_rest)
    hi[inner], e = _two_sum(rest, -dev_k)
    lo[inner] = e - lo_k - lo_rest
    hi[k == 0] = -_bd0(d * one, d * q)[0] - d * p if p < 0.1 else d * np.log(q)
    hi[k == d] = -_bd0(d * one, d * p)[0] - d * q if q < 0.1 else d * np.log(p)
    return hi, lo


def _binom_pmf(d: int, p: float) -> np.ndarray:
    """Binomial(d, p) pmf over k = 0..d for 0 < p < 1.

    The pmf falls above its mode floor((d + 1) p), so once a cell past the
    mode underflows, every later cell is the exact 0 it would round to:
    cells are evaluated in growing blocks up to the first such cell.
    """
    pmf = np.zeros(d + 1)
    if d == 0:
        pmf[0] = 1.0
        return pmf
    mode = int((d + 1) * p)
    lo, hi = 0, min(d, mode + 64 + 64 * math.isqrt(mode))  # a first guess; the loop extends it
    while True:
        log_hi, log_lo = _binom_logpmf(np.arange(lo, hi + 1.0), d, p)
        cells = np.exp(log_hi)
        pmf[lo : hi + 1] = cells + cells * log_lo
        if hi == d or (hi > mode and log_hi[-1] < _LOG_UNDERFLOW):
            return pmf
        lo, hi = hi + 1, min(d, 2 * hi)


@dataclass(frozen=True)
class ScoInstance:
    """All constants derived from n, bit-reproducibly."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, (bool, np.bool_)) or not (1 <= self.n <= MAX_N and float(self.n).is_integer()):
            raise ValueError(f"n must be a whole number in [1, {MAX_N}], got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @cached_property
    def T(self) -> int:
        return 2 * self.n**2

    @cached_property
    def eta(self) -> float:
        return 1.0 / (self.n * math.sqrt(5.0 * self.n))

    @cached_property
    def d(self) -> int:
        return (3 * self.T * 2**self.n) // 4

    @cached_property
    def lam(self) -> float:
        return 1.0 / (self.n * math.sqrt(self.d))

    @cached_property
    def bad_count_pmf(self) -> np.ndarray:
        """Read-only Binomial(d, 2^-n) pmf of the bad-coordinate count over k = 0..d."""
        pmf = _binom_pmf(self.d, 2.0 ** (-self.n))
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


def _check_r(inst: ScoInstance, r: float) -> None:
    if not 1.0 - 1.0 / inst.n**2 <= r <= 1.0:
        raise ValueError(f"r must lie in [1 - 1/n^2, 1] = [{1 - 1/inst.n**2}, 1]")


def bad_coords(inst: ScoInstance, s: np.ndarray) -> BadCoords:
    """Coordinates that are zero in every training sample."""
    s = np.asarray(s)
    mask = ~s.any(axis=0)
    count = int(mask.sum())
    return BadCoords(mask=mask, count=count, event_ok=bool(inst.T // 2 <= count <= inst.T))


def good_value(inst: ScoInstance, mu_hat):
    """Closed-form terminal value (lam/2)(-1 + (1 - 2 eta muhat)^T) of a good coordinate, elementwise."""
    return inst.lam / 2.0 * (-1.0 + (1.0 - 2.0 * inst.eta * mu_hat) ** inst.T)


def run_gd(inst: ScoInstance, s: np.ndarray, mode: str = "iterative"):
    """T steps of projected GD from 0, or the closed form, on dataset s.

    Returns (w_T, event_ok). The closed form is the per-coordinate law that
    holds under the event (all bad coordinates at -eta); outside the event the
    two modes may differ and event_ok reports it.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != inst.d:
        raise ValueError(f"s must be an (n, d) bit matrix with d = {inst.d}")
    eta = inst.eta
    mu_hat = s.mean(axis=0)
    bc = bad_coords(inst, s)

    if mode == "closed_form":
        w = good_value(inst, mu_hat)
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


def bad_coord_stats(inst: ScoInstance) -> dict:
    """Exact P(T/2 <= #bad <= T) against the floor 1 - 2 e^{-T/36}.

    #bad is Binomial(d, 2^-n), whose pmf the instance holds, so the
    probability is a sum over its cells. The returned dict carries the
    probability, the floor, whether the probability reaches it, and the
    mean E[#bad] = d 2^-n, which is (3/4) T.
    """
    T = inst.T
    probability = float(inst.bad_count_pmf[T // 2 : T + 1].sum())
    floor = 1.0 - 2.0 * math.exp(-T / 36.0)
    return {
        "probability": probability,
        "floor": floor,
        "passed": probability >= floor,
        "mean": inst.d * 2.0 ** (-inst.n),
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
    """Per count m = 0..n of a coordinate: its Binomial(n, 1/2) law given m > 0 (normalised by
    the full-length sum), the gap weight 1/2 - m/n and phi of the good terminal value w(m/n).

    The m = 0 cell is the bad one; its gap and phi entries are not used.
    """
    n = inst.n
    probs = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float) * 2.0 ** (-n)
    probs[0] = 0.0
    gap = 0.5 - np.arange(n + 1) / n
    # one scalar pow per m: numpy's vectorised power may round differently from libm
    phi_w = _phi(inst, np.array([good_value(inst, m / n) for m in range(n + 1)]))
    return probs / probs.sum(), gap, phi_w


def _gen_given_k(inst: ScoInstance) -> np.ndarray:
    """E[gen(S, W_T) | #bad = k] for k = 0..d.

    min(k, T) bad coordinates end at -eta and contribute phi(-eta)/2 each;
    each of the d - k good ones contributes (1/2 - m/n) phi(w(m/n)) in
    expectation, m its count given m > 0. At k = 0 every coordinate sits at
    the max 0 at step 1, so the oracle pushes the good coordinate of least
    count m once: it ends at w(m/n) - eta (1 - 2 eta m/n)^(T-1), and every
    later iterate is negative, so nothing else is pushed.
    """
    n, T, d = inst.n, inst.T, inst.d
    probs, gap, phi_w = _good_law(inst)
    ks = np.arange(d + 1)
    per_k = np.minimum(ks, T) * 0.5 * _phi(inst, -inst.eta) + (d - ks) * float((probs * gap * phi_w).sum())
    # P(least count >= m) for m = 0..n+1, the d counts being iid given > 0
    at_least = np.append(np.cumsum(probs[::-1])[::-1], 0.0) ** d
    pushed = np.array([good_value(inst, m / n) - inst.eta * (1.0 - 2.0 * inst.eta * m / n) ** (T - 1)
                       for m in range(n + 1)])
    push = (at_least[:-1] - at_least[1:]) * gap * (_phi(inst, pushed) - phi_w)
    per_k[0] += float(push[1:].sum())
    return per_k


def exact_mean_gen(inst: ScoInstance) -> float:
    """Exact E[gen(S, W_T)] of the GD output under the true dynamics.

    The mean over the Binomial(d, 2^-n) law of the bad count k of the
    per-k means (`_gen_given_k`), the k = 0 cell with the oracle's one push
    of a good coordinate.
    """
    return float((inst.bad_count_pmf * _gen_given_k(inst)).sum())


def _distortion_terms(inst: ScoInstance, r: float) -> dict:
    """Per-coordinate distortion pieces for the quantizer at parameter r."""
    v0, v1 = quantizer_levels(inst)
    probs, gap, phi_w = _good_law(inst)
    phi_v0 = _phi(inst, v0)
    good_diff_m = gap * (phi_w - phi_v0)
    return {
        "c_bad_diff": 0.5 * r * (_phi(inst, v1) - phi_v0),
        "c_good_diff": float((probs * good_diff_m).sum()),
        "good_diff_max": float(good_diff_m[1:].max()),
    }


def exact_distortion(inst: ScoInstance, r: float) -> float:
    """Exact E[gen(S, W_T) - gen(S, What)] over data and quantizer randomness.

    Inside the event the quantizer difference decouples per coordinate;
    outside it What = 0 so the difference is gen(S, W_T) itself, also exact.
    """
    terms = _distortion_terms(inst, r)
    per_k = _gen_given_k(inst)
    ks = np.arange(inst.T // 2, inst.T + 1)  # the event's counts
    per_k[ks] = ks * terms["c_bad_diff"] + (inst.d - ks) * terms["c_good_diff"]
    return float((inst.bad_count_pmf * per_k).sum())


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
        if delta is None:
            raise ValueError("tail mode needs delta in (0, 1]")
        _check_domain(delta=delta)
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
    exact_mean_gen: float
    event_probability: float
    bound_expectation: float
    bound_tail: float


@dataclass(frozen=True)
class ScalingResult:
    rows: list
    slope_bound: float
    slope_exact: float


def scaling_study(n_list, trials: int = 0, delta: float = 0.05) -> ScalingResult:
    """Assembled bounds vs the exact generalization error across instance sizes.

    Per n: the exact E[gen(S, W_T)] (`exact_mean_gen`), the exact probability
    of the bad-count event (`bad_coord_stats`) and both assembled bounds at
    r = 1 - 1/n^2. Raises if the exact mean exceeds the expectation bound at
    any n. Slopes are least-squares fits of log(value) against log(n), so
    `n_list` needs at least two distinct whole numbers, each at most MAX_N.
    `trials` must be a whole number of at least 0; no output depends on it.
    """
    _whole(trials, "trials")
    ns = sorted(_whole(x, "every n in n_list", 1) for x in n_list)
    if len(set(ns)) < len(ns):
        raise ValueError("n_list must not repeat a value")
    if len(ns) < 2:
        raise ValueError("n_list needs at least two n values to fit a slope")
    if ns[-1] > MAX_N:
        raise ValueError(f"n = {ns[-1]} exceeds the memory cap n <= {MAX_N}")
    rows = []
    for n in ns:
        inst = ScoInstance(n)
        r = 1.0 - 1.0 / n**2
        be = assemble_bound(inst, r, "expectation").bound_value
        mean = exact_mean_gen(inst)
        if not mean <= be:
            raise AssertionError(f"exact mean gen {mean} exceeded the expectation bound {be} at n={n}")
        bt = assemble_bound(inst, r, "tail", delta=delta).bound_value
        rows.append(ScalingRow(n, mean, bad_coord_stats(inst)["probability"], be, bt))
    logn = np.log(np.asarray(ns, dtype=float))
    fit = lambda ys: float(np.polyfit(logn, np.log(ys), 1)[0])
    return ScalingResult(rows, fit([r.bound_expectation for r in rows]), fit([r.exact_mean_gen for r in rows]))
