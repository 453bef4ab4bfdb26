"""Closed-form generalization bounds.

Every bound returns a BoundReport built by `_finish`, which computes the
value from the named terms with the kind's one formula in `_VALUE`; the same
table backs `reconstruct_bound`. Infinite bounds are legal values (flagged),
never exceptions; a NaN bound raises ValueError.
Log-MGF terms are exact finite-alphabet sums unless the caller explicitly
selects the subgaussian surrogate lambda^2 sigma^2 / 2 path; both appear in
the source material and both are exposed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .info import Joint, _increasing_root, _kl_rows, _pair, _probs, gdelta_sup, kl_divergence, renyi_divergence
from .ratedistortion import rd_gen

__all__ = [
    "BoundReport",
    "reconstruct_bound",
    "log_mgf",
    "channel_kl",
    "thm1_bound",
    "fixed_size_bound",
    "rd_tail_bound",
    "seeger_fast_rate_bound",
    "pac_bayes_eq22",
    "prop5_bound",
    "toy_example_bound",
    "thm5_expectation_bound",
    "distortion_ok_fg",
]

DISTORTION_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """A bound value with its per-term breakdown and input parameters."""

    kind: str
    bound_value: float
    terms: dict
    params: dict
    infinite: bool = False
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _root(radicand: float, terms: dict) -> float:
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand} (terms {terms})")
    return math.sqrt(radicand)


def _sqrt_plus_eps(t, p):
    return _root(t["rate_term"] + t["confidence_term"], t) + t["epsilon_term"]


def _rate_mgf_eps(t, p):
    return t["rate_term"] + t["mgf_term"] + t["epsilon_term"]


def _rate_mgf_conf_eps(t, p):
    return t["rate_term"] + t["mgf_term"] + t["confidence_term"] + t["epsilon_term"]


def _seeger(t, p):
    c = t["c_term"]
    return math.sqrt(p["emp_risk"] * c / p["n"]) + c / p["n"]


# kind -> bound value from (terms, params). Each sum runs in the order the
# constructor has always added its terms, so values keep their last bits.
_VALUE = {
    "thm1": lambda t, p: _root(t["rate_term"] + t["confidence_term"] + t["epsilon_term"], t),
    "eq4": _sqrt_plus_eps,
    "eq21": _sqrt_plus_eps,
    "seeger": _seeger,
    "eq22": lambda t, p: t["rate_term"] + t["mgf_term"] + t["confidence_term"],
    "prop5i": _rate_mgf_conf_eps,
    "prop5ii": _rate_mgf_conf_eps,
    "toy": lambda t, p: _root(t["rate_term"] + t["confidence_term"], t),
    "thm5i": _rate_mgf_eps,
    "thm5ii": lambda t, p: math.exp(t["rate_term"] + t["mgf_term"]),
    "thm7": _sqrt_plus_eps,
    "thm8": lambda t, p: _root(t["rate_term"] + t["confidence_term"] + t["lipschitz_term"], t),
    "sco_expectation": _rate_mgf_eps,
    "sco_tail": _rate_mgf_conf_eps,
}


def reconstruct_bound(report: BoundReport) -> float:
    """Recompute the bound value from its term breakdown (kind-dispatched)."""
    return _VALUE[report.kind](report.terms, report.params)


def _finish(kind, terms, params, extra=None) -> BoundReport:
    """Assemble a report whose value is `_VALUE[kind]` of its terms."""
    terms = {k: float(v) for k, v in terms.items()}
    value = float(_VALUE[kind](terms, params))
    if math.isnan(value):
        raise ValueError(f"{kind} bound is NaN (terms={terms})")
    return BoundReport(
        kind=kind,
        bound_value=value,
        terms=terms,
        params=params,
        infinite=not math.isfinite(value),
        extra=extra or {},
    )


def _check_domain(n=None, delta=None, lam=None, **nonneg) -> None:
    """Shared input checks, written as `not x >= 0` so that NaN fails them.

    `lam` is the multiplier of Theorem 5, which must lie in (0, inf).
    """
    if n is not None and not n >= 1:
        raise ValueError("n must be at least 1")
    if delta is not None and not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if lam is not None and not 0 < lam < math.inf:
        raise ValueError(f"the multiplier lam must be finite and positive, got {lam}")
    for name, x in nonneg.items():
        if not x >= 0:
            raise ValueError(f"{name} is NaN" if math.isnan(x) else f"{name} must be non-negative")


def _square(sigma: float) -> float:
    """sigma**2, or ValueError where the square overflows a float."""
    try:
        return sigma**2
    except OverflowError:
        raise ValueError(f"sigma = {sigma} is too large: its square overflows") from None


def _check_index(i: int, size: int, name: str) -> None:
    """A row index in [0, size): a negative one would silently count from the end."""
    if not 0 <= i < size:
        raise ValueError(f"{name} = {i} is out of range for {size} rows")


def _q_rows(q_hat, rows: int) -> np.ndarray:
    """q_hat with one row per dataset symbol; a 1-D q_hat is shared by every row."""
    q = np.asarray(q_hat, dtype=float)
    return np.tile(q, (rows, 1)) if q.ndim == 1 else q


# ---------------------------------------------------------------------------
# building blocks


def channel_kl(nu_s, p_hat, q_hat, alpha: float = 1.0) -> float:
    """E_{nu_S}[ D_alpha(p(.|S) || q(.|S)) ], the divergence term of thm5's part i."""
    nu = _probs(np.reshape(nu_s, -1), 1)
    pos = np.flatnonzero(nu > 0)
    p, q = _pair(np.asarray(p_hat, dtype=float)[pos], np.asarray(q_hat, dtype=float)[pos], rows=True)
    if alpha == 1:
        divs = _kl_rows(p, q)
    else:
        divs = np.array([renyi_divergence(a, b, alpha) for a, b in zip(p, q)])
    # a running sum in row order adds the terms as a loop over the rows would,
    # to the last bit; an infinite divergence makes the total +inf
    return float(np.cumsum(nu[pos] * divs)[-1])


def _mgf_cells(P_S, q_hat, g) -> tuple[np.ndarray, np.ndarray]:
    """log P_S + log q and g on the cells of positive weight, checked once.

    A cell of weight 0 adds nothing to the MGF even where g is +-inf
    (0 e^{+inf} counts as 0), so it is dropped here; thm5 scales the
    returned g and calls `_log_mgf_cells` without checking again.
    """
    ps = _probs(np.reshape(P_S, -1), 1)
    q = _probs(_q_rows(q_hat, ps.size), 2, rows=True)
    gm = np.asarray(g, dtype=float)
    if gm.shape != q.shape or np.isnan(gm).any():
        raise ValueError("log_mgf needs a g shaped like q_hat whose only non-finite values are +-inf")
    with np.errstate(divide="ignore"):
        logw = np.log(ps)[:, None] + np.log(q)
    live = logw > -np.inf
    return logw[live], gm[live]


def _logsumexp(a: np.ndarray, work: np.ndarray | None = None) -> float:
    """log sum exp(a) of a 1-D array: -inf when it is empty or all -inf, +inf if any term is.

    The steps are scipy.special.logsumexp's, and so are the result's bits: the m cells at the
    maximum are counted and left out of the shifted sum s (its terms go into `work`, shaped like
    `a` or `a` itself, if given), which is then divided by m unless it is 0, and the result is
    log1p(s) + log(m) + max, each on a 1-element array.
    """
    if a.size == 0:
        return -math.inf
    top = a.max(keepdims=True)
    if math.isinf(top[0]):
        return float(top[0])
    at_top = a == top
    m = np.full(1, np.count_nonzero(at_top), dtype=float)
    shifted = np.subtract(a, top, out=work)
    np.copyto(shifted, -np.inf, where=at_top)
    s = np.exp(shifted, out=shifted).sum(keepdims=True)
    s = np.where(s == 0, s, s / m)
    return float((np.log1p(s) + np.log(m) + top)[0])


def _log_mgf_cells(logw: np.ndarray, g: np.ndarray) -> float:
    """logsumexp(logw + g) over the cells from `_mgf_cells`, +inf if any term is; the terms overwrite g."""
    terms = np.add(logw, g, out=g)
    if not terms.min() > -np.inf:
        terms = terms[terms > -np.inf]
    return _logsumexp(terms, terms)


def log_mgf(P_S, q_hat, g) -> float:
    """log E_{P_S q}[ e^{g(S,What)} ], exact by finite summation in log space."""
    return _log_mgf_cells(*_mgf_cells(P_S, q_hat, g))


def _fo_condition(logw: np.ndarray, g: np.ndarray, K: float, lam: float) -> tuple[float, float]:
    """h(lam) = lam L'(lam) - L(lam) - K and its slope lam L''(lam), L(lam) = log sum e^(logw + lam g), g finite.

    L' and L'' are the mean and variance of g under the weights e^(logw + lam g). g is taken relative
    to its maximum, which leaves h unchanged, and then to the heaviest cell: no term grows with lam.
    """
    d = g - g.max()
    t = lam * d + logw
    j = int(t.argmax())
    e = np.exp(t - t[j])
    s = e.sum()
    d -= d[j]
    mean = e @ d / s
    d -= mean
    return float(lam * mean - logw[j] - math.log(s) - K), float(lam * (e @ (d * d)) / s)


def _multiplier_terms(logw: np.ndarray, g: np.ndarray, K: float, lo: float, lam: float | None) -> tuple:
    """(lam, K / lam, L(lam) / lam); lam=None takes the lam >= lo that minimises their sum.

    Its slope is h(lam) / lam^2 (`_fo_condition`), h rising from -K at 0+ to -log P(g = max g) - K:
    the minimiser is lo if h(lo) >= 0, inf (terms 0 and max g) if that limit is <= 0, else h's root.
    """
    top = float(g.max())
    if lam is None and (K == math.inf or top == math.inf):  # every lam gives +inf
        lam = lo
    elif lam is None and K + _logsumexp(logw[g == top]) >= 0:
        lam = math.inf
    elif lam is None:
        lam = _increasing_root(lambda x: _fo_condition(logw, g, K, x), lo)[1]
    if lam == math.inf:
        return lam, 0.0, top
    return lam, K / lam, _log_mgf_cells(logw, lam * g) / lam


# ---------------------------------------------------------------------------
# tail bounds with explicit rates


def thm1_bound(R_sw: float, sigma: float, n: int, delta: float, epsilon: float = 0.0) -> BoundReport:
    """Variable-size tail bound sqrt(4sigma^2 (R + log(sqrt(2n)/delta)) / (2n-1) + eps)."""
    _check_domain(n, delta, rate=R_sw, sigma=sigma)
    s2 = _square(sigma)
    rate = 4.0 * s2 * R_sw / (2 * n - 1)
    conf = 4.0 * s2 * math.log(math.sqrt(2 * n) / delta) / (2 * n - 1)
    terms = {"rate_term": rate, "confidence_term": conf, "epsilon_term": epsilon}
    params = {"n": n, "sigma": sigma, "delta": delta, "epsilon": epsilon, "rate": R_sw}
    return _finish("thm1", terms, params)


def fixed_size_bound(R: float, sigma: float, n: int, delta: float, epsilon: float = 0.0) -> BoundReport:
    """Fixed-size tail bound sqrt(2sigma^2 (R + log(1/delta)) / n) + eps."""
    _check_domain(n, delta, rate=R, sigma=sigma)
    params = {"n": n, "sigma": sigma, "delta": delta, "epsilon": epsilon, "rate": R}
    return _finish("eq4", _eq4_terms(R, sigma, n, delta, epsilon), params)


def _eq4_terms(R: float, sigma: float, n: int, delta: float, epsilon: float) -> dict:
    """Terms of sqrt(2sigma^2 (R + log(1/delta)) / n) + eps, shared by eq4, eq21, thm7 and toy."""
    s2 = _square(sigma)
    rate = 2.0 * s2 * R / n
    conf = 2.0 * s2 * math.log(1.0 / delta) / n
    return {"rate_term": rate, "confidence_term": conf, "epsilon_term": epsilon}


def rd_tail_bound(
    joint,
    gtab,
    sigma: float,
    n: int,
    delta: float,
    epsilon: float,
    search_budget: int = 600,
    seed: int = 0,
) -> BoundReport:
    """Rate-distortion tail bound sqrt(2sigma^2 (sup_RD + log(1/delta))/n) + eps.

    `joint` and its gen(s, w) table `gtab` come from `learning.induced_joint`
    and `learning.gen_table`, and `sigma` is the loss's subgaussianity
    (`FiniteLearningProblem.sigma`). The theorem needs the supremum of the
    generalization-gap rate-distortion function over the KL ball around the
    joint. This bound uses a search's lower estimate of it instead
    (`info.gdelta_sup`: every value is attained in the ball, so it never
    exceeds the sup), so the bound value can be too small. At epsilon = 0 on
    the benchmark's three bank problems at n = 3, `sup_rd` reads 1.179, 1.114
    and 1.005 where the sup is log 4 = 1.386, 15-28% low. The nu = P
    baseline is reported alongside. The search shares its RD
    solves with one forked helper process where `info._may_fork` allows
    (see `info.gdelta_sup`); the report is the same to the bit either way.
    The RD function at the joint itself is solved once, for the baseline,
    although the search counts it as two of its `search_budget` evaluations
    (its start and its gradient's base).
    """
    _check_domain(n, delta, sigma=sigma)
    table = _probs(joint, 2)
    shape = table.shape

    def rd_of(t: np.ndarray) -> float:
        t = np.clip(np.asarray(t, dtype=float).reshape(shape), 0.0, None)
        t = t / t.sum()
        return rd_gen(Joint(t), gtab, epsilon).rate_nats

    baseline_rd = rd_of(table)

    def objective(t: np.ndarray) -> float:
        return baseline_rd if np.array_equal(t, table) else rd_of(t)

    # gdelta_sup evaluates the joint first and keeps only improvements: sup_rd >= baseline_rd
    sup_rd, _ = gdelta_sup(table, delta, objective, search_budget=search_budget, seed=seed, _helper=True)
    params = {"n": n, "sigma": sigma, "delta": delta, "epsilon": epsilon}
    extra = {
        "sup_rd": sup_rd,
        "baseline_rd": baseline_rd,
        "baseline_bound": _VALUE["eq21"](_eq4_terms(baseline_rd, sigma, n, delta, epsilon), params),
        "sup_is_heuristic_lower_estimate": True,
    }
    return _finish("eq21", _eq4_terms(sup_rd, sigma, n, delta, epsilon), params, extra)


def seeger_fast_rate_bound(emp_risk: float, sup_mi: float, sigma: float, n: int, delta: float) -> BoundReport:
    """Binary-KL fast-rate bound sqrt(emp_risk * C / n) + C / n.

    C = 4 sigma^2 (sup_mi + log(2 sqrt(n)/delta)); the bound follows from the
    KL-inverse cap a + sqrt(2ab) + 2b and is O(1/n) at zero empirical risk.
    """
    _check_domain(n, delta, empirical_risk=emp_risk, sup_mi=sup_mi, sigma=sigma)
    s2 = _square(sigma)
    rate = 4.0 * s2 * sup_mi
    conf = 4.0 * s2 * math.log(2.0 * math.sqrt(n) / delta)
    terms = {"rate_term": rate, "confidence_term": conf, "c_term": rate + conf}
    params = {"n": n, "sigma": sigma, "delta": delta, "emp_risk": emp_risk, "sup_mi": sup_mi}
    return _finish("seeger", terms, params)


# ---------------------------------------------------------------------------
# PAC-Bayes style bounds


def pac_bayes_eq22(pi, q, logmgf: float, delta: float) -> BoundReport:
    """Disintegrated bound KL(pi || q) + log E[e^f] + log(1/delta).

    `logmgf` is the exact log E_{P_S q}[e^{f(S,W)}], supplied by the caller
    (finite alphabets make it an exact sum; see log_mgf).
    """
    _check_domain(delta=delta)
    kl = kl_divergence(pi, q)
    terms = {"rate_term": kl, "mgf_term": logmgf, "confidence_term": math.log(1.0 / delta)}
    return _finish("eq22", terms, {"delta": delta})


def prop5_bound(
    mode: str,
    *,
    P_S,
    q_hat,
    g,
    delta: float,
    epsilon: float,
    s_index: int,
    pi=None,
    p_quant=None,
    f=None,
    kernel=None,
    P_WgS=None,
    w_index: int | None = None,
) -> BoundReport:
    """Lossy PAC-Bayes bounds, modes "i" and "ii".

    Mode "i": for the realized s and posterior pi over W, `p_quant` is the
    quantizer row p(.|s, pi) over the reproduction alphabet; it must satisfy
    E_{pi x p_quant}[f(s,W) - g(s,What)] <= epsilon. The bound is
    KL(p_quant || q_hat[s]) + log E_{P_S q}[e^g] + log(1/delta) + epsilon.

    Mode "ii": `kernel` is p(what|w); its composition with P_{W|S} gives
    p*(.|s), and the bound replaces the KL with the expected log-ratio
    log(p*/q) under kernel(.|w) at the realized (s, w).
    """
    _check_domain(delta=delta)
    ps = np.asarray(P_S, dtype=float).reshape(-1)
    _check_index(s_index, ps.size, "s_index")
    q = _q_rows(q_hat, ps.size)
    gm = np.asarray(g, dtype=float)
    conf = math.log(1.0 / delta)
    mgf = log_mgf(ps, q, gm)

    if mode == "i":
        if pi is None or p_quant is None or f is None:
            raise ValueError("mode i needs pi, p_quant and f")
        pv = _probs(pi, 1)
        pq = np.asarray(p_quant, dtype=float)
        fm = np.asarray(f, dtype=float)
        avg_f = float(pv @ fm[s_index])
        avg_g = float(pq @ gm[s_index])
        if avg_f - avg_g > epsilon + DISTORTION_SLACK:
            raise ValueError(
                f"quantizer violates the declared distortion: E[f-g]={avg_f - avg_g} > epsilon={epsilon}"
            )
        rate = kl_divergence(pq, q[s_index])
        params = {"delta": delta, "epsilon": epsilon, "s_index": s_index, "mode": "i"}
    elif mode == "ii":
        if kernel is None or P_WgS is None or w_index is None or f is None:
            raise ValueError("mode ii needs kernel, P_WgS, w_index and f")
        ker = _probs(kernel, 2, rows=True)
        pws = _probs(P_WgS, 2, rows=True)
        fm = np.asarray(f, dtype=float)
        _check_index(w_index, ker.shape[0], "w_index")
        p_star = pws @ ker  # rows: s, columns: what
        row = ker[w_index]
        avg_g = float(row @ gm[s_index])
        if fm[s_index, w_index] - avg_g > epsilon + DISTORTION_SLACK:
            raise ValueError(
                f"kernel violates the declared distortion: f-E[g]={fm[s_index, w_index] - avg_g} "
                f"> epsilon={epsilon}"
            )
        support = row > 0
        if np.any(p_star[s_index, support] <= 0) or np.any(q[s_index, support] <= 0):
            rate = math.inf
        else:
            rate = float(
                (row[support] * (np.log(p_star[s_index, support]) - np.log(q[s_index, support]))).sum()
            )
        params = {"delta": delta, "epsilon": epsilon, "s_index": s_index, "w_index": w_index, "mode": "ii"}
    else:
        raise ValueError("mode must be 'i' or 'ii'")
    terms = {"rate_term": rate, "mgf_term": mgf, "confidence_term": conf, "epsilon_term": epsilon}
    return _finish("prop5" + mode, terms, params)


def toy_example_bound(
    sample_means_sq_sum: float,
    lipschitz_L: float,
    d: int,
    sigma: float,
    n: int,
    delta: float,
) -> BoundReport:
    """Gaussian-quantizer bound sqrt(2sigma^2 (2 sqrt(L d S) + log(1/delta)) / n).

    S is the squared-norm of the per-coordinate sample means; the bound stays
    finite for deterministic mean-style algorithms on continuous parameters.
    """
    _check_domain(
        n, delta, sample_means_sq_sum=sample_means_sq_sum, lipschitz_L=lipschitz_L, d=d, sigma=sigma
    )
    terms = _eq4_terms(2.0 * math.sqrt(lipschitz_L * d * sample_means_sq_sum), sigma, n, delta, 0.0)
    del terms["epsilon_term"]  # eq4 at rate 2 sqrt(L d S), with no epsilon
    params = {
        "n": n,
        "sigma": sigma,
        "delta": delta,
        "d": d,
        "lipschitz_L": lipschitz_L,
        "sample_means_sq_sum": sample_means_sq_sum,
    }
    return _finish("toy", terms, params)


# ---------------------------------------------------------------------------
# in-expectation bounds


def distortion_ok_fg(nu_joint, p_hat, f, g, epsilon: float) -> bool:
    """Sufficient distortion check E_{nu p}[f(S,W) - g(S,What)] <= epsilon."""
    nu = _probs(nu_joint, 2)
    p = np.asarray(p_hat, dtype=float)
    fm = np.asarray(f, dtype=float)
    gm = np.asarray(g, dtype=float)
    nu_s = nu.sum(axis=1)
    e_f = float((nu * fm).sum())
    e_g = float((nu_s[:, None] * p * gm).sum())
    return e_f - e_g <= epsilon + DISTORTION_SLACK


def _conditional(joint: np.ndarray, marginal: np.ndarray) -> np.ndarray:
    """Rows joint[s] / marginal[s], and zero rows where the marginal is 0."""
    m = marginal[:, None]
    return np.where(m > 0, joint / np.where(m > 0, m, 1.0), 0.0)


def thm5_expectation_bound(
    part: str,
    P,
    p_hat,
    q_hat,
    f,
    g,
    lam: float | None,
    epsilon: float = 0.0,
    alpha: float | None = None,
    mgf: str = "exact",
    sigma_g: float | None = None,
) -> BoundReport:
    """In-expectation bound on E[f(S,W)] (part "i") or log E[f] (part "ii").

    Part i: (1/lam) [E_{P_S} KL(p||q) + log E_{P_S q}[e^{lam g}]] + eps over
    quantizers satisfying E[f - g] <= eps; mgf="surrogate" replaces the exact
    log-MGF with lam^2 sigma_g^2 / 2. Part ii: exp((1/lam)(D_alpha(P||q P_S)
    + log E_{P_S q}[f^lam])) with lam >= alpha/(alpha-1), f > 0. With lam=None
    lam minimises the bound (`_multiplier_terms`; at least 1e-6 in part i),
    and is inf where only the limit reaches the infimum. A given lam outside
    (0, inf), or below alpha/(alpha-1) in part ii, raises ValueError.
    The exact E[f] is attached and the exact-MGF bound is checked against it.
    """
    _check_domain(lam=lam)
    if mgf not in ("exact", "surrogate"):
        raise ValueError(f"mgf must be 'exact' or 'surrogate', got {mgf!r}")
    P_t = _probs(P, 2)
    ps = P_t.sum(axis=1)
    fm = np.asarray(f, dtype=float)
    gm = np.asarray(g, dtype=float)
    q = _q_rows(q_hat, ps.size)
    true_ef = float((P_t * fm).sum())

    if part == "i":
        p = np.asarray(p_hat, dtype=float)
        if not distortion_ok_fg(P_t, p, fm, gm, epsilon):
            e_g = float((ps[:, None] * p * gm).sum())
            raise ValueError(f"distortion violated: E[f-g]={true_ef - e_g} > epsilon={epsilon}")
        kl = channel_kl(ps, p, q, 1.0)
        if mgf == "surrogate":
            if sigma_g is None:
                raise ValueError("surrogate path needs sigma_g")
            _check_domain(sigma_g=sigma_g)
            sigma_g2 = _square(sigma_g)
        logw, g_live = _mgf_cells(ps, q, gm)
        if lam is None and mgf == "surrogate":  # the root of h(lam) = lam^2 sigma_g^2 / 2 - kl; none at sigma_g = 0
            lam = 1e-6 if kl == math.inf else max(math.sqrt(2 * kl / sigma_g2), 1e-6) if sigma_g2 > 0 else math.inf
        lam, rate, exact_mgf = _multiplier_terms(logw, g_live, kl, 1e-6, lam)
        used_mgf = (lam * sigma_g2 / 2.0 if sigma_g2 else 0.0) if mgf == "surrogate" else exact_mgf
        terms = {"rate_term": rate, "mgf_term": used_mgf, "epsilon_term": epsilon}
        exact_value = rate + exact_mgf + epsilon
        if exact_value < true_ef - 1e-9:
            raise AssertionError(f"in-expectation bound {exact_value} fell below the exact E[f] {true_ef}")
        params = {"lambda": lam, "epsilon": epsilon, "mgf": mgf}
        return _finish("thm5i", terms, params, {"true_e_f": true_ef, "exact_mgf_value": exact_value})

    if part == "ii":
        if alpha is None or alpha <= 1:
            raise ValueError("part ii needs alpha > 1")
        if np.any(fm <= 0):
            raise ValueError("part ii needs strictly positive f")
        dalpha = renyi_divergence(P_t.reshape(-1), (ps[:, None] * q).reshape(-1), alpha)
        lam_min = alpha / (alpha - 1)
        if lam is not None and lam < lam_min - 1e-12:
            raise ValueError(f"part ii needs lam >= alpha/(alpha-1) = {lam_min}")
        lam, rate, mgf_f = _multiplier_terms(*_mgf_cells(ps, q, np.log(fm)), dalpha, lam_min, lam)
        terms, params = {"rate_term": rate, "mgf_term": mgf_f}, {"lambda": lam, "alpha": alpha}
        rep = _finish("thm5ii", terms, params, {"true_e_f": true_ef})
        if rep.bound_value < true_ef - 1e-9:
            raise AssertionError(f"part-ii bound {rep.bound_value} fell below the exact E[f] {true_ef}")
        return rep

    raise ValueError("part must be 'i' or 'ii'")
