"""Exact information-theoretic primitives on finite alphabets.

All divergences, entropies and mutual informations are in nats. The
0 log 0 = 0 convention applies throughout, and infinite divergences are
returned as ``math.inf`` values, never raised. Containers and primitives
alike take pmfs and check them with `_probs`, raising ValueError on
negative, unnormalised or non-finite input; every KL goes through
`_kl_rows`. All containers are immutable after construction, so every
function here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .seeding import rng as _rng

__all__ = [
    "Pmf",
    "Channel",
    "Joint",
    "entropy",
    "kl_divergence",
    "renyi_divergence",
    "mutual_information",
    "binary_kl",
    "binary_kl_inverse",
    "binary_kl_inverse_cap",
    "gdelta_radius",
    "in_gdelta",
    "gdelta_sup",
]

PROB_ATOL = 1e-12
SUM_ATOL = 1e-10
GDELTA_SLACK = 1e-9


def _probs(a, ndim: int, rows: bool = False) -> np.ndarray:
    """`a` as a non-empty pmf array of `ndim` axes, or with `rows` one pmf per row.

    This is the one definition of a valid pmf: entries finite and at least
    -PROB_ATOL, and, once the entries below 0 are set to 0, every sum within
    SUM_ATOL of 1, whatever the number of entries. A 2-D table is summed
    along both marginals (a row sum each, then their total; likewise for the
    columns), the sums that its marginals' own checks take, so the marginals
    of an accepted table are accepted, and so are its rows divided by their
    sums. Returns that fresh read-only copy, so that p > 0 is the support
    and log q is -inf off the support of q.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-D probability array, got shape {a.shape}")
    low = a.min()  # NaN if any entry is
    if not low >= -PROB_ATOL:
        if math.isnan(low) or low == -math.inf:
            raise ValueError("probability entries must be finite")
        raise ValueError("probability entries must be non-negative")
    a = np.maximum(a, 0.0)
    # einsum sums short rows about twice as fast as sum(axis=-1) (5456 x 4 q rows of thm5)
    if rows:
        off = np.abs(np.einsum("ij->i", a) - 1.0).max()
    elif ndim == 2:
        off = max(abs(a.sum(axis=1).sum() - 1.0), abs(a.sum(axis=0).sum() - 1.0))
    else:
        off = abs(a.sum() - 1.0)
    if not math.isfinite(off):
        raise ValueError("probability entries must be finite")
    if off > SUM_ATOL:
        raise ValueError(f"probabilities must sum to 1{' in every row' if rows else ''} (off by {off:.3g})")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _probs(self.probs, 1))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    def __array__(self, dtype=None):
        return np.asarray(self.probs, dtype=dtype)

    @classmethod
    def uniform(cls, k: int) -> "Pmf":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, i: int, k: int) -> "Pmf":
        p = np.zeros(k)
        p[i] = 1.0
        return cls(p)


@dataclass(frozen=True)
class Channel:
    """Conditional pmf matrix: rows index source symbols, columns outputs."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _probs(self.rows, 2, rows=True))

    def __array__(self, dtype=None):
        return np.asarray(self.rows, dtype=dtype)


@dataclass(frozen=True)
class Joint:
    """Joint pmf table over a product alphabet (rows: S, columns: W)."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _probs(self.table, 2))

    @property
    def shape(self):
        return self.table.shape

    def marginal_s(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_w(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))

    def __array__(self, dtype=None):
        return np.asarray(self.table, dtype=dtype)


def _vec(p) -> np.ndarray:
    return np.asarray(p, dtype=float).reshape(-1)


def _pair(p, q, rows: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """p and q as pmfs over one alphabet: flat vectors, or with `rows` 2-D arrays of row pmfs."""
    if not rows:
        p, q = _vec(p), _vec(q)
    pv, qv = _probs(p, 1 + rows, rows), _probs(q, 1 + rows, rows)
    if pv.shape != qv.shape:
        raise ValueError(f"alphabet mismatch: {pv.shape} vs {qv.shape}")
    return pv, qv


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D_KL(p || q) along the last axis of two pmf arrays from `_probs`, in nats.

    Where p > 0 and q = 0 the term p (log p - log 0) is +inf, and so is the
    row's divergence. Cells with p = 0 add an exact 0.0 in place: a row
    without them sums to the same bits as that row's own 1-D sum.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0).sum(axis=-1)


def entropy(p) -> float:
    """Shannon entropy in nats, 0 log 0 = 0."""
    v = _probs(_vec(p), 1)
    pos = v[v > 0]
    return float(-(pos * np.log(pos)).sum())


def kl_divergence(p, q) -> float:
    """D_KL(p || q) in nats; +inf when supp(p) is not within supp(q)."""
    return float(_kl_rows(*_pair(p, q)))


def renyi_divergence(p, q, alpha: float) -> float:
    """Rényi divergence of order alpha (nats), alpha > 0, alpha != 1.

    For alpha > 1 the divergence is +inf unless supp(p) is within supp(q);
    for alpha in (0, 1) it is +inf only when the supports are disjoint.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if alpha == 1:
        raise ValueError("alpha=1 is the KL divergence; call kl_divergence")
    pv, qv = _pair(p, q)
    if alpha > 1 and np.any((pv > 0) & (qv <= 0)):
        return math.inf
    both = (pv > 0) & (qv > 0)
    if not np.any(both):
        return math.inf
    # sum p^a q^(1-a) evaluated in log space for stability
    logterms = alpha * np.log(pv[both]) + (1.0 - alpha) * np.log(qv[both])
    total = float(np.exp(logterms - logterms.max()).sum())
    return float((logterms.max() + math.log(total)) / (alpha - 1.0))


def mutual_information(j) -> float:
    """I(S;W) = D_KL(P_SW || P_S P_W) in nats."""
    t = _probs(j, 2)
    return max(float(_kl_rows(t.ravel(), np.outer(t.sum(axis=1), t.sum(axis=0)).ravel())), 0.0)


def binary_kl(a: float, b: float) -> float:
    """Two-point KL D(a || b) in nats for a in [0,1], with boundary rules.

    Each term takes log1p of its relative difference unless its ratio is
    below 1/2, so the terms keep their relative accuracy where a is close
    to b and they nearly cancel; where a / b overflows, the first term takes
    log a - log b.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    if a == b:
        return 0.0
    if b in (0.0, 1.0):
        return math.inf
    out = 0.0
    if a > 0:
        t = (a - b) / b
        out += a * (math.log(a) - math.log(b) if t == math.inf else math.log1p(t) if t > -0.5 else math.log(a / b))
    if a < 1:
        t = (b - a) / (1 - b)
        out += (1 - a) * (math.log1p(t) if t > -0.5 else math.log((1 - a) / (1 - b)))
    return out


def binary_kl_inverse(a: float, b: float) -> float:
    """sup{p in [0,1] : D(p || a) <= b}, by bisection on [a, 1].

    The bracket [lo, hi] keeps D(lo || a) <= b < D(hi || a) and is halved
    until it stops shrinking; the result is lo, so binary_kl(p*, a) <= b
    holds for the result p* itself, and p* never exceeds the sup or
    a + sqrt(2ab) + 2b. The sup is 1 when D(1 || a) <= b.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    if not b >= 0:
        raise ValueError("b must be non-negative")
    if b == 0.0:
        return a
    if a == 0.0:
        # D(p || 0) = inf for every p > 0
        return 1.0 if math.isinf(b) else 0.0
    if a == 1.0:
        return 1.0
    if binary_kl(1.0, a) <= b:
        return 1.0
    lo, hi = a, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if binary_kl(mid, a) <= b:
            lo = mid
        else:
            hi = mid


def binary_kl_inverse_cap(a: float, b: float) -> float:
    """Closed-form upper bound a + sqrt(2ab) + 2b on the binary KL inverse."""
    return a + math.sqrt(2.0 * a * b) + 2.0 * b


def _increasing_root(h: Callable[[float], tuple[float, float]], lo: float) -> tuple[float, float]:
    """Adjacent floats a < b with h(a) < 0 <= h(b), for a non-decreasing h on [lo, inf) and lo > 0.

    `h(x)` returns h and its slope. Each point is a Newton step from the last; one that leaves the
    bracket doubles a while b is unknown, else halves [a, b] (in log scale while b > 4a), and one below
    an ulp takes the neighbouring float. (lo, lo) means h(lo) >= 0, (a, inf) that the doubling overflowed.
    """
    a, b, x = lo, math.inf, lo
    while x < math.inf:
        hx, slope = h(x)
        if math.isnan(hx):
            raise ValueError(f"h is NaN at lambda = {x!r}")
        a, b = (x, b) if hx < 0 else (a, x)
        if b <= math.nextafter(a, math.inf):
            break
        step = x - hx / slope if slope > 0 else math.nan
        x = math.nextafter(x, b if x == a else a) if step == x else step
        if not a < x < b:
            x = 2 * a if b == math.inf else math.sqrt(a) * math.sqrt(b) if b > 4 * a else a + (b - a) / 2
    return a, b


def gdelta_radius(delta: float) -> float:
    """KL radius log(1/delta) of the G^delta ball."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return math.log(1.0 / delta)


def in_gdelta(nu, p_ref, delta: float) -> bool:
    """Membership check D_KL(nu || p_ref) <= log(1/delta) + GDELTA_SLACK."""
    return kl_divergence(nu, p_ref) <= gdelta_radius(delta) + GDELTA_SLACK


def _tilt(p: np.ndarray, direction: np.ndarray, t: float) -> np.ndarray:
    logits = t * direction
    logits -= logits.max()
    out = p * np.exp(logits)
    return out / out.sum()


def _tilt_to_radius(p: np.ndarray, direction: np.ndarray, budget: float) -> np.ndarray | None:
    """Tilt p along `direction` until D(nu||p) saturates `budget`."""
    spread = direction.max() - direction.min()
    if spread <= 0 or budget <= 0:
        return None
    direction = (direction - direction.min()) / spread
    t_hi = 1.0
    for _ in range(80):
        if kl_divergence(_tilt(p, direction, t_hi), p) >= budget:
            break
        t_hi *= 2.0
        if t_hi > 1e9:
            return _tilt(p, direction, t_hi)
    lo, hi = 0.0, t_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if kl_divergence(_tilt(p, direction, mid), p) < budget:
            lo = mid
        else:
            hi = mid
    return _tilt(p, direction, lo)


def _mix_to_radius(p: np.ndarray, q: np.ndarray, budget: float) -> np.ndarray:
    """Largest mixture (1-t)p + tq inside the KL ball of radius `budget`."""
    if kl_divergence(q, p) <= budget:
        return q
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if kl_divergence((1 - mid) * p + mid * q, p) <= budget:
            lo = mid
        else:
            hi = mid
    return (1 - lo) * p + lo * q


def gdelta_sup(
    p_ref,
    delta: float,
    objective: Callable[[np.ndarray], float],
    search_budget: int = 2000,
    seed: int = 0,
):
    """Heuristic maximization of `objective` over the KL ball G^delta.

    Candidates are the reference itself, exponential tilts of it along
    finite-difference ascent directions with the tilt solved to saturate the
    KL constraint, and Dirichlet restarts pulled back into the ball, refined
    by pairwise-mass coordinate ascent. Every candidate is re-checked for
    membership, so the result is a certified lower estimate of the true sup.

    Returns (sup_estimate, argmax) with argmax shaped like `p_ref`.
    """
    ref = np.asarray(p_ref, dtype=float)
    shape = ref.shape
    p = ref.reshape(-1).copy()
    budget = gdelta_radius(delta)

    def f(flat: np.ndarray) -> float:
        return float(objective(flat.reshape(shape)))

    evals = [0]

    def f_counted(flat: np.ndarray) -> float:
        evals[0] += 1
        return f(flat)

    best_p = p.copy()
    best_v = f_counted(p)
    if budget <= 0.0:
        return best_v, best_p.reshape(shape)

    support = p > 0

    def consider(cand: np.ndarray | None):
        nonlocal best_p, best_v
        if cand is None:
            return
        if kl_divergence(cand, p) > budget + GDELTA_SLACK:
            return
        v = f_counted(cand)
        if v > best_v:
            best_v, best_p = v, cand.copy()

    # finite-difference ascent direction at a base point (vertex mixes)
    def direction_at(base: np.ndarray) -> np.ndarray:
        h = 1e-4
        g = np.zeros_like(base)
        fb = f_counted(base)
        for i in np.flatnonzero(support):
            e = np.zeros_like(base)
            e[i] = 1.0
            g[i] = (f_counted((1 - h) * base + h * e) - fb) / h
        return g

    grad = direction_at(p)
    for frac in (1.0, 0.5, 0.25, 0.1):
        consider(_tilt_to_radius(p, grad, budget * frac))

    gen = _rng(seed, 7)
    n_restarts = max(4, min(32, search_budget // max(2 * p.size, 1)))
    while evals[0] < search_budget // 2 and n_restarts > 0:
        n_restarts -= 1
        q = np.zeros_like(p)
        q[support] = gen.dirichlet(np.ones(int(support.sum())))
        consider(_mix_to_radius(p, q, budget))

    # pairwise mass-transfer coordinate ascent from the incumbent
    step = 0.25
    idx = np.flatnonzero(support)
    while evals[0] < search_budget and step > 1e-4:
        improved = False
        order = gen.permutation(len(idx))
        for a_pos in order:
            if evals[0] >= search_budget:
                break
            i = idx[a_pos]
            j = idx[int(gen.integers(len(idx)))]
            if i == j or best_p[i] <= 0:
                continue
            move = step * best_p[i]
            cand = best_p.copy()
            cand[i] -= move
            cand[j] += move
            if kl_divergence(cand, p) > budget + GDELTA_SLACK:
                continue
            v = f_counted(cand)
            if v > best_v + 1e-15:
                best_v, best_p = v, cand
                improved = True
        if not improved:
            step *= 0.5

    if not in_gdelta(best_p, p, delta):
        raise RuntimeError("gdelta_sup incumbent lies outside the KL ball")
    return best_v, best_p.reshape(shape)
