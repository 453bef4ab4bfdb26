"""Exact information-theoretic primitives on finite alphabets.

All divergences, entropies and mutual informations are in nats. The
0 log 0 = 0 convention applies throughout, and infinite divergences are
returned as ``math.inf`` values, never raised. All containers are immutable
after construction, so every function here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "empirical_joint",
    "gdelta_radius",
    "in_gdelta",
    "gdelta_sup",
]

PROB_ATOL = 1e-12
GDELTA_SLACK = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("Pmf requires a non-empty 1-D probability vector")
        total = p.sum()
        # a NaN or infinite entry makes the sum non-finite; cheaper than np.isfinite(p).all()
        if not math.isfinite(total):
            raise ValueError("Pmf entries must be finite")
        if np.any(p < -PROB_ATOL):
            raise ValueError("Pmf entries must be non-negative")
        if abs(total - 1.0) > max(PROB_ATOL, 1e-12 * p.size):
            raise ValueError(f"Pmf entries must sum to 1 (got {total!r})")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, None)))

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
        m = np.asarray(self.rows, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("Channel requires a non-empty 2-D matrix")
        if not np.isfinite(m).all():
            raise ValueError("Channel entries must be finite")
        if np.any(m < -PROB_ATOL):
            raise ValueError("Channel entries must be non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > max(PROB_ATOL, 1e-12 * m.shape[1])):
            raise ValueError("every Channel row must sum to 1")
        object.__setattr__(self, "rows", _freeze(np.clip(m, 0.0, None)))

    def __array__(self, dtype=None):
        return np.asarray(self.rows, dtype=dtype)


@dataclass(frozen=True)
class Joint:
    """Joint pmf table over a product alphabet (rows: S, columns: W)."""

    table: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.table, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("Joint requires a non-empty 2-D table")
        if not np.isfinite(m).all():
            raise ValueError("Joint entries must be finite")
        if np.any(m < -PROB_ATOL):
            raise ValueError("Joint entries must be non-negative")
        if abs(m.sum() - 1.0) > max(PROB_ATOL, 1e-12 * m.size):
            raise ValueError("Joint entries must sum to 1")
        object.__setattr__(self, "table", _freeze(np.clip(m, 0.0, None)))

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


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as flat vectors over one alphabet, with finite entries."""
    pv, qv = _vec(p), _vec(q)
    if pv.shape != qv.shape:
        raise ValueError(f"alphabet mismatch: {pv.size} vs {qv.size}")
    # a NaN or infinite entry in either vector makes the sum non-finite; one
    # reduction is cheaper than np.isfinite on both, and kl_divergence is hot
    if not math.isfinite((pv + qv).sum()):
        raise ValueError("probability entries must be finite")
    return pv, qv


def entropy(p) -> float:
    """Shannon entropy in nats, 0 log 0 = 0."""
    v = _vec(p)
    if not math.isfinite(v.sum()):
        raise ValueError("probability entries must be finite")
    pos = v[v > 0]
    return float(-(pos * np.log(pos)).sum())


def kl_divergence(p, q) -> float:
    """D_KL(p || q) in nats; +inf when supp(p) is not within supp(q)."""
    pv, qv = _pair(p, q)
    mask = pv > 0
    if np.any(qv[mask] <= 0):
        return math.inf
    return float((pv[mask] * (np.log(pv[mask]) - np.log(qv[mask]))).sum())


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
    t = np.asarray(j, dtype=float)
    if t.ndim != 2:
        raise ValueError("joint table must be 2-D")
    if not math.isfinite(t.sum()):
        raise ValueError("joint table entries must be finite")
    ps = t.sum(axis=1)
    pw = t.sum(axis=0)
    prod = np.outer(ps, pw)
    mask = t > 0
    val = float((t[mask] * (np.log(t[mask]) - np.log(prod[mask]))).sum())
    return max(val, 0.0)


def binary_kl(a: float, b: float) -> float:
    """Two-point KL D(a || b) in nats for a in [0,1], with boundary rules."""
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
        out += a * math.log(a / b)
    if a < 1:
        out += (1 - a) * math.log((1 - a) / (1 - b))
    return out


def binary_kl_inverse(a: float, b: float) -> float:
    """sup{p in [0,1] : D(p || a) <= b}, by at most 200 bisection steps on [a, 1].

    The result always satisfies binary_kl(p*, a) = b to within 1e-12 unless
    the sup is attained at p* = 1, and never exceeds a + sqrt(2ab) + 2b.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = binary_kl(mid, a)
        if abs(v - b) <= 1e-12:
            return mid
        if v < b:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binary_kl_inverse_cap(a: float, b: float) -> float:
    """Closed-form upper bound a + sqrt(2ab) + 2b on the binary KL inverse."""
    return a + math.sqrt(2.0 * a * b) + 2.0 * b


def empirical_joint(samples: Sequence[tuple[int, int]], shape: tuple[int, int] | None = None) -> Joint:
    """Normalized count table (the type) of a sequence of (s, w) index pairs."""
    pairs = list(samples)
    if not pairs:
        raise ValueError("empirical_joint requires at least one sample")
    arr = np.asarray(pairs, dtype=int)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (s, w) pairs")
    if shape is None:
        shape = (int(arr[:, 0].max()) + 1, int(arr[:, 1].max()) + 1)
    if np.any(arr < 0) or np.any(arr[:, 0] >= shape[0]) or np.any(arr[:, 1] >= shape[1]):
        raise ValueError("sample index out of range")
    table = np.zeros(shape)
    np.add.at(table, (arr[:, 0], arr[:, 1]), 1.0)
    return Joint(table / len(pairs))


def gdelta_radius(delta: float) -> float:
    """KL radius log(1/delta) of the G^delta ball."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return math.log(1.0 / delta)


def in_gdelta(nu, p_ref, delta: float, slack: float = GDELTA_SLACK) -> bool:
    """Membership check D_KL(nu || p_ref) <= log(1/delta) + slack."""
    return kl_divergence(_vec(nu), _vec(p_ref)) <= gdelta_radius(delta) + slack


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
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
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
