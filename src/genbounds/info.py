"""Exact information-theoretic primitives on finite alphabets.

All divergences and mutual informations are in nats. The 0 log 0 = 0
convention applies throughout, and infinite divergences are returned as
``math.inf`` values, never raised. Containers and primitives
alike take pmfs and check them with `_probs`, raising ValueError on
negative, unnormalised or non-finite input; every KL goes through
`_kl_rows`. All containers are immutable after construction, so every
function here is safe to call concurrently.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .seeding import rng as _rng

__all__ = [
    "Pmf",
    "Joint",
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The bits of `a.sum(axis=1)` on a row-major 2-D float table, in any layout: numpy adds a row of fewer than 8
    entries left to right from +0.0, as these column adds do, many times faster on long tables; a wider row takes
    numpy's pairwise sum of the row-major copy (on a column-major table numpy itself adds column by column)."""
    if a.shape[1] >= 8:
        return np.ascontiguousarray(a).sum(axis=1)
    out = np.zeros(len(a))
    for col in a.T:
        out += col
    return out


def _probs(a, ndim: int, rows: bool = False) -> np.ndarray:
    """`a` as a non-empty pmf array of `ndim` axes, or with `rows` one pmf per row.

    This is the one definition of a valid pmf: entries finite and at least
    -PROB_ATOL, and, once the entries below 0 are set to 0, every sum within
    SUM_ATOL of 1, whatever the number of entries. A 2-D table is summed
    along both marginals (a row sum each, then their total; likewise for the
    columns), the sums that its marginals' own checks take, so the marginals
    of an accepted table are accepted, and so are its rows divided by their
    sums. Returns that fresh read-only copy, so that p > 0 is the support
    and log q is -inf off the support of q, or a checked `Pmf`'s or `Joint`'s own.
    """
    if not rows and isinstance(a, Pmf if ndim == 1 else Joint):
        return np.asarray(a)
    return _checked(a, ndim, rows)[0]


def _checked(a, ndim: int, rows: bool) -> tuple[np.ndarray, tuple]:
    """`_probs`' array and the sums it checked: a 2-D table's row sums, and without `rows` its column sums."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-D probability array, got shape {a.shape}")
    low = a.min()  # NaN if any entry is
    if not low >= -PROB_ATOL:
        if math.isnan(low) or low == -math.inf:
            raise ValueError("probability entries must be finite")
        raise ValueError("probability entries must be non-negative")
    a = np.maximum(a, 0.0)
    sums = (_row_sums(a),) if ndim == 2 else ()
    if rows:
        off = np.abs(sums[0] - 1.0).max()
    elif ndim == 2:
        sums += (a.sum(axis=0),)
        off = max(abs(sums[0].sum() - 1.0), abs(sums[1].sum() - 1.0))
    else:
        off = abs(a.sum() - 1.0)
    if not math.isfinite(off):
        raise ValueError("probability entries must be finite")
    if off > SUM_ATOL:
        raise ValueError(f"probabilities must sum to 1{' in every row' if rows else ''} (off by {off:.3g})")
    a.setflags(write=False)
    return a, sums


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


@dataclass(frozen=True)
class Joint:
    """Joint pmf table over a product alphabet (rows: S, columns: W)."""

    table: np.ndarray

    def __post_init__(self):
        table, sums = _checked(self.table, 2, False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_sums", sums)  # its row and column sums: the marginals

    def marginal_s(self) -> Pmf:
        return Pmf(self._sums[0])

    def marginal_w(self) -> Pmf:
        return Pmf(self._sums[1])

    def __array__(self, dtype=None):
        return np.asarray(self.table, dtype=dtype)


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as flat pmf vectors over one alphabet."""
    pv, qv = _probs(np.asarray(p, dtype=float).reshape(-1), 1), _probs(np.asarray(q, dtype=float).reshape(-1), 1)
    if pv.shape != qv.shape:
        raise ValueError(f"alphabet mismatch: {pv.shape} vs {qv.shape}")
    return pv, qv


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D_KL(p || q) along the last axis of two pmf arrays from `_probs`, in nats.

    Where p > 0 and q = 0 the term p (log p - log 0) is +inf, and so is the
    row's divergence. Cells with p = 0 add an exact 0.0 in place: a row
    without them sums to the same bits as that row's own 1-D sum; a 1-D q serves every row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return terms.sum() if terms.ndim == 1 else _row_sums(terms)


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
    return max(float(_kl_rows(t.ravel(), np.outer(_row_sums(t), t.sum(axis=0)).ravel())), 0.0)


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
    """sup{p in [0,1] : D(p || a) <= b}, by `_increasing_root` on [a, 1].

    The search brackets the root of D(p || a) - b', b' the float after b, and reads points
    p >= 1 as +inf (D(1 || a) > b by then). The bracket's lower float is the last with D <= b,
    so binary_kl(p*, a) <= b holds for the result p* itself, and p* never exceeds the sup or
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
    above = math.nextafter(b, math.inf)  # D(p || a) < above exactly where D(p || a) <= b

    def h(p: float) -> tuple[float, float]:
        if p >= 1.0:
            return math.inf, math.inf
        return binary_kl(p, a) - above, math.log(p) - math.log(a) - math.log1p(-p) + math.log1p(-a)

    return _increasing_root(h, a)[0]


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


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork(workers: int) -> bool:
    """Whether a caller that would run `workers` processes may fork them.

    No for fewer than two, off Linux (fork is unsafe on macOS and absent on
    Windows), beside other threads (a fork copies only the calling thread, so
    a lock that another thread holds would stay held in the child) and inside
    a daemonic process, which may not have children. multiprocessing is
    imported only once the other checks pass, so importing the library loads
    no process machinery.
    """
    if workers < 2 or sys.platform != "linux" or threading.active_count() != 1:
        return False
    import multiprocessing

    return not multiprocessing.current_process().daemon


def _quiet(f: Callable[[np.ndarray], float], x: np.ndarray) -> float | None:
    """f(x), or None where f raises or warns there.

    The search evaluates some points before their serial turn, and some that
    it never uses; those make no noise. A point it needs whose value is None
    is evaluated again in its turn, where it raises or warns as in a serial
    search.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = f(x)
        except Exception:
            return None
    return None if caught else value


def _serve(f, conn, parent_end) -> None:
    """The helper's loop: `_quiet` values of f at each list of points received, until the parent's end closes."""
    import signal

    # the parent takes an interrupt and stops the helper, whose SIGTERM kills it whatever handler it inherited
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_end.close()
    while True:
        try:
            points = conn.recv()
            conn.send([_quiet(f, x) for x in points])
        except (EOFError, BrokenPipeError):  # the parent returned, raised or died
            return


class _Helper:
    """One forked process that evaluates the search's objective at the points sent to it.

    The process inherits f instead of unpickling it, so only the points and
    their values cross the pipe. `close` joins it, killing it first if it is
    still evaluating (its caller is leaving on an error).
    """

    def __init__(self, f: Callable[[np.ndarray], float]):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(f, theirs, self._conn), daemon=True)
        self._proc.start()
        theirs.close()
        self._busy = False

    def send(self, points: list) -> None:
        self._conn.send(points)
        self._busy = True

    def recv(self) -> list:
        """The `_quiet` values of the points last sent, in order."""
        values = self._conn.recv()
        self._busy = False
        return values

    def close(self) -> None:
        if self._busy:
            self._proc.terminate()
        self._conn.close()
        self._proc.join()


def _values(f: Callable[[np.ndarray], float], points: list, helper: _Helper | None) -> list:
    """[f(x) for x in points], raising the first error in that order.

    With a helper, it takes every second point and the caller the others,
    both `_quiet`ly; a point whose value is None is evaluated again in its
    turn, so the error or warning of the first such point is the serial one.
    """
    if helper is None:
        return [f(x) for x in points]
    helper.send(points[1::2])
    values = [None] * len(points)
    values[0::2] = [_quiet(f, x) for x in points[0::2]]
    values[1::2] = helper.recv()
    return [f(x) if v is None else v for x, v in zip(points, values)]


def gdelta_sup(
    p_ref,
    delta: float,
    objective: Callable[[np.ndarray], float],
    search_budget: int = 2000,
    seed: int = 0,
    *,
    _helper: bool = False,
):
    """Heuristic maximization of `objective` over the KL ball G^delta.

    Candidates are the reference itself, exponential tilts of it along
    finite-difference ascent directions with the tilt solved to saturate the
    KL constraint, and Dirichlet restarts pulled back into the ball, refined
    by pairwise-mass coordinate ascent. Every candidate is re-checked for
    membership, so the result is a certified lower estimate of the true sup.

    With `_helper` (`bounds.rd_tail_bound` asks for it: its objective is an
    RD solve of milliseconds), the search shares its evaluations with one
    forked helper process, connected by a pipe. The finite-difference points,
    the tilts and the restarts, whose values do not depend on one another,
    are split between the two (`_values`) and folded in serial order. In the
    coordinate ascent the helper evaluates the candidate after the caller's,
    built from the same incumbent, and that value is used only if the
    caller's candidate did not improve. Every value used is the one that the
    serial search computes, at the same count of evaluations, so the result
    is the same to the bit; an error or warning comes from the point where
    the serial search meets it, and a point that the serial search never
    evaluates raises and warns nothing. Where `_may_fork` says no, the same
    steps run in the caller. The helper is joined before the call returns or
    raises.

    Returns (sup_estimate, argmax) with argmax shaped like `p_ref`.
    """
    ref = np.asarray(p_ref, dtype=float)
    shape = ref.shape
    p = ref.reshape(-1).copy()
    radius = gdelta_radius(delta)

    def f(flat: np.ndarray) -> float:
        return float(objective(flat.reshape(shape)))

    best_v = f(p)
    if radius <= 0.0:
        return best_v, p.reshape(shape)
    helper = _Helper(f) if _helper and _may_fork(_cpus()) else None
    try:
        best_v, best_p = _search(f, p, radius, best_v, search_budget, seed, helper)
    finally:
        if helper is not None:
            helper.close()
    if not in_gdelta(best_p, p, delta):
        raise RuntimeError("gdelta_sup incumbent lies outside the KL ball")
    return best_v, best_p.reshape(shape)


def _search(f, p: np.ndarray, radius: float, best_v: float, budget: int, seed: int, helper: _Helper | None):
    """(sup estimate, argmax) of `gdelta_sup`'s search from p, whose value is best_v.

    `evals` counts the evaluations of the serial search, p's included, and
    the budget checks read it.
    """
    best_p = p.copy()
    evals = 1
    idx = np.flatnonzero(p > 0)

    def inside(cand: np.ndarray | None) -> bool:
        return cand is not None and kl_divergence(cand, p) <= radius + GDELTA_SLACK

    # finite-difference ascent direction at p (vertex mixes)
    h = 1e-4
    points = [p]
    for i in idx:
        e = np.zeros_like(p)
        e[i] = 1.0
        points.append((1 - h) * p + h * e)
    f_base, *f_moved = _values(f, points, helper)
    evals += len(points)
    grad = np.zeros_like(p)
    grad[idx] = (np.array(f_moved) - f_base) / h

    # tilts along it, then Dirichlet restarts: no candidate's value depends on another's
    tilts = (_tilt_to_radius(p, grad, radius * frac) for frac in (1.0, 0.5, 0.25, 0.1))
    cands = [cand for cand in tilts if inside(cand)]
    gen = _rng(seed, 7)
    n_restarts = max(4, min(32, budget // max(2 * p.size, 1)))
    while evals + len(cands) < budget // 2 and n_restarts > 0:
        n_restarts -= 1
        q = np.zeros_like(p)
        q[idx] = gen.dirichlet(np.ones(idx.size))
        cand = _mix_to_radius(p, q, radius)
        if inside(cand):
            cands.append(cand)
    for cand, v in zip(cands, _values(f, cands, helper)):
        if v > best_v:
            best_v, best_p = v, cand.copy()
    evals += len(cands)

    # pairwise mass-transfer coordinate ascent from the incumbent
    # (i, j) at each position of each pass. No draw depends on a value, so a pass drawn whole when
    # first reached holds the pairs that the serial search draws one at a time.
    passes = []

    def next_cand(best: np.ndarray, pos: tuple, count: int):
        """(candidate, its position) after `pos` = (pass, index, step, improved) from incumbent `best`,
        with `count` evaluations made; None where the ascent ends."""
        t, k, step, improved = pos
        while count < budget:
            if k == idx.size:
                t, k, step, improved = t + 1, 0, step if improved else step * 0.5, False
            if k == 0 and not step > 1e-4:
                return None
            if t == len(passes):
                order = gen.permutation(len(idx))
                passes.append((idx[order], [idx[int(gen.integers(len(idx)))] for _ in order]))
            i, j = passes[t][0][k], passes[t][1][k]
            k += 1
            if i == j or best[i] <= 0:
                continue
            move = step * best[i]
            cand = best.copy()
            cand[i] -= move
            cand[j] += move
            if inside(cand):
                return cand, (t, k, step, improved)
        return None

    nxt, known = next_cand(best_p, (0, 0, 0.25, False), evals), None
    while nxt is not None:
        cand, pos = nxt
        # the helper takes the candidate that follows if this one does not improve
        ahead = next_cand(best_p, pos, evals + 1) if helper is not None and known is None else None
        if ahead is not None:
            helper.send([ahead[0]])
        v = f(cand) if known is None else known
        later = helper.recv()[0] if ahead is not None else None
        evals += 1
        if v > best_v + 1e-15:
            best_v, best_p = v, cand
            nxt, known = next_cand(best_p, (*pos[:3], True), evals), None
        elif ahead is not None:
            nxt, known = ahead, later
        else:
            nxt, known = next_cand(best_p, pos, evals), None
    return best_v, best_p
