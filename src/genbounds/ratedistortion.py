"""Blahut-Arimoto solver and the rate-distortion functions used by the bounds.

The solver works on the Lagrangian form min_channel I + s * E[d] whose
alternating updates are monotone on finite alphabets; epsilon-constrained
rates are obtained by an outer bisection on the multiplier. On top of the
generic solver sit the generalization-gap rate-distortion function (source =
datasets, distortion = minus the gap of the reproduction), the trajectory
rate-distortion, and the log-log slope estimator for the rate-distortion
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .info import Channel, Joint
from .learning import FiniteLearningProblem, gen_table

__all__ = [
    "RdSolution",
    "DistortionSpec",
    "InfeasibleDistortion",
    "blahut_arimoto",
    "rd_curve",
    "rd_gen",
    "rd_dimension",
]

RATE_TOL = 1e-10
MAX_ITER = 10_000


class InfeasibleDistortion(ValueError):
    """Requested average distortion below the pointwise-optimal floor."""


@dataclass(frozen=True)
class DistortionSpec:
    """Distortion matrix d(source_symbol, reproduction_symbol) and target epsilon."""

    matrix: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("distortion matrix must be a non-empty 2-D array")
        if not np.all(np.isfinite(m)):
            raise ValueError("distortion entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class RdSolution:
    rate_nats: float
    achieved_distortion: float
    channel: Channel
    lagrange_lambda: float
    iterations: int
    converged: bool


def _ba_fixed_multiplier(
    p: np.ndarray, d: np.ndarray, s: float, max_iter: int, tol: float, q0: np.ndarray | None = None
):
    """Alternating minimization of I + s*E[d] at fixed multiplier s.

    The per-row exponent is shifted by the row minimum; the shift cancels in
    the channel normalization so iterates are unchanged while exp stays in
    range. Iterations are plain fixed-point updates of the output marginal
    accelerated by SQUAREM extrapolation with a monotone safeguard: an
    accelerated candidate is kept only if its Lagrangian value does not
    exceed the plain two-step value, so the objective is non-increasing
    across accepted iterations (asserted). `q0` warm-starts the marginal.
    """
    ns, nw = d.shape
    dmin = d.min(axis=1, keepdims=True)
    a = np.exp(-s * (d - dmin))
    base = float((p * dmin[:, 0]).sum())
    psup = p > 0
    if q0 is None:
        q = np.full(nw, 1.0 / nw)
    else:
        q = np.clip(np.asarray(q0, dtype=float), 1e-9, None)
        q = q / q.sum()

    def step(q_in: np.ndarray):
        """One BA update; returns (q_out, rate, dist, channel) with
        rate = I(p, channel) computed log-free via
        log ch_ij = log q_j + log a_ij - log Z_i, log a_ij = -s (d_ij - dmin_i)."""
        weighted = q_in[None, :] * a
        denom = np.maximum(weighted.sum(axis=1), 1e-300)
        channel = weighted / denom[:, None]
        q_out = p @ channel
        dist = float((p[:, None] * channel * d).sum())
        pos = q_out > 0
        mix = float((q_out[pos] * (np.log(q_in[pos]) - np.log(q_out[pos]))).sum())
        rate = mix - s * (dist - base) - float((p[psup] * np.log(denom[psup])).sum())
        return q_out, max(rate, 0.0), dist, channel

    prev_rate = math.inf
    prev_objective = math.inf
    rate = 0.0
    dist = 0.0
    channel = np.tile(q, (ns, 1))
    evals = 0
    converged = False
    while evals < max_iter:
        q1, rate, dist, channel = step(q)
        evals += 1
        objective = rate + s * dist
        if objective > prev_objective + 1e-9 * max(1.0, abs(prev_objective)):
            raise AssertionError("Blahut-Arimoto objective increased")
        if abs(prev_rate - rate) < tol:
            converged = True
            break
        prev_rate, prev_objective = rate, objective
        if evals + 3 > max_iter:
            q = q1
            continue
        # SQUAREM extrapolation q' = q - 2 alpha r + alpha^2 v
        q2, rate2, dist2, channel2 = step(q1)
        evals += 1
        r = q1 - q
        v = (q2 - q1) - r
        vnorm = float(v @ v)
        if vnorm <= 1e-30:
            q, prev_rate, prev_objective, rate, dist, channel = (
                q2, rate2, rate2 + s * dist2, rate2, dist2, channel2)
            continue
        alpha = min(-1.0, -math.sqrt(float(r @ r) / vnorm))
        q_acc = np.clip(q - 2 * alpha * r + alpha**2 * v, 0.0, None)
        q_acc /= q_acc.sum()
        q3, rate3, dist3, channel3 = step(q_acc)
        evals += 1
        if rate3 + s * dist3 <= rate2 + s * dist2:
            q, rate, dist, channel = q3, rate3, dist3, channel3
        else:
            q, rate, dist, channel = q2, rate2, dist2, channel2
        prev_rate, prev_objective = rate, rate + s * dist
    return max(rate, 0.0), dist, channel, evals, converged


def blahut_arimoto(
    source,
    d: DistortionSpec | np.ndarray,
    lagrange: float,
    max_iter: int = MAX_ITER,
    tol: float = RATE_TOL,
) -> RdSolution:
    """One Lagrangian-optimal point of the rate-distortion curve.

    Returns the rate and distortion attained at the given multiplier; with
    lagrange=0 the channel collapses to identical rows (rate 0).
    """
    p = np.asarray(source, dtype=float).reshape(-1)
    dm = d.matrix if isinstance(d, DistortionSpec) else np.asarray(d, dtype=float)
    if dm.shape[0] != p.size:
        raise ValueError("distortion rows must match the source alphabet")
    if dm.shape[1] == 0:
        raise ValueError("reproduction alphabet must be non-empty")
    if lagrange < 0:
        raise ValueError("lagrange multiplier must be non-negative")
    rate, dist, channel, iters, converged = _ba_fixed_multiplier(p, dm, lagrange, max_iter, tol)
    return RdSolution(rate, dist, Channel(channel), float(lagrange), iters, converged)


def _distortion_floor(p: np.ndarray, dm: np.ndarray) -> float:
    return float((p * dm.min(axis=1)).sum())


def _zero_rate_distortion(p: np.ndarray, dm: np.ndarray) -> tuple[float, int]:
    col = p @ dm
    j = int(np.argmin(col))
    return float(col[j]), j


def rd_curve(
    source,
    d: DistortionSpec | np.ndarray,
    epsilon: float,
    max_iter: int = MAX_ITER,
    tol: float = RATE_TOL,
    dist_tol: float = 1e-9,
) -> RdSolution:
    """Epsilon-constrained rate-distortion value R(epsilon).

    Outer bisection on the Lagrange multiplier drives the achieved distortion
    into [epsilon - dist_tol, epsilon]; at the lossless floor the multiplier
    is grown until the rate stabilizes instead.
    """
    p = np.asarray(source, dtype=float).reshape(-1)
    dm = d.matrix if isinstance(d, DistortionSpec) else np.asarray(d, dtype=float)
    floor = _distortion_floor(p, dm)
    if epsilon < floor - 1e-12 * max(1.0, abs(floor)):
        raise InfeasibleDistortion(f"epsilon={epsilon} below the achievable floor {floor}")

    zero_rate_d, best_col = _zero_rate_distortion(p, dm)
    if epsilon >= zero_rate_d - 1e-15:
        rows = np.zeros((p.size, dm.shape[1]))
        rows[:, best_col] = 1.0
        return RdSolution(0.0, zero_rate_d, Channel(rows), 0.0, 0, True)

    scale = max(float(dm.max() - dm.min()), 1e-30)
    coarse = max(tol, 1e-6)  # bracketing precision; the accepted point is re-polished at `tol`
    if epsilon <= floor + max(dist_tol * 1e-3, 1e-15):
        # lossless edge: push the multiplier until the rate stops moving
        s = 8.0 / scale
        prev = None
        q_warm = None
        best = None
        for _ in range(60):
            rate, dist, channel, iters, conv = _ba_fixed_multiplier(p, dm, s, max_iter, coarse, q_warm)
            q_warm = p @ channel
            best = (s, q_warm)
            if prev is not None and abs(prev - rate) < max(coarse, 1e-12):
                break
            prev = rate
            s *= 2.0
        rate, dist, channel, iters, conv = _ba_fixed_multiplier(p, dm, best[0], max_iter, tol, best[1])
        return RdSolution(rate, dist, Channel(channel), best[0], iters, conv)

    lo = 0.0
    hi = 8.0 / scale
    q_warm = None
    for _ in range(80):
        _, dist, channel, _, _ = _ba_fixed_multiplier(p, dm, hi, max_iter, coarse, q_warm)
        q_warm = p @ channel
        if dist <= epsilon:
            break
        hi *= 2.0
    else:
        raise InfeasibleDistortion("could not reach the requested distortion")
    found = None
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        rate, dist, channel, iters, conv = _ba_fixed_multiplier(p, dm, mid, max_iter, coarse, q_warm)
        q_warm = p @ channel
        if dist <= epsilon:
            hi = mid
            found = (mid, q_warm)
            if dist >= epsilon - dist_tol:
                break
        else:
            lo = mid
    if found is None:
        found = (hi, None)
    rate, dist, channel, iters, conv = _ba_fixed_multiplier(p, dm, found[0], max_iter, tol, found[1])
    if dist > epsilon + max(dist_tol, 1e-12):
        # polishing drifted past the target; nudge the multiplier upward
        rate, dist, channel, iters, conv = _ba_fixed_multiplier(
            p, dm, found[0] * (1 + 1e-6) + 1e-12, max_iter, tol, p @ channel
        )
    return RdSolution(rate, dist, Channel(channel), found[0], iters, conv)


def rd_gen(
    joint: Joint,
    prob: FiniteLearningProblem,
    contexts: np.ndarray,
    epsilon: float,
    by_type: bool = False,
    w_hat_gen: np.ndarray | None = None,
    **kw,
) -> RdSolution:
    """Generalization-gap rate-distortion value at the given joint.

    The constraint E[gen(S,W) - gen(S,What)] <= epsilon depends on the test
    channel only through What, so with c = E_Q[gen(S,W)] fixed by the joint it
    reduces to a plain average-distortion constraint with per-pair distortion
    d(s, what) = -gen(s, what) and threshold epsilon - c; the source is the
    dataset marginal of the joint. `w_hat_gen` overrides the reproduction
    gen table when the reproduction alphabet differs from W.
    """
    q = np.asarray(joint, dtype=float)
    gtab = gen_table(prob, contexts, by_type=by_type)
    if w_hat_gen is None:
        w_hat_gen = gtab
    c = float((q * gtab).sum())
    source = q.sum(axis=1)
    return rd_curve(source, DistortionSpec(-np.asarray(w_hat_gen, dtype=float), epsilon - c), epsilon - c, **kw)


def rd_dimension(source, rho: DistortionSpec | np.ndarray, eps_grid) -> tuple[list[float], float]:
    """Rate-distortion dimension estimate from a decreasing epsilon grid.

    Computes R(eps)/log(1/eps) per grid point and fits R(eps) against
    log(1/eps) by least squares; the fitted slope is the dimension estimate.
    """
    eps = [float(e) for e in eps_grid]
    if len(eps) < 3:
        raise ValueError("need at least 3 grid points")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    rates = [rd_curve(source, rho, e).rate_nats for e in eps]
    logs = np.log(1.0 / np.asarray(eps))
    slopes = [r / l if l != 0 else 0.0 for r, l in zip(rates, logs)]
    a = np.vstack([logs, np.ones_like(logs)]).T
    coef, *_ = np.linalg.lstsq(a, np.asarray(rates), rcond=None)
    return slopes, float(coef[0])
