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
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .info import Channel, Joint, _probs

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
DIST_TOL = 1e-9
# A grid's points run in worker processes (`_map_units`) only on a distortion
# matrix of at least this many cells. One pool costs about 9 ms to start and
# join on 2 shared CPUs, where (medians of 5-7 pairs, serial against
# processes) rd_dimension's 5-point abs grid took 219 against 240 ms and 211
# against 136 ms on 32 symbols, 185 against 195 ms and 274 against 164 ms on
# 64 symbols, and 1.34 against 1.00 s on 128 symbols; `rd` on 64 abs symbols
# (4 points, one of them 80% of the work) took 1.98 against 1.77 s.
_CONCURRENT_CELLS = 1 << 12


class InfeasibleDistortion(ValueError):
    """Requested average distortion below the pointwise-optimal floor."""


@dataclass(frozen=True)
class DistortionSpec:
    """Distortion matrix d(source_symbol, reproduction_symbol) and target epsilon. Nothing reads `epsilon`
    (the solvers take their target as an argument); it stays because callers such as `bench/run.py` pass it."""

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


class _BaProblem:
    """One source and distortion matrix, validated and prepared for BA solves.

    `rd_curve` and `blahut_arimoto` build one per call, and a grid of
    epsilons one per grid; every solve on it shares it. It holds what
    depends only on (source, distortion): the row minima and the distortion
    shifted by them, the rate's base term, the source support, and the work
    buffers that each solve overwrites before it reads them (two of the
    distortion's shape, one with an entry per source symbol), so a solve
    carries no state to the next. Raises ValueError for a source that is not
    a pmf (`info._probs`) or a distortion that is not a finite, non-empty
    2-D array with one row per source symbol.
    """

    def __init__(self, source, d: DistortionSpec | np.ndarray):
        p = _probs(np.reshape(source, -1), 1)
        dm = (d if isinstance(d, DistortionSpec) else DistortionSpec(d)).matrix
        if dm.shape[0] != p.size:
            raise ValueError("distortion rows must match the source alphabet")
        self.p, self.d = p, dm
        self.p_col = p[:, None]
        dmin = dm.min(axis=1, keepdims=True)
        self.shifted = dm - dmin
        self.base = float((p * dmin[:, 0]).sum())  # the distortion floor
        self.support = None if p.min() > 0 else p > 0
        self.weighted = np.empty(dm.shape)
        self.a = np.empty(dm.shape)
        self.denom = np.empty(p.size)

    def channel(self, s: float, q_in: np.ndarray) -> np.ndarray:
        """The test channel that one BA step from marginal q_in makes at multiplier s.

        A row whose normaliser underflows to 0 is the point mass on its
        least-distortion reproduction. That happens at a large s when the
        reproductions that a symbol can reach have marginal 0, as for a
        symbol of probability 0. Every other row is the step's, to the bit.
        """
        weighted = q_in * np.exp(-s * self.shifted)
        z = weighted.sum(axis=1)
        rows = weighted / np.where(z > 0, z, 1.0)[:, None]
        dead = np.flatnonzero(z == 0)
        rows[dead, self.shifted[dead].argmin(axis=1)] = 1.0
        return rows


def _ba_fixed_multiplier(prob: _BaProblem, s: float, tol: float, q0: np.ndarray | None = None):
    """Alternating minimization of I + s*E[d] at fixed multiplier s.

    The per-row exponent is shifted by the row minimum; the shift cancels in
    the channel normalization so iterates are unchanged while exp stays in
    range. Iterations are plain fixed-point updates of the output marginal
    accelerated by SQUAREM extrapolation with a monotone safeguard: an
    accelerated candidate is kept only if its Lagrangian value does not
    exceed the plain two-step value, so the objective is non-increasing
    across accepted iterations (checked). `q0` warm-starts the marginal.

    A step writes its channel, then the distortion products over it, and its
    row normalizers into the buffers of `prob` and keeps only marginals, so
    the loop carries no channel. It returns (rate, distortion, q_in, q_out,
    evaluations, converged): q_in is the input marginal of the accepted
    step and q_out its output, the next solve's warm start.
    `prob.channel(s, q_in)` rebuilds the accepted channel with the step's
    expressions, to the bit, once the caller needs it. The log of an
    all-positive q_out is handed to the step that takes it as input instead
    of being taken again.
    """
    p, p_col, d, support = prob.p, prob.p_col, prob.d, prob.support
    weighted, a, denom = prob.weighted, prob.a, prob.denom
    denom_col = denom[:, None]
    # the ufunc reductions are what ndarray.sum and .min call, minus a Python wrapper
    add, minimum = np.add.reduce, np.minimum.reduce
    np.multiply(prob.shifted, -s, out=a)
    np.exp(a, out=a)
    base = prob.base
    nw = d.shape[1]
    if q0 is None:
        q = np.full(nw, 1.0 / nw)
    else:
        q = np.maximum(q0, 1e-9)
        q = q / add(q)

    def step(q_in: np.ndarray, log_in: np.ndarray | None):
        """One BA update; returns (q_out, log q_out or None, rate, dist) with
        rate = I(p, channel) computed log-free via
        log ch_ij = log q_j + log a_ij - log Z_i, log a_ij = -s (d_ij - dmin_i)."""
        np.multiply(q_in, a, out=weighted)
        add(weighted, axis=1, out=denom)
        np.maximum(denom, 1e-300, out=denom)
        np.divide(weighted, denom_col, out=weighted)  # the channel
        q_out = p @ weighted
        np.multiply(p_col, weighted, out=weighted)  # the channel is not read again
        np.multiply(weighted, d, out=weighted)
        dist = float(add(weighted, axis=None))
        if minimum(q_out) > 0:
            log_out = np.log(q_out)
            if log_in is None:
                log_in = np.log(q_in)
            mix = float(add(q_out * (log_in - log_out)))
        else:
            log_out = None
            pos = q_out > 0
            mix = float(add(q_out[pos] * (np.log(q_in[pos]) - np.log(q_out[pos]))))
        if support is None:
            norm = float(add(p * np.log(denom)))
        else:
            norm = float(add(p[support] * np.log(denom[support])))
        rate = mix - s * (dist - base) - norm
        return q_out, log_out, max(rate, 0.0), dist

    prev_rate = math.inf
    prev_objective = math.inf
    rate = 0.0
    dist = 0.0
    log_q = None
    q_in = q
    evals = 0
    converged = False
    while evals < MAX_ITER:
        q1, log1, rate, dist = step(q, log_q)
        q_in = q
        evals += 1
        objective = rate + s * dist
        if objective > prev_objective + 1e-9 * max(1.0, abs(prev_objective)):
            raise AssertionError("Blahut-Arimoto objective increased")
        if abs(prev_rate - rate) < tol:
            converged = True
            break
        prev_rate, prev_objective = rate, objective
        if evals + 3 > MAX_ITER:
            q, log_q = q1, log1
            continue
        # SQUAREM extrapolation q' = q - 2 alpha r + alpha^2 v
        q2, log2, rate2, dist2 = step(q1, log1)
        evals += 1
        r = q1 - q
        v = (q2 - q1) - r
        vnorm = float(v @ v)
        if vnorm <= 1e-30:
            q_in, q, log_q, prev_rate, prev_objective, rate, dist = (
                q1, q2, log2, rate2, rate2 + s * dist2, rate2, dist2)
            continue
        alpha = min(-1.0, -math.sqrt(float(r @ r) / vnorm))
        q_acc = np.maximum(q - 2 * alpha * r + alpha**2 * v, 0.0)
        q_acc /= add(q_acc)
        q3, log3, rate3, dist3 = step(q_acc, None)
        evals += 1
        if rate3 + s * dist3 <= rate2 + s * dist2:
            q_in, q, log_q, rate, dist = q_acc, q3, log3, rate3, dist3
        else:
            q_in, q, log_q, rate, dist = q1, q2, log2, rate2, dist2
        prev_rate, prev_objective = rate, rate + s * dist
    return max(rate, 0.0), dist, q_in, q1 if converged else q, evals, converged


def blahut_arimoto(source, d: DistortionSpec | np.ndarray, lagrange: float) -> RdSolution:
    """One Lagrangian-optimal point of the rate-distortion curve.

    Returns the rate and distortion attained at the given multiplier; with
    lagrange=0 the channel collapses to identical rows (rate 0). Raises
    ValueError for invalid inputs (see `_BaProblem`) and for a multiplier
    that is negative or not finite.
    """
    prob = _BaProblem(source, d)
    if not 0 <= lagrange < math.inf:
        raise ValueError("lagrange multiplier must be finite and non-negative")
    rate, dist, q_in, _, iters, converged = _ba_fixed_multiplier(prob, lagrange, RATE_TOL)
    return RdSolution(rate, dist, Channel(prob.channel(lagrange, q_in)), float(lagrange), iters, converged)


class _Point(NamedTuple):
    """One solved point of the rate-distortion curve, without its channel.

    The channel is `_BaProblem.channel(s, q_in)`: the step's channel of the
    returned solve, or at the zero-rate point, the multiplier 0 with a
    point-mass marginal, whose step gives every row that point mass.
    """

    rate: float
    distortion: float
    lagrange: float
    iterations: int
    converged: bool
    s: float
    q_in: np.ndarray


def _solve(prob: _BaProblem, epsilon: float) -> _Point:
    """R(epsilon) on a prepared problem; see `rd_curve`."""
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    p, dm = prob.p, prob.d
    floor = prob.base
    if epsilon < floor - 1e-12 * max(1.0, abs(floor)):
        raise InfeasibleDistortion(f"epsilon={epsilon} below the achievable floor {floor}")

    col = p @ dm
    best_col = int(np.argmin(col))
    zero_rate_d = float(col[best_col])
    if epsilon >= zero_rate_d - 1e-15:
        point_mass = np.zeros(dm.shape[1])
        point_mass[best_col] = 1.0
        return _Point(0.0, zero_rate_d, 0.0, 0, True, 0.0, point_mass)

    scale = max(float(dm.max() - dm.min()), 1e-30)
    coarse = max(RATE_TOL, 1e-6)  # bracketing precision; the accepted point is re-polished at RATE_TOL
    if epsilon <= floor + max(DIST_TOL * 1e-3, 1e-15):
        # lossless edge: push the multiplier until the rate stops moving
        s = 8.0 / scale
        prev = None
        q_warm = None
        best = None
        for _ in range(60):
            rate, _, _, q_warm, _, _ = _ba_fixed_multiplier(prob, s, coarse, q_warm)
            best = (s, q_warm)
            if prev is not None and abs(prev - rate) < max(coarse, 1e-12):
                break
            prev = rate
            s *= 2.0
        s = best[0]
        rate, dist, q_in, _, iters, conv = _ba_fixed_multiplier(prob, s, RATE_TOL, best[1])
        return _Point(rate, dist, s, iters, conv, s, q_in)

    lo = 0.0
    hi = 8.0 / scale
    q_warm = None
    for _ in range(80):
        _, dist, _, q_warm, _, _ = _ba_fixed_multiplier(prob, hi, coarse, q_warm)
        if dist <= epsilon:
            break
        hi *= 2.0
    else:
        raise InfeasibleDistortion("could not reach the requested distortion")
    found = None
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        _, dist, _, q_warm, _, _ = _ba_fixed_multiplier(prob, mid, coarse, q_warm)
        if dist <= epsilon:
            hi = mid
            found = (mid, q_warm)
            if dist >= epsilon - DIST_TOL:
                break
        else:
            lo = mid
    if found is None:
        found = (hi, None)
    s = found[0]
    rate, dist, q_in, q_warm, iters, conv = _ba_fixed_multiplier(prob, s, RATE_TOL, found[1])
    if dist > epsilon + max(DIST_TOL, 1e-12):
        # polishing drifted past the target; nudge the multiplier upward
        s = found[0] * (1 + 1e-6) + 1e-12
        rate, dist, q_in, _, iters, conv = _ba_fixed_multiplier(prob, s, RATE_TOL, q_warm)
    return _Point(rate, dist, found[0], iters, conv, s, q_in)


def rd_curve(source, d: DistortionSpec | np.ndarray, epsilon: float) -> RdSolution:
    """Epsilon-constrained rate-distortion value R(epsilon).

    Outer bisection on the Lagrange multiplier drives the achieved distortion
    into [epsilon - DIST_TOL, epsilon]; at the lossless floor the multiplier
    is grown until the rate stabilizes instead. The inputs are validated and
    prepared once (`_BaProblem`), so every BA solve of the call shares the
    set-up and the step buffers; each solve warm-starts from the previous
    solve's output marginal, and only the returned solve's channel is built.
    Raises ValueError for invalid inputs and a non-finite epsilon, before
    any solve, and InfeasibleDistortion below the distortion floor.
    """
    prob = _BaProblem(source, d)
    pt = _solve(prob, epsilon)
    channel = Channel(prob.channel(pt.s, pt.q_in))
    return RdSolution(pt.rate, pt.distortion, channel, pt.lagrange, pt.iterations, pt.converged)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rd_grid(source, d: DistortionSpec | np.ndarray, eps: list[float]) -> list[_Point]:
    """R(epsilon) at every grid point, in grid order, on one prepared problem.

    Each point is the point that `rd_curve` solves, to the bit. The points
    go through `_map_units`, in forked workers on a matrix of at least
    `_CONCURRENT_CELLS` cells; each worker solves on its own copy of the
    problem. A failure raises the error of the first failing point in grid
    order, as a serial loop would.
    """
    prob = _BaProblem(source, d)
    return _map_units(_solve, prob, eps, prob.d.size >= _CONCURRENT_CELLS)


_unit = None  # set in a forked worker only: the unit function with its shared inputs bound


def _start_worker(fn, shared):
    global _unit
    _unit = partial(fn, shared)


def _run_unit(unit):
    return _unit(unit)


def _map_units(fn, shared, units: list, worth_forking: bool) -> list:
    """[fn(shared, u) for u in units], in forked worker processes where that pays.

    The units run in min(len(units), `_cpus()`) workers started with `fork`,
    which inherit fn and shared instead of unpickling them, so only the
    units and their results are pickled. Results come in input order, the
    first failing unit's error is raised, as a serial loop would raise it,
    and every worker is joined before the call returns. Each unit must be a
    pure function of (shared, unit): a worker holds a copy of the caller's
    memory, numpy's error state included, and what a unit changes there is
    lost. The units run serially in the caller when the caller says the work
    is too small (`worth_forking`), on one CPU, off Linux (fork is unsafe on
    macOS and absent on Windows), inside a daemonic process, which may not
    have children, and beside other threads: a fork copies only the calling
    thread, so a lock that another thread holds would stay held in a worker.
    """
    workers = min(len(units), _cpus())
    if worth_forking and workers > 1 and sys.platform == "linux" and threading.active_count() == 1:
        # imported here, so that importing the library loads no process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if not multiprocessing.current_process().daemon:
            # map yields in input order and raises the first error in it,
            # cancelling the units not yet started; leaving the block joins
            # every worker
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_start_worker, initargs=(fn, shared)) as pool:
                return list(pool.map(_run_unit, units))
    return [fn(shared, u) for u in units]


def _gen_problem(joint: Joint, gtab: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(source, distortion, c) of the generalization-gap rate-distortion problem.

    `gtab` is gen(s, w) on the joint's grid, as `learning.gen_table` builds it.
    The constraint E[gen(S,W) - gen(S,What)] <= epsilon depends on the test
    channel only through What, so with c = E_Q[gen(S,W)] fixed by the joint it
    reduces to a plain average-distortion constraint with per-pair distortion
    d(s, what) = -gen(s, what) and threshold epsilon - c; the source is the
    dataset marginal of the joint.
    """
    q = np.asarray(joint, dtype=float)
    gtab = np.asarray(gtab, dtype=float)
    if gtab.shape != q.shape:
        raise ValueError(f"the gen table has shape {gtab.shape}, the joint {q.shape}")
    return q.sum(axis=1), -gtab, float((q * gtab).sum())


def rd_gen(joint: Joint, gtab: np.ndarray, epsilon: float) -> RdSolution:
    """Generalization-gap rate-distortion value R(epsilon - c) at the given joint (`_gen_problem`)."""
    source, d, c = _gen_problem(joint, gtab)
    return rd_curve(source, d, epsilon - c)


def rd_dimension(source, rho: DistortionSpec | np.ndarray, eps_grid) -> tuple[list[float], float]:
    """Rate-distortion dimension estimate from a decreasing epsilon grid in (0, 1).

    Computes R(eps)/log(1/eps) per grid point and fits R(eps) against
    log(1/eps) by least squares; the fitted slope is the dimension estimate.
    Raises ValueError for fewer than 3 points, a point outside (0, 1), where
    log(1/eps) is not positive, and a grid that does not strictly decrease.
    """
    eps = [float(e) for e in eps_grid]
    if len(eps) < 3:
        raise ValueError("need at least 3 grid points")
    if not all(map(math.isfinite, eps)):
        raise ValueError("epsilon grid points must be finite")
    if not all(0 < e < 1 for e in eps):
        raise ValueError("epsilon grid points must lie in (0, 1), where log(1/eps) is positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    rates = [pt.rate for pt in _rd_grid(source, rho, eps)]
    logs = np.log(1.0 / np.asarray(eps))
    slopes = [r / l for r, l in zip(rates, logs.tolist())]
    a = np.vstack([logs, np.ones_like(logs)]).T
    coef, *_ = np.linalg.lstsq(a, np.asarray(rates), rcond=None)
    return slopes, float(coef[0])
