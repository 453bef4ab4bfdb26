"""Quantized optimization trajectories and the trajectory-compressibility bounds.

A toy model exposes exact population and empirical risks for a scalar
parameter, a (sub)gradient, and a loss bounded in [0, 1]. Trajectories are
recorded on a uniform quantizer grid over the window T = {t1, ..., t2-1}
(exactly Delta_t = t2 - t1 iterates, matching the 1/Delta_t normalization of
the windowed generalization error). The rate-distortion side is handled by
the solver module; this one adds the two trajectory bounds, the coupling
coefficient, and the learning-rate sweep.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, _check_domain, _eq4_terms, _finish
from .info import Pmf, gdelta_sup, mutual_information
from .learning import _whole
from .ratedistortion import _map_units, rd_curve
from .seeding import rng as _rng, streams

__all__ = [
    "Quantizer",
    "TrajectoryProcess",
    "TrajectoryDivergence",
    "ToyModel",
    "QuadraticToy",
    "LogisticToy",
    "simulate_trajectory",
    "gen_trajectory",
    "thm7_bound",
    "thm8_bound",
    "CouplingEstimate",
    "estimate_M",
    "lr_sweep",
    "SweepRow",
    "SweepResult",
    "trajectory_distribution",
]

# A sweep's rates run in worker processes (`ratedistortion._map_units`) only
# from this many SGD steps in all, trials x steps x rates. On 2 shared CPUs
# (medians of 5-7 pairs, serial against processes) 3840 steps took 74 against
# 109 ms and 81 against 68 ms, 7680 steps 134 against 108 ms and 86 against
# 90 ms, 11520 steps 122 against 87 ms and 94 against 74 ms, and the CLI's
# default sweep (48000 steps) 343 against 190 ms.
_CONCURRENT_STEPS = 1 << 13


class TrajectoryDivergence(RuntimeError):
    """Raised when an iterate leaves the quantizer range; names the step."""


@dataclass(frozen=True)
class Quantizer:
    """Uniform scalar grid with `bins` cells over [lo, hi]."""

    lo: float
    hi: float
    bins: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError("need finite lo < hi")
        if not (self.bins >= 2 and float(self.bins).is_integer()):
            raise ValueError("need a whole number of bins, at least 2")
        object.__setattr__(self, "bins", int(self.bins))

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.bins

    def cells(self, window, t1: int) -> np.ndarray:
        """Cell indices of the iterates of steps t1, t1 + 1, ...; np.rint rounds half to even, as round() does."""
        w = np.asarray(window, dtype=float)
        half = 0.5 * self.step
        inside = (self.lo - half <= w) & (w <= self.hi + half)  # written so that a NaN iterate fails it
        if not inside.all():
            i = int(np.argmin(inside))
            raise TrajectoryDivergence(f"iterate {float(w[i])} left the grid range at step {t1 + i}")
        return np.clip(np.rint((w - self.lo) / self.step), 0, self.bins).astype(int)

    def value(self, idx: int) -> float:
        return self.lo + idx * self.step


@dataclass(frozen=True)
class TrajectoryProcess:
    """Quantized optimizer states over the window [t1:t2)."""

    t1: int
    t2: int
    state_indices: np.ndarray  # quantizer cell per window step
    quantizer: Quantizer
    raw_states: np.ndarray  # unquantized iterates over the window

    def __post_init__(self):
        if not self.t2 > self.t1:
            raise ValueError("need t2 > t1")
        idx = np.asarray(self.state_indices, dtype=int)
        if idx.size != self.t2 - self.t1:
            raise ValueError("window length mismatch")
        object.__setattr__(self, "state_indices", idx)

    @property
    def delta_t(self) -> int:
        return self.t2 - self.t1

    @property
    def states(self) -> np.ndarray:
        return np.array([self.quantizer.value(i) for i in self.state_indices])

    def key(self) -> tuple:
        return tuple(self.state_indices.tolist())


class ToyModel:
    """Finite-data scalar model with exact risks; losses live in [0, 1]."""

    z_values: np.ndarray
    mu: Pmf
    w_lo: float
    w_hi: float
    lipschitz_L: float

    def loss(self, z: float, w) -> np.ndarray:
        raise NotImplementedError

    def grad(self, z: float, w: float) -> float:
        raise NotImplementedError

    def population_risk(self, w) -> float:
        return float(sum(p * self.loss(z, w) for z, p in zip(self.z_values, np.asarray(self.mu))))

    def empirical_risk(self, samples: np.ndarray, w) -> float:
        zs = self.z_values[np.asarray(samples, dtype=int)]
        return float(np.mean([self.loss(z, w) for z in zs]))

    def sample_dataset(self, n: int, seed: int, *path: int) -> np.ndarray:
        return self._draw(_rng(seed, *path), n)

    def _draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.choice(self.z_values.size, size=n, p=np.asarray(self.mu))

    def default_quantizer(self, bins: int = 8) -> Quantizer:
        return Quantizer(self.w_lo, self.w_hi, bins)


class QuadraticToy(ToyModel):
    """loss(z, w) = (w - z)^2 / C with C chosen so the loss caps at 1."""

    def __init__(self, z_values=(-0.5, 0.5), mu=(0.5, 0.5), w_lo=-1.0, w_hi=1.0):
        self.z_values = np.asarray(z_values, dtype=float)
        self.mu = Pmf(np.asarray(mu, dtype=float))
        self.w_lo, self.w_hi = float(w_lo), float(w_hi)
        span = max(abs(w - z) for w in (self.w_lo, self.w_hi) for z in self.z_values.tolist())
        self._scale = span**2
        self.lipschitz_L = 2.0 * span / self._scale

    def loss(self, z, w):
        return (np.asarray(w) - z) ** 2 / self._scale

    def grad(self, z, w):
        return 2.0 * (w - z) / self._scale


class LogisticToy(ToyModel):
    """loss(z, w) = log(1 + e^{-zw}) / log(1 + e^{w_max}), z in {-1, +1}."""

    def __init__(self, mu=(0.35, 0.65), w_max=3.0):
        self.z_values = np.asarray([-1.0, 1.0])
        self.mu = Pmf(np.asarray(mu, dtype=float))
        self.w_lo, self.w_hi = -float(w_max), float(w_max)
        self._scale = math.log1p(math.exp(w_max))
        self.lipschitz_L = 1.0 / self._scale

    def loss(self, z, w):
        return np.log1p(np.exp(-z * np.asarray(w))) / self._scale

    def grad(self, z, w):
        if z * w > 700.0:  # e^{zw} overflows past 709.8; 1 + e^{zw} == e^{zw} from zw = 37 on
            return -z * math.exp(-z * w) / self._scale
        return -z / (1.0 + math.exp(z * w)) / self._scale


def simulate_trajectory(model: ToyModel, samples: np.ndarray, lr: float, steps: int, seed: int,
                        quantizer: Quantizer | None = None, t1: int | None = None, t2: int | None = None,
                        stochastic: bool = True, w0: float | None = None) -> TrajectoryProcess:
    """Run (stochastic) gradient descent and record the quantized window.

    The default window is the last half of training (t1 = steps // 2,
    t2 = steps). Deterministic given (seed, samples): the stochastic picks
    are drawn in one call from the (seed, 17) stream, which yields the same
    values as one scalar draw per step. The recurrence runs all `steps`
    steps; the window is then range-checked and quantized as one array, and
    an iterate outside the grid raises TrajectoryDivergence with its step.
    """
    gen = _rng(seed, 17) if stochastic else None
    return _descend(model, np.asarray(samples, dtype=int), lr, steps, gen, quantizer or model.default_quantizer(),
                    w0, t1, t2)


def _descend(model, samples, lr, steps, gen, quantizer, w0=None, t1=None, t2=None) -> TrajectoryProcess:
    """The (S)GD recurrence on Python floats from w0: full-batch when gen is None, else SGD on picks drawn from gen.

    No toy model's grad raises on an inf or NaN iterate: a diverging run ends, then fails the range check.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    steps = _whole(steps, "steps")
    t1 = steps // 2 if t1 is None else t1
    t2 = steps if t2 is None else t2
    if not 0 <= t1 < t2 <= steps:
        raise ValueError("window must satisfy 0 <= t1 < t2 <= steps")
    w = 0.5 * (quantizer.lo + quantizer.hi) if w0 is None else float(w0)
    zs = model.z_values[samples]
    raw = []
    if gen is None:
        zs = zs.tolist()
        for _ in range(steps):
            w = w - lr * float(np.mean([model.grad(z, w) for z in zs]))
            raw.append(w)
    else:
        grad = model.grad
        for z in zs[gen.integers(samples.size, size=steps)].tolist():
            w = w - lr * grad(z, w)
            raw.append(w)
    window = np.asarray(raw[t1:t2])
    return TrajectoryProcess(t1, t2, quantizer.cells(window, t1), quantizer, window)


def gen_trajectory(model: ToyModel, samples: np.ndarray, traj: TrajectoryProcess) -> float:
    """Windowed generalization error (1/Delta_t) sum_t gen(s, w_t), exact risks."""
    return _window_gen(_risk_table(model, traj.quantizer), np.asarray(samples, dtype=int), traj.state_indices)


def _risk_table(model: ToyModel, quantizer: Quantizer) -> dict:
    """cell -> (population risk, loss at each of z_values) at the cell's grid value, for all bins + 1 cells."""
    table = {}
    for c in range(quantizer.bins + 1):
        w = quantizer.value(c)
        table[c] = (model.population_risk(w), np.array([model.loss(z, w) for z in model.z_values]))
    return table


def _window_gen(table: dict, samples: np.ndarray, cells: np.ndarray) -> float:
    """The windowed gen error from a risk table, one gap per distinct cell, gathered back to the steps.

    A gap takes the 1-D mean of the sample losses, as `empirical_risk` does; a 2-D row mean moves last bits.
    """
    distinct, inverse = np.unique(cells, return_inverse=True)
    gaps = np.array([table[c][0] - np.mean(table[c][1][samples]) for c in distinct.tolist()])
    return float(np.mean(gaps[inverse]))


def thm7_bound(rd_sup: float, delta: float, n: int, epsilon: float) -> BoundReport:
    """Trajectory tail bound sqrt((rd_sup + log(1/delta)) / (2n)) + eps for losses in [0,1]."""
    _check_domain(n, delta, rd_sup=rd_sup)
    params = {"n": n, "delta": delta, "epsilon": epsilon, "rd_sup": rd_sup}
    # eq4 at sigma = 1/2: 2 sigma^2 R / n rounds once, as R / (2n) does
    return _finish("thm7", _eq4_terms(rd_sup, 0.5, n, delta, epsilon), params)


def thm8_bound(rd_s: float, log_M: float, lipschitz_L: float, delta: float, n: int, epsilon: float) -> BoundReport:
    """Data-dependent trajectory bound sqrt((rd_s + log(sqrt(2n) M / delta))/(2n-1) + 4 L eps).

    The theorem needs log_M to be the coupling supremum. `estimate_M` gives
    only a lower estimate of it, so a bound built on that can be too small.
    """
    _check_domain(n, delta, rd_s=rd_s, log_M=log_M)
    rate = rd_s / (2 * n - 1)
    conf = (0.5 * math.log(2 * n) + log_M + math.log(1.0 / delta)) / (2 * n - 1)
    terms = {"rate_term": rate, "confidence_term": conf, "lipschitz_term": 4.0 * lipschitz_L * epsilon}
    params = {"n": n, "delta": delta, "epsilon": epsilon, "rd_s": rd_s, "log_M": log_M, "lipschitz_L": lipschitz_L}
    return _finish("thm8", terms, params)


@dataclass(frozen=True)
class CouplingEstimate:
    """A lower estimate of log M = sup over the KL ball of I(S; W^T) under nu x pi.

    thm8 needs the sup itself, so a bound built on `log_M` can be too small.
    """

    log_M: float
    plug_in: float

    def __post_init__(self):
        if self.log_M < -1e-12:
            raise ValueError("log_M must be non-negative")


def estimate_M(pi_S, P_S, delta: float, budget: int = 800, seed: int = 0) -> CouplingEstimate:
    """Coupling coefficient of a dataset-conditional trajectory law.

    pi_S rows hold P(W^T = . | S = s) on the (finite, quantized) trajectory
    alphabet. log M is the supremum over nu in the KL ball of the mutual
    information of the channel with input nu. The returned `log_M` is a
    search's lower estimate of it (`info.gdelta_sup`: attained in the ball,
    so never above the sup, but it can fall well short), so thm8 with it
    can be too small. The plug-in value (nu = P_S) is reported alongside.
    """
    pi = np.asarray(pi_S, dtype=float)
    ps = np.asarray(P_S, dtype=float).reshape(-1)
    if pi.shape[0] != ps.size:
        raise ValueError("pi_S rows must match the dataset alphabet")

    def objective(nu: np.ndarray) -> float:
        nu = np.clip(nu, 0.0, None)
        nu = nu / nu.sum()
        return mutual_information(nu[:, None] * pi)

    plug_in = objective(ps)
    # gdelta_sup evaluates ps itself first and keeps only improvements, so sup_val >= plug_in already
    sup_val, _ = gdelta_sup(ps, delta, objective, search_budget=budget, seed=seed)
    return CouplingEstimate(log_M=max(sup_val, 0.0), plug_in=max(plug_in, 0.0))


def trajectory_distribution(trajs: list[TrajectoryProcess]):
    """Empirical law over distinct quantized trajectories plus the per-pair distortion.

    The distortion between two trajectories is the per-step absolute
    difference of the quantized states averaged over the window.
    """
    if not trajs:
        raise ValueError("trajectory_distribution needs at least one trajectory")
    keys = Counter(tr.key() for tr in trajs)
    alphabet = sorted(keys)
    counts = np.asarray([keys[k] for k in alphabet], dtype=float)
    probs = counts / counts.sum()
    step = trajs[0].quantizer.step
    arr = np.asarray(alphabet, dtype=float) * step
    rho = np.abs(arr[:, None, :] - arr[None, :, :]).mean(axis=2)
    return Pmf(probs), rho, alphabet


@dataclass(frozen=True)
class SweepRow:
    lr: float
    mean_gen: float
    rd_nats: float
    flag: str  # "ok" or "diverged"


@dataclass(frozen=True)
class SweepResult:
    rows: list
    spearman_rho: float  # nan when undefined

    def to_csv_rows(self):
        return [(r.lr, r.mean_gen, r.rd_nats, r.flag) for r in self.rows]


def lr_sweep(model: ToyModel, lr_grid, trials: int, n: int = 24, steps: int = 120,
             epsilon: float | None = None, seed: int = 0, bins: int = 8) -> SweepResult:
    """Learning-rate sweep: mean windowed gen error vs trajectory compressibility.

    Per learning rate: `trials` independent (dataset, trajectory) draws with
    per-trial derived seeds, exact windowed generalization errors, and the
    epsilon-constrained rate-distortion of the empirical trajectory law
    (epsilon defaults to 10% of the observed distortion range). Diverged
    rates are flagged and excluded from the rank correlation.
    Trial t at rate index li draws its dataset from stream (seed, li, t, 0), a
    child seed from (seed, li, t, 313) and its SGD picks from (child, 17),
    each family keyed in one pass by `seeding.streams`. A trial runs
    `simulate_trajectory`'s recurrence, whose window is range-checked and
    quantized as one array after the last step; its gen error comes from
    one risk table over the bins + 1 quantizer cells, built once per sweep.
    Each rate is a pure function of the sweep's inputs and (li, lr)
    (`_sweep_rate`), so from `_CONCURRENT_STEPS` SGD steps in all (trials x
    steps x rates) the rates run in forked worker processes
    (`ratedistortion._map_units`) and give the rows a serial loop gives, to
    the bit.
    """
    lrs = [float(x) for x in lr_grid]
    if not lrs:
        raise ValueError("lr grid must be non-empty")
    if not all(math.isfinite(lr) for lr in lrs):
        raise ValueError("learning rates must be finite")
    trials, n, bins = _whole(trials, "trials", 1), _whole(n, "n", 1), _whole(bins, "bins", 2)
    if epsilon is not None and not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite (None picks 10% of the distortion range)")
    quant = model.default_quantizer(bins)
    shared = (model, trials, n, steps, epsilon, seed, quant, _risk_table(model, quant))
    rows = _map_units(_sweep_rate, shared, list(enumerate(lrs)), trials * steps * len(lrs) >= _CONCURRENT_STEPS)
    ok_gen, ok_rd = [r.mean_gen for r in rows if r.flag == "ok"], [r.rd_nats for r in rows if r.flag == "ok"]
    rho_val = _spearman(ok_gen, ok_rd) if len(set(ok_gen)) > 1 and len(set(ok_rd)) > 1 else math.nan
    return SweepResult(rows=rows, spearman_rho=rho_val)


def _sweep_rate(shared: tuple, rate: tuple[int, float]) -> SweepRow:
    """The row of learning rate lr at index li of `lr_sweep`, for rate = (li, lr)."""
    model, trials, n, steps, epsilon, seed, quant, risks = shared
    li, lr = rate
    datasets = [model._draw(gen, n) for gen in streams(seed, li, np.arange(trials), 0)]
    children = np.array([gen.integers(2**63) for gen in streams(seed, li, np.arange(trials), 313)], np.uint64)
    try:
        trajs = [_descend(model, s, lr, steps, gen, quant) for s, gen in zip(datasets, streams(children, 17))]
    except TrajectoryDivergence:
        return SweepRow(lr=lr, mean_gen=math.nan, rd_nats=math.nan, flag="diverged")
    gens = [_window_gen(risks, s, tr.state_indices) for s, tr in zip(datasets, trajs)]
    dist, rho, _ = trajectory_distribution(trajs)
    eps = 0.1 * float(rho.max()) if epsilon is None else epsilon  # rho >= 0, so a zero span gives 0.0
    sol = rd_curve(dist, rho, eps)
    return SweepRow(lr=lr, mean_gen=float(np.mean(gens)), rd_nats=sol.rate_nats, flag="ok")


def _average_ranks(x) -> np.ndarray:
    """Ranks 1..n of the entries of x, tied entries sharing their mean rank."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])  # tie-group starts, then n
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((first[:-1] + first[1:] + 1) / 2.0, np.diff(first))
    return ranks


def _spearman(x, y) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks of x and y.

    Both need at least two distinct values; the caller checks that. The
    steps are scipy.stats.spearmanr's (np.corrcoef of the rank columns).
    """
    ranks = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])
