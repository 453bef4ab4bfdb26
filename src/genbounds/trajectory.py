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
from .ratedistortion import rd_curve
from .seeding import rng as _rng

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

    def index(self, w: float, step_no: int) -> int:
        half = 0.5 * self.step
        if not self.lo - half <= w <= self.hi + half:  # written so that a NaN iterate fails it
            raise TrajectoryDivergence(f"iterate {w} left the grid range at step {step_no}")
        return min(max(round((w - self.lo) / self.step), 0), self.bins)

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

    def gen_error(self, samples: np.ndarray, w) -> float:
        return self.population_risk(w) - self.empirical_risk(samples, w)

    def sample_dataset(self, n: int, seed: int, *path: int) -> np.ndarray:
        gen = _rng(seed, *path)
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


def simulate_trajectory(
    model: ToyModel,
    samples: np.ndarray,
    lr: float,
    steps: int,
    seed: int,
    quantizer: Quantizer | None = None,
    t1: int | None = None,
    t2: int | None = None,
    stochastic: bool = True,
    w0: float | None = None,
) -> TrajectoryProcess:
    """Run (stochastic) gradient descent and record the quantized window.

    The default window is the last half of training (t1 = steps // 2,
    t2 = steps); iterates outside the grid raise TrajectoryDivergence with
    the offending step. Deterministic given (seed, samples): the stochastic
    picks are drawn in one call from the (seed, 17) stream, which yields the
    same values as one scalar draw per step.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    quantizer = quantizer or model.default_quantizer()
    t1 = steps // 2 if t1 is None else t1
    t2 = steps if t2 is None else t2
    if not 0 <= t1 < t2 <= steps:
        raise ValueError("window must satisfy 0 <= t1 < t2 <= steps")
    samples = np.asarray(samples, dtype=int)
    gen = _rng(seed, 17)
    w = 0.5 * (quantizer.lo + quantizer.hi) if w0 is None else float(w0)
    zs = model.z_values[samples].tolist()
    picks = gen.integers(samples.size, size=steps).tolist() if stochastic else None
    raw = []
    idx = []
    for t in range(steps):
        if stochastic:
            g = model.grad(zs[picks[t]], w)
        else:
            g = float(np.mean([model.grad(z, w) for z in zs]))
        w = w - lr * g
        if t1 <= t < t2:
            idx.append(quantizer.index(w, t))
            raw.append(w)
    return TrajectoryProcess(
        t1=t1,
        t2=t2,
        state_indices=np.asarray(idx, dtype=int),
        quantizer=quantizer,
        raw_states=np.asarray(raw),
    )


def gen_trajectory(model: ToyModel, samples: np.ndarray, traj: TrajectoryProcess) -> float:
    """Windowed generalization error (1/Delta_t) sum_t gen(s, w_t), exact risks.

    The risks are evaluated once per distinct quantizer cell of the window
    and gathered back to the steps, so every per-step gap is the same float
    as a per-step evaluation.
    """
    cells, inverse = np.unique(traj.state_indices, return_inverse=True)
    gaps = np.array([model.gen_error(samples, traj.quantizer.value(c)) for c in cells.tolist()])
    return float(np.mean(gaps[inverse]))


def thm7_bound(rd_sup: float, delta: float, n: int, epsilon: float) -> BoundReport:
    """Trajectory tail bound sqrt((rd_sup + log(1/delta)) / (2n)) + eps for losses in [0,1]."""
    _check_domain(n, delta, rd_sup=rd_sup)
    params = {"n": n, "delta": delta, "epsilon": epsilon, "rd_sup": rd_sup}
    # eq4 at sigma = 1/2: 2 sigma^2 R / n rounds once, as R / (2n) does
    return _finish("thm7", _eq4_terms(rd_sup, 0.5, n, delta, epsilon), params)


def thm8_bound(
    rd_s: float,
    log_M: float,
    lipschitz_L: float,
    delta: float,
    n: int,
    epsilon: float,
) -> BoundReport:
    """Data-dependent trajectory bound sqrt((rd_s + log(sqrt(2n) M / delta))/(2n-1) + 4 L eps).

    When log_M comes from estimate_M it is a certified lower estimate of the
    coupling supremum, and the bound value inherits that caveat.
    """
    _check_domain(n, delta, rd_s=rd_s, log_M=log_M)
    rate = rd_s / (2 * n - 1)
    conf = (0.5 * math.log(2 * n) + log_M + math.log(1.0 / delta)) / (2 * n - 1)
    terms = {"rate_term": rate, "confidence_term": conf, "lipschitz_term": 4.0 * lipschitz_L * epsilon}
    params = {
        "n": n,
        "delta": delta,
        "epsilon": epsilon,
        "rd_s": rd_s,
        "log_M": log_M,
        "lipschitz_L": lipschitz_L,
    }
    return _finish("thm8", terms, params)


@dataclass(frozen=True)
class CouplingEstimate:
    """Lower estimate of log M = sup over the KL ball of I(S; W^T) under nu x pi."""

    log_M: float
    plug_in: float

    def __post_init__(self):
        if self.log_M < -1e-12:
            raise ValueError("log_M must be non-negative")


def estimate_M(pi_S, P_S, delta: float, budget: int = 800, seed: int = 0) -> CouplingEstimate:
    """Coupling coefficient of a dataset-conditional trajectory law.

    pi_S rows hold P(W^T = . | S = s) on the (finite, quantized) trajectory
    alphabet. log M is the supremum over nu in the KL ball of the mutual
    information of the channel with input nu; the plug-in value (nu = P_S)
    is reported alongside, and the sup is a certified lower estimate.
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


def lr_sweep(
    model: ToyModel,
    lr_grid,
    trials: int,
    n: int = 24,
    steps: int = 120,
    epsilon: float | None = None,
    seed: int = 0,
    bins: int = 8,
) -> SweepResult:
    """Learning-rate sweep: mean windowed gen error vs trajectory compressibility.

    Per learning rate: `trials` independent (dataset, trajectory) draws with
    per-trial derived seeds, exact windowed generalization errors, and the
    epsilon-constrained rate-distortion of the empirical trajectory law
    (epsilon defaults to 10% of the observed distortion range). Diverged
    rates are flagged and excluded from the rank correlation.
    """
    lrs = [float(x) for x in lr_grid]
    if not lrs:
        raise ValueError("lr grid must be non-empty")
    if not all(math.isfinite(lr) for lr in lrs):
        raise ValueError("learning rates must be finite")
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon is not None and not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite (None picks 10% of the distortion range)")
    quant = model.default_quantizer(bins)
    rows: list[SweepRow] = []
    for li, lr in enumerate(lrs):
        gens = []
        trajs = []
        diverged = False
        for t in range(trials):
            samples = model.sample_dataset(n, seed, li, t, 0)
            try:
                tr = simulate_trajectory(model, samples, lr, steps, seed=_child(seed, li, t), quantizer=quant)
            except TrajectoryDivergence:
                diverged = True
                break
            trajs.append(tr)
            gens.append(gen_trajectory(model, samples, tr))
        if diverged:
            rows.append(SweepRow(lr=lr, mean_gen=math.nan, rd_nats=math.nan, flag="diverged"))
            continue
        dist, rho, _ = trajectory_distribution(trajs)
        eps = epsilon
        if eps is None:
            span = float(rho.max())
            eps = 0.1 * span if span > 0 else 0.0
        sol = rd_curve(dist, rho, eps)
        rows.append(SweepRow(lr=lr, mean_gen=float(np.mean(gens)), rd_nats=sol.rate_nats, flag="ok"))
    ok = [(r.mean_gen, r.rd_nats) for r in rows if r.flag == "ok"]
    if len(ok) >= 2 and len({g for g, _ in ok}) > 1 and len({r for _, r in ok}) > 1:
        rho_val = _spearman([g for g, _ in ok], [r for _, r in ok])
    else:
        rho_val = math.nan
    return SweepResult(rows=rows, spearman_rho=rho_val)


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


def _child(seed: int, *path: int) -> int:
    return int(_rng(seed, *path, 313).integers(2**63))
