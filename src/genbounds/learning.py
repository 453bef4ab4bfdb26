"""Finite learning problems with exactly computable risks.

A problem is a finite data alphabet, a finite hypothesis alphabet, a loss
table and a data law mu. Everything downstream (generalization errors,
induced joints, bound inputs) is computed by exact finite sums; datasets are
enumerated exhaustively whenever the state space fits under a cap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
import numpy as np

from .info import Joint, Pmf, _probs
from .seeding import rng as _rng

__all__ = [
    "FiniteLearningProblem",
    "Dataset",
    "Algorithm",
    "GibbsAlgorithm",
    "ConstantAlgorithm",
    "population_risk",
    "population_risks",
    "empirical_risk",
    "empirical_risks",
    "gen_error",
    "gen_errors",
    "gibbs_posterior",
    "sample_dataset",
    "enumerate_datasets",
    "enumerate_types",
    "induced_joint",
    "EnumerationCapError",
]

ENUMERATION_CAP = 2**22


class EnumerationCapError(RuntimeError):
    """Raised when exact dataset enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class FiniteLearningProblem:
    """Loss table ell(z, w) (rows: data symbols), data law mu, optional bound B."""

    loss: np.ndarray
    mu: Pmf
    bound: float | None = None

    def __post_init__(self):
        loss = np.array(self.loss, dtype=float, copy=True)
        if loss.ndim != 2 or loss.size == 0:
            raise ValueError("loss must be a non-empty (z, w) matrix")
        if not (loss >= 0).all() or not np.isfinite(loss).all():
            raise ValueError("loss entries must be finite and non-negative")
        mu = self.mu if isinstance(self.mu, Pmf) else Pmf(np.asarray(self.mu, dtype=float))
        if mu.alphabet_size != loss.shape[0]:
            raise ValueError("mu size must match the loss row count")
        if self.bound is not None and not math.isfinite(self.bound):
            raise ValueError("the declared bound B must be finite")
        if self.bound is not None and np.any(loss > self.bound + 1e-12):
            raise ValueError("loss exceeds the declared bound B")
        loss.setflags(write=False)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "mu", mu)

    @property
    def z_alphabet_size(self) -> int:
        return self.loss.shape[0]

    @property
    def w_alphabet_size(self) -> int:
        return self.loss.shape[1]

    @property
    def sigma(self) -> float:
        """Subgaussianity parameter B/2 for a loss bounded in [0, B]."""
        b = self.bound if self.bound is not None else float(self.loss.max())
        return b / 2.0


@dataclass(frozen=True)
class Dataset:
    """Length-n vector of data-symbol indices."""

    samples: np.ndarray

    def __post_init__(self):
        s = _indices(self.samples)
        if s.ndim != 1:
            raise ValueError("a dataset is a 1-D vector of sample indices")
        if np.any(s < 0):
            raise ValueError("negative sample index")
        s = np.array(s, copy=True)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size


def _whole(value, name: str, least: int = 0) -> int:
    """`value` as an int of at least `least`; ValueError otherwise, and for a bool or a float, even a whole one."""
    try:
        whole = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
    if whole < least:
        raise ValueError(f"{name} must be at least {least}, got {whole}")
    return whole


def _indices(x) -> np.ndarray:
    """`x` as an int array of sample indices; ValueError if it is empty or holds a non-whole number."""
    a = np.asarray(x)
    if a.size == 0:
        raise ValueError("a dataset needs at least one sample")
    if a.dtype.kind not in "biu" and not (a.dtype.kind == "f" and np.isfinite(a).all() and (a == np.floor(a)).all()):
        raise ValueError("sample indices must be whole numbers")
    return a.astype(int, copy=False)


def _type_counts(counts) -> np.ndarray:
    """`counts` as an (N, z) float table of dataset types, the type-table twin of `_indices`:
    ValueError unless its entries are whole and non-negative and its rows share one positive sum n."""
    c = np.asarray(counts)
    if c.ndim != 2 or c.size == 0:
        raise ValueError(f"expected a non-empty (N, z) table of symbol counts, got shape {c.shape}")
    if c.dtype.kind not in "iu" and not (c.dtype.kind == "f" and np.isfinite(c).all() and (c == np.floor(c)).all()):
        raise ValueError("symbol counts must be whole numbers")
    n = np.einsum("ij->i", c)  # 4x faster than sum(axis=1) on the thm5 kinds' 5456 x 4 types
    if not (c.min() >= 0 and n[0] > 0 and (n == n[0]).all()):
        raise ValueError("symbol counts must be non-negative, and every row must have the same positive sum n")
    return c.astype(float)


def _dataset_counts(prob: FiniteLearningProblem, s) -> np.ndarray:
    """(1, z) float symbol counts of the dataset s, the one-row table the row kernels take."""
    samples = s.samples if isinstance(s, Dataset) else s
    return _symbol_counts(np.asarray(samples)[None], prob.z_alphabet_size).astype(float)


def _check_w(prob: FiniteLearningProblem, w: int) -> None:
    if not 0 <= w < prob.w_alphabet_size:
        raise ValueError(f"hypothesis index {w} out of range")


def population_risks(prob: FiniteLearningProblem) -> np.ndarray:
    """Vector of population risks, one per hypothesis."""
    return np.asarray(prob.mu) @ prob.loss


def population_risk(prob: FiniteLearningProblem, w: int) -> float:
    _check_w(prob, w)
    return float(np.asarray(prob.mu) @ prob.loss[:, w])


def _empirical_rows(prob: FiniteLearningProblem, counts: np.ndarray) -> np.ndarray:
    """(N, W) empirical risks of an (N, z) count table whose rows share one sum n."""
    return counts @ prob.loss / counts[0].sum()


def _gen_rows(prob: FiniteLearningProblem, counts: np.ndarray) -> np.ndarray:
    """(N, W) generalization errors (population minus empirical) of an (N, z) count table."""
    return population_risks(prob)[None] - _empirical_rows(prob, counts)


def empirical_risks(prob: FiniteLearningProblem, s) -> np.ndarray:
    """Vector of empirical risks on dataset s, one per hypothesis."""
    return _empirical_rows(prob, _dataset_counts(prob, s))[0]


def empirical_risk(prob: FiniteLearningProblem, s, w: int) -> float:
    _check_w(prob, w)
    return float(empirical_risks(prob, s)[w])


def gen_errors(prob: FiniteLearningProblem, s) -> np.ndarray:
    """Vector of generalization errors (population minus empirical) on s."""
    return _gen_rows(prob, _dataset_counts(prob, s))[0]


def gen_error(prob: FiniteLearningProblem, s, w: int) -> float:
    _check_w(prob, w)
    return float(gen_errors(prob, s)[w])


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be finite and non-negative")
    return beta


def _gibbs_rows(prob: FiniteLearningProblem, prior, beta: float, counts: np.ndarray) -> np.ndarray:
    """prior(w) * exp(-beta * (counts @ loss)[w]), normalised along axis=-1.

    (counts @ loss)[w] = n * emp_risk(s, w) for every dataset s with those counts.
    """
    pr = np.asarray(prior, dtype=float)
    logits = np.where(pr > 0, np.log(np.clip(pr, 1e-300, None)), -np.inf) - beta * (counts @ prob.loss)
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def gibbs_posterior(prob: FiniteLearningProblem, prior, beta: float, s) -> Pmf:
    """Posterior(w) proportional to prior(w) * exp(-beta * n * emp_risk(s, w)).

    A prior that is not a `Pmf` must be a pmf (`info._probs`).
    """
    beta = _check_beta(beta)
    pr = prior.probs if isinstance(prior, Pmf) else _probs(prior, 1)
    return Pmf(_gibbs_rows(prob, pr, beta, _dataset_counts(prob, s)[0]))


class Algorithm:
    """A (possibly stochastic) learner: maps a dataset to a pmf over hypotheses."""

    def posterior(self, prob: FiniteLearningProblem, s) -> Pmf:
        raise NotImplementedError

    def posteriors(self, prob: FiniteLearningProblem, counts: np.ndarray) -> np.ndarray:
        """(N, W) posteriors, one row per symbol-count vector in the (N, z) `counts`.

        Valid for exchangeable algorithms only (every built-in one is); this
        fallback runs `posterior` once per row.
        """
        symbols = np.arange(prob.z_alphabet_size)
        return np.stack([np.asarray(self.posterior(prob, np.repeat(symbols, c))) for c in counts])

    def posterior_from_counts(self, prob: FiniteLearningProblem, counts: np.ndarray, n: int) -> Pmf:
        """Posterior for any dataset with the given symbol counts (n = counts.sum())."""
        return Pmf(self.posteriors(prob, np.asarray(counts)[None])[0])


class GibbsAlgorithm(Algorithm):
    def __init__(self, prior, beta: float):
        self.prior = prior if isinstance(prior, Pmf) else Pmf(np.asarray(prior, dtype=float))
        self.beta = _check_beta(beta)

    def posterior(self, prob, s) -> Pmf:
        return gibbs_posterior(prob, self.prior, self.beta, s)

    def posteriors(self, prob, counts) -> np.ndarray:
        return _gibbs_rows(prob, self.prior, self.beta, _type_counts(counts))


class ConstantAlgorithm(Algorithm):
    """Ignores the data entirely; always outputs the same pmf."""

    def __init__(self, output):
        self.output = output if isinstance(output, Pmf) else Pmf(np.asarray(output, dtype=float))

    def posterior(self, prob, s) -> Pmf:
        return self.output

    def posteriors(self, prob, counts) -> np.ndarray:
        return np.tile(np.asarray(self.output), (len(counts), 1))


def sample_dataset(prob: FiniteLearningProblem, n: int, seed: int, *path: int) -> Dataset:
    """n iid draws from mu; deterministic given (seed, path)."""
    n = _whole(n, "n", 1)
    gen = _rng(seed, *path)
    idx = gen.choice(prob.z_alphabet_size, size=n, p=np.asarray(prob.mu))
    return Dataset(idx)


def enumerate_datasets(z_size: int, n: int) -> np.ndarray:
    """All z_size^n datasets as an (N, n) index array, subject to ENUMERATION_CAP."""
    z_size, n = _whole(z_size, "z_size", 1), _whole(n, "n")
    total = z_size**n
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(f"{z_size}^{n} = {total} datasets exceeds the cap {ENUMERATION_CAP}")
    return np.ascontiguousarray(np.indices((z_size,) * n).reshape(n, total).T)


def _symbol_counts(rows, z: int) -> np.ndarray:
    """(N, z) symbol counts of the (N, n) index array `rows`, by one bincount (offset per row)."""
    rows = _indices(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected an (N, n) array of symbol indices, got shape {rows.shape}")
    # row i counts into bins [i z, i z + z), so an index outside [0, z) would land in another row;
    # a lone row needs no lower check, as bincount rejects a negative index
    if not (rows.max() < z and (len(rows) == 1 or rows.min() >= 0)):
        raise ValueError(f"symbol index out of range for {z} symbols")
    flat = rows[0] if len(rows) == 1 else (rows + z * np.arange(len(rows))[:, None]).ravel()
    return np.bincount(flat, minlength=len(rows) * z).reshape(-1, z)


def enumerate_types(z_size: int, n: int) -> np.ndarray:
    """All empirical-type count vectors (N, z_size) with entries summing to n (one zero row at n = 0).

    Every type-indexed table (such as covering's `rates`) relies on the row order of
    `itertools.combinations_with_replacement(range(z_size), n)`: the count of symbol 0 descending,
    then that of symbol 1, and so on. Built one symbol at a time, in O(N z) time and memory for n >= z.
    """
    z_size, n = _whole(z_size, "z_size", 1), _whole(n, "n")
    rows = np.full((1, 1), n)
    for _ in range(z_size - 1):
        # a row with r left of n becomes r + 1 rows: its last column counts r down to 0, a new one holds the rest
        sizes = rows[:, -1] + 1
        rest = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rows = np.repeat(rows, sizes, axis=0)
        rows = np.column_stack([rows[:, :-1], rows[:, -1] - rest, rest])
    return rows


def induced_joint(
    prob: FiniteLearningProblem,
    alg: Algorithm,
    n: int,
    by_type: bool = False,
):
    """Exact joint P_{S,W} induced by the algorithm on n-sample datasets.

    Returns (Joint, contexts). In dataset mode contexts is the (N, n) array of
    enumerated datasets; in type mode it is the (N, z) array of count vectors
    (exact for exchangeable algorithms, with rows weighted by the multinomial
    law of the type).
    """
    n = _whole(n, "n", 1)
    log_mu = np.where(np.asarray(prob.mu) > 0, np.log(np.clip(np.asarray(prob.mu), 1e-300, None)), -np.inf)
    if by_type:
        # compositions of n into z parts, counted before any is built
        n_types = math.comb(n + prob.z_alphabet_size - 1, prob.z_alphabet_size - 1)
        if n_types > ENUMERATION_CAP:
            raise EnumerationCapError(f"{n_types} types exceed the cap {ENUMERATION_CAP}")
        contexts = enumerate_types(prob.z_alphabet_size, n)
        log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
        mass = (contexts * np.where(contexts > 0, log_mu, 0.0)).sum(axis=1)
        # math.exp, not np.exp: numpy's vectorised exp differs from libm in the last ulp
        # on some weights, which would move output bytes
        weights = np.array([math.exp(x) for x in log_fact[n] - log_fact[contexts].sum(axis=1) + mass])
        rows = alg.posteriors(prob, contexts)
    else:
        contexts = enumerate_datasets(prob.z_alphabet_size, n)
        weights = np.exp(log_mu[contexts].sum(axis=1))
        rows = np.stack([np.asarray(alg.posterior(prob, row)) for row in contexts])
    table = weights[:, None] * rows
    total = table.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise RuntimeError(f"induced joint mass {total} drifted from 1")
    return Joint(table / total), contexts


def gen_table(prob: FiniteLearningProblem, contexts: np.ndarray, by_type: bool = False) -> np.ndarray:
    """gen(s, w) for every enumerated dataset (or type) and hypothesis."""
    # one product over the whole counts matrix: computing it in other batches moves last bits
    counts = _type_counts(contexts) if by_type else _symbol_counts(contexts, prob.z_alphabet_size).astype(float)
    return _gen_rows(prob, counts)
