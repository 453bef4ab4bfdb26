"""Finite learning problems with exactly computable risks.

A problem is a finite data alphabet, a finite hypothesis alphabet, a loss
table and a data law mu. Everything downstream (generalization errors,
induced joints, bound inputs) is computed by exact finite sums. A dataset
enters only through its type, the count of each data symbol in it: the types
of n samples are enumerated exhaustively whenever they fit under a cap.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
import numpy as np

from .info import Joint, Pmf, _row_sums
from .seeding import rng as _rng

__all__ = [
    "FiniteLearningProblem",
    "Dataset",
    "Algorithm",
    "GibbsAlgorithm",
    "population_risks",
    "gen_errors",
    "sample_dataset",
    "enumerate_types",
    "induced_joint",
    "EnumerationCapError",
]

ENUMERATION_CAP = 2**22


class EnumerationCapError(ValueError):
    """Raised when exact type enumeration would exceed the configured cap."""


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


def _type_counts(counts, z: int) -> np.ndarray:
    """`counts` as an (N, z) float table of dataset types, the type-table twin of `_indices`: ValueError
    unless it has z columns, its entries are whole and non-negative and its rows share one positive sum n."""
    c = np.asarray(counts)
    if c.ndim != 2 or c.size == 0:
        raise ValueError(f"expected a non-empty (N, z) table of symbol counts, got shape {c.shape}")
    if c.dtype.kind not in "iu" and not (c.dtype.kind == "f" and np.isfinite(c).all() and (c == np.floor(c)).all()):
        raise ValueError("symbol counts must be whole numbers")
    n = _row_sums(c)  # exact for whole numbers, whatever the order
    if not (c.min() >= 0 and n[0] > 0 and (n == n[0]).all()):
        raise ValueError("symbol counts must be non-negative, and every row must have the same positive sum n")
    if c.shape[1] != z:
        raise ValueError(f"expected {z} symbol counts per row, one per data symbol, got {c.shape[1]}")
    return c.astype(float)


def _dataset_counts(prob: FiniteLearningProblem, s) -> np.ndarray:
    """(1, z) int symbol counts of the dataset s, the one-row table `Algorithm.posteriors` takes."""
    samples = s.samples if isinstance(s, Dataset) else s
    return _symbol_counts(np.asarray(samples)[None], prob.z_alphabet_size)


def population_risks(prob: FiniteLearningProblem) -> np.ndarray:
    """Vector of population risks, one per hypothesis."""
    return np.asarray(prob.mu) @ prob.loss


def _gen_rows(prob: FiniteLearningProblem, counts: np.ndarray) -> np.ndarray:
    """(N, W) generalization errors (population minus empirical risk) of an (N, z) count table of one row sum n."""
    return population_risks(prob)[None] - counts @ prob.loss / counts[0].sum()


def gen_errors(prob: FiniteLearningProblem, s) -> np.ndarray:
    """Vector of generalization errors (population minus empirical) on s."""
    return _gen_rows(prob, _dataset_counts(prob, s))[0]


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be finite and non-negative")
    return beta


class Algorithm:
    """A (possibly stochastic) learner: maps a dataset to a pmf over hypotheses.

    A learner implements one kernel, `posteriors(prob, counts)`, and must be
    exchangeable: its posterior sees a dataset only through its symbol counts.
    `posterior` and `posterior_from_counts` each run that kernel on a one-row table.
    """

    def posteriors(self, prob: FiniteLearningProblem, counts: np.ndarray) -> np.ndarray:
        """(N, W) posteriors, one row per symbol-count vector in the (N, z) `counts`."""
        raise NotImplementedError

    def posterior(self, prob: FiniteLearningProblem, s) -> Pmf:
        """Posterior for the dataset s."""
        return Pmf(self.posteriors(prob, _dataset_counts(prob, s))[0])

    def posterior_from_counts(self, prob: FiniteLearningProblem, counts: np.ndarray) -> Pmf:
        """Posterior for any dataset with the given symbol counts."""
        return Pmf(self.posteriors(prob, np.asarray(counts)[None])[0])


class GibbsAlgorithm(Algorithm):
    """Posterior(w) proportional to prior(w) * exp(-beta * n * emp_risk(s, w)).

    A prior that is not a `Pmf` must be a pmf (`info._probs`), with one entry per hypothesis.
    """

    def __init__(self, prior, beta: float):
        self.prior = prior if isinstance(prior, Pmf) else Pmf(np.asarray(prior, dtype=float))
        self.beta = _check_beta(beta)
        # taken once, not per call: it was about a fifth of the cost of a one-row posterior
        pr = self.prior.probs
        self._log_prior = np.where(pr > 0, np.log(np.clip(pr, 1e-300, None)), -np.inf)

    def posteriors(self, prob, counts) -> np.ndarray:
        if self._log_prior.size != prob.w_alphabet_size:
            k, w = self._log_prior.size, prob.w_alphabet_size
            raise ValueError(f"the prior has {k} entries, but the problem has {w} hypotheses")
        # (counts @ loss)[w] = n * emp_risk(s, w) for every dataset s with those counts
        prod = _type_counts(counts, prob.z_alphabet_size) @ prob.loss
        # the rest runs on one length-N column per hypothesis, not on N rows of length W, and ends in a row-major
        # table: elementwise steps, a max (exact in any order) and `_row_sums`' adds give the row-major bits
        cols = self._log_prior[:, None] - self.beta * np.ascontiguousarray(prod.T)
        cols -= functools.reduce(np.maximum, cols)
        np.exp(cols, out=cols)
        return np.divide(cols, _row_sums(cols.T), out=np.empty(prod.shape).T).T


def sample_dataset(prob: FiniteLearningProblem, n: int, seed: int, *path: int) -> Dataset:
    """n iid draws from mu; deterministic given (seed, path)."""
    n = _whole(n, "n", 1)
    gen = _rng(seed, *path)
    idx = gen.choice(prob.z_alphabet_size, size=n, p=np.asarray(prob.mu))
    return Dataset(idx)


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


def _posterior_rows(prob: FiniteLearningProblem, alg: Algorithm, types: np.ndarray) -> np.ndarray:
    """alg's (N, W) posteriors of the (N, z) type table; ValueError unless it returns one row per type and one column
    per hypothesis. A one-row table may differ in the last bit from its type's row in a larger one (BLAS gemv)."""
    rows = np.asarray(alg.posteriors(prob, types))
    if rows.shape != (len(types), prob.w_alphabet_size):
        raise ValueError(f"expected {len(types)} posteriors over {prob.w_alphabet_size} hypotheses, got {rows.shape}")
    return rows


class _Induced(tuple):
    """`induced_joint`'s (Joint, types); `.posteriors` holds the (N, W) posterior rows that the joint was built from."""


def induced_joint(prob: FiniteLearningProblem, alg: Algorithm, n: int):
    """Exact joint P_{T,W} of the type T of n iid samples from mu and the learner's output W.

    Returns (Joint, types): `types` is the (N, z) table of `enumerate_types`, and
    row t of the joint is type t's multinomial probability times alg's posterior
    for it. It equals the dataset-level joint summed over the datasets of each
    type, since an `Algorithm` is exchangeable. The result keeps alg's posterior
    rows as `.posteriors`, so that no caller runs the kernel again.
    """
    n = _whole(n, "n", 1)
    # compositions of n into z parts, counted before any is built
    n_types = math.comb(n + prob.z_alphabet_size - 1, prob.z_alphabet_size - 1)
    if n_types > ENUMERATION_CAP:
        raise EnumerationCapError(f"{n_types} types exceed the cap {ENUMERATION_CAP}")
    types = enumerate_types(prob.z_alphabet_size, n)
    cols = np.ascontiguousarray(types.T)  # one count column per data symbol, for `_row_sums`' column adds
    log_mu = np.where(np.asarray(prob.mu) > 0, np.log(np.clip(np.asarray(prob.mu), 1e-300, None)), -np.inf)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    mass = _row_sums((cols * np.where(cols > 0, log_mu[:, None], 0.0)).T)
    # math.exp, not np.exp: numpy's vectorised exp differs from libm in the last ulp
    # on some weights, which would move output bytes; it maps over Python floats faster than over numpy scalars
    log_weights = log_fact[n] - _row_sums(log_fact[cols].T) + mass
    weights = np.fromiter(map(math.exp, log_weights.tolist()), float, n_types)
    posteriors = _posterior_rows(prob, alg, types)
    table = weights[:, None] * posteriors
    total = table.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise RuntimeError(f"induced joint mass {total} drifted from 1")
    out = _Induced((Joint(table / total), types))
    out.posteriors = posteriors
    return out


def gen_table(prob: FiniteLearningProblem, types: np.ndarray) -> np.ndarray:
    """gen(s, w) for every type (row of symbol counts) and hypothesis."""
    # one product over the whole counts matrix: computing it in other batches moves last bits
    return _gen_rows(prob, _type_counts(types, prob.z_alphabet_size))
