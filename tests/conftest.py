import functools
import math
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# allow running the suite from a fresh checkout without installing
try:
    import genbounds  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from genbounds.info import Pmf, _probs
from genbounds.learning import Algorithm, FiniteLearningProblem, _type_counts, enumerate_types

# one profile for every property test: the same examples on every run, no
# example database carried between runs, and no per-example deadline
settings.register_profile("genbounds", derandomize=True, database=None, deadline=None)
settings.load_profile("genbounds")


def entropy(p) -> float:
    """Shannon entropy in nats, 0 log 0 = 0: the oracle that bounds a rate or a mutual information by H(p)."""
    v = _probs(np.asarray(p, dtype=float).reshape(-1), 1)
    pos = v[v > 0]
    return float(-(pos * np.log(pos)).sum())


class ConstantAlgorithm(Algorithm):
    """A test learner that ignores the data: every posterior row is the pmf `output`."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=float)

    def posteriors(self, prob, counts):
        return np.tile(self.output, (len(_type_counts(counts, prob.z_alphabet_size)), 1))


def bank_problem(k: int) -> FiniteLearningProblem:
    """The benchmark's bank problem k (`bench/cases.py`): a 4 x 4 loss in [0, 1], zero diagonal, Dirichlet(1) mu."""
    gen = np.random.default_rng([230305369, k])
    loss = gen.uniform(0.0, 1.0, size=(4, 4))
    np.fill_diagonal(loss, 0.0)
    return FiniteLearningProblem(loss=loss, mu=Pmf(gen.dirichlet(np.ones(4))), bound=1.0)


def rowmajor_posteriors(alg, prob, counts) -> np.ndarray:
    """The Gibbs kernel on one row per type, with numpy's own row reductions: the oracle that
    `GibbsAlgorithm.posteriors`, which works per hypothesis column, must match bit for bit."""
    logits = alg._log_prior - alg.beta * (_type_counts(counts, prob.z_alphabet_size) @ prob.loss)
    logits -= functools.reduce(np.maximum, logits.T)[:, None]
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


def rowmajor_induced_joint(prob, alg, n):
    """(table, row marginal, column marginal, posteriors) of the type-level joint, built row by row with
    numpy's own reductions: the oracle that `learning.induced_joint` and its `Joint` must match bit for bit."""
    types = enumerate_types(prob.z_alphabet_size, n)
    mu = np.asarray(prob.mu)
    log_mu = np.where(mu > 0, np.log(np.clip(mu, 1e-300, None)), -np.inf)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    mass = (types * np.where(types > 0, log_mu, 0.0)).sum(axis=1)
    log_weights = log_fact[n] - log_fact[types].sum(axis=1) + mass
    weights = np.fromiter(map(math.exp, log_weights.tolist()), float, len(types))
    posts = rowmajor_posteriors(alg, prob, types)
    table = weights[:, None] * posts
    table = np.maximum(table / table.sum(), 0.0)
    return table, table.sum(axis=1), table.sum(axis=0), posts


@pytest.fixture
def helper_points(monkeypatch):
    """The points that `info.gdelta_sup` sends its forked helper, which it starts as on two CPUs."""
    from genbounds import info

    sent = []

    class Spy(info._Helper):
        def send(self, points):
            sent.extend(np.array(x) for x in points)
            super().send(points)

    monkeypatch.setattr(info, "_Helper", Spy)
    monkeypatch.setattr(info, "_cpus", lambda: 2)
    return sent


@pytest.fixture
def dataset_joint():
    """The dataset-level joint, the oracle for `learning.induced_joint`'s type-level one.

    `dataset_joint(prob, alg, n)` returns (Joint, datasets): all z^n datasets in
    `itertools.product` order, row s being mu^n(s) times alg's posterior for s.
    """
    import itertools

    from genbounds.info import Joint

    def build(prob, alg, n):
        mu = np.asarray(prob.mu)
        log_mu = np.where(mu > 0, np.log(np.clip(mu, 1e-300, None)), -np.inf)
        datasets = np.array(list(itertools.product(range(prob.z_alphabet_size), repeat=n)))
        weights = np.exp(log_mu[datasets].sum(axis=1))
        table = weights[:, None] * np.stack([np.asarray(alg.posterior(prob, s)) for s in datasets])
        return Joint(table / table.sum()), datasets

    return build
