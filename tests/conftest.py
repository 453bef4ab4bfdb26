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

from genbounds.learning import Algorithm, _type_counts

# one profile for every property test: the same examples on every run, no
# example database carried between runs, and no per-example deadline
settings.register_profile("genbounds", derandomize=True, database=None, deadline=None)
settings.load_profile("genbounds")


class ConstantAlgorithm(Algorithm):
    """A test learner that ignores the data: every posterior row is the pmf `output`."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=float)

    def posteriors(self, prob, counts):
        return np.tile(self.output, (len(_type_counts(counts, prob.z_alphabet_size)), 1))


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
