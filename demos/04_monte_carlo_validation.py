"""
Monte Carlo validation of a tail guarantee
==========================================

The tail bound promises gen(S, W) <= Delta(S, W) with probability 1 - delta.
We draw (dataset, hypothesis) pairs from the real sampling process, compute
the exact generalization error each time, and count violations against a
3-sigma binomial buffer around delta.
"""

import math

import numpy as np

from genbounds import (
    FiniteLearningProblem,
    GibbsAlgorithm,
    Pmf,
    mc_expectation_validate,
    mc_tail_validate,
    thm1_bound,
)
from genbounds.seeding import rng

gen = rng(301)
loss = gen.uniform(0.0, 1.0, size=(4, 4))
np.fill_diagonal(loss, 0.0)
prob = FiniteLearningProblem(loss=loss, mu=Pmf(gen.dirichlet(np.ones(4))), bound=1.0)
alg = GibbsAlgorithm(prior=Pmf.uniform(4), beta=1.0)
prior = np.asarray(alg.prior)
n, delta, trials = 25, 0.1, 10_000


def bound_fn(s, w, post):
    # pair-dependent rate: the clipped posterior/prior log-ratio. It depends on the
    # dataset s only through its type, as mc_tail_validate requires: the validator
    # calls it once per drawn (type, w) cell, not once per trial
    rate = max(0.0, math.log(post[w] / prior[w]))
    return thm1_bound(rate, prob.sigma, n, delta, 0.0).bound_value


report = mc_tail_validate(prob, alg, bound_fn, n, delta, trials, seed=302)
print(f"trials          : {report.trials}")
print(f"violations      : {report.violations}")
print(f"violation rate  : {report.violation_rate:.4f}")
print(f"allowed (3-sig) : {delta + 3 * report.binomial_se:.4f}")
print(f"verdict         : {'pass' if report.passed else 'FAIL'}")

# The same machinery checks in-expectation bounds against the MC mean.
mean, ci, ok = mc_expectation_validate(prob, alg, bound_value=0.25, n=n, trials=4000, seed=5)
print(f"\nMC mean gen     : {mean:.5f} +- {ci:.5f}")
print(f"0.25 dominates  : {ok}")
