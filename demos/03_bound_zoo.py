"""
The bound zoo on one exactly solvable Gibbs instance
====================================================

A 2-symbol / 3-hypothesis problem with a Gibbs learner is small enough to
enumerate every dataset type (the symbol counts of n samples, all that the
exchangeable Gibbs learner sees), so each bound's inputs (rates, mutual
informations, log-MGFs) are exact finite sums. The in-expectation bound is
compared against the exactly computed expected generalization error.
"""

import math

import numpy as np

from genbounds import (
    FiniteLearningProblem,
    GibbsAlgorithm,
    Pmf,
    fixed_size_bound,
    induced_joint,
    mutual_information,
    pac_bayes_eq22,
    rd_tail_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    thm5_expectation_bound,
    toy_example_bound,
)
from genbounds.bounds import log_mgf
from genbounds.learning import gen_table

prob = FiniteLearningProblem(
    loss=np.array([[0.05, 0.6, 0.9], [0.8, 0.3, 0.1]]),
    mu=Pmf(np.array([0.45, 0.55])),
    bound=1.0,
)
alg = GibbsAlgorithm(prior=Pmf.uniform(3), beta=1.2)
n, delta = 3, 0.1
joint, types = induced_joint(prob, alg, n)
gt = gen_table(prob, types)
P = np.asarray(joint)
i_sw = mutual_information(P)
sigma = prob.sigma
print(f"exact joint over {len(types)} types x 3 hypotheses, I(S;W) = {i_sw:.4f} nats")

# Tail bounds with explicit rates (here: the mutual information).
print(f"variable-size tail bound : {thm1_bound(i_sw, sigma, n, delta).bound_value:.4f}")
print(f"fixed-size tail bound    : {fixed_size_bound(i_sw, sigma, n, delta).bound_value:.4f}")

# The rate-distortion tail bound searches the KL ball around the same joint.
rd_rep = rd_tail_bound(joint, gt, sigma, n, delta, epsilon=0.01, search_budget=300, seed=0)
print(
    f"rate-distortion bound    : {rd_rep.bound_value:.4f} "
    f"(sup-RD {rd_rep.extra['sup_rd']:.4f}, baseline {rd_rep.extra['baseline_rd']:.4f})"
)

# Fast-rate flavor: the empirical risk throttles the sqrt term.
print(f"fast-rate bound          : {seeger_fast_rate_bound(0.1, i_sw, sigma, n, delta).bound_value:.4f}")

# A disintegrated PAC-Bayes bound at one realized dataset.
s = [0, 1, 0]
pi = np.asarray(alg.posterior(prob, s))
q_rows = np.tile(np.asarray(alg.prior), (len(types), 1))
mgf = log_mgf(P.sum(axis=1), q_rows, gt)
print(f"PAC-Bayes bound at S=s   : {pac_bayes_eq22(pi, np.asarray(alg.prior), mgf, delta).bound_value:.4f}")

# The in-expectation bound must dominate the exact E[gen].
rep = thm5_expectation_bound(
    "i", P, P / P.sum(axis=1, keepdims=True), P.sum(axis=0), gt, gt, lam=None
)
print(
    f"in-expectation bound     : {rep.bound_value:.4f} "
    f">= exact E[gen] = {rep.extra['true_e_f']:.6f}"
)

# The mean-estimator example that defeats a prior-only analysis.
print(f"mean-quantizer bound     : {toy_example_bound(0.5, 1.0, 2, 1.0, 100, delta).bound_value:.4f}")
