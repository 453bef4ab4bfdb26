import itertools
import math

import numpy as np
import pytest

from genbounds.info import Pmf, entropy, mutual_information
from genbounds.learning import FiniteLearningProblem, GibbsAlgorithm, gen_table, induced_joint
from genbounds.ratedistortion import (
    DistortionSpec,
    InfeasibleDistortion,
    blahut_arimoto,
    rd_curve,
    rd_dimension,
    rd_gen,
)
from genbounds.seeding import rng


def hamming(k):
    return 1.0 - np.eye(k)


def h_nats(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestBlahutArimoto:
    def test_bernoulli_hamming_analytic(self):
        # oracle: R(D) = ln 2 - h(D) for Bernoulli(1/2) with Hamming distortion
        for d in (0.05, 0.1, 0.25):
            sol = rd_curve([0.5, 0.5], DistortionSpec(hamming(2), d), d)
            assert sol.converged
            assert sol.rate_nats == pytest.approx(math.log(2) - h_nats(d), abs=1e-5)

    def test_high_distortion_zero_rate(self):
        sol = rd_curve([0.5, 0.5], DistortionSpec(hamming(2), 0.5), 0.5)
        assert sol.rate_nats == 0.0

    def test_lagrange_zero_unconstrained(self):
        sol = blahut_arimoto([0.5, 0.5], DistortionSpec(hamming(2), 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(0.0, abs=1e-12)
        rows = np.asarray(sol.channel)
        assert np.allclose(rows[0], rows[1], atol=1e-12)

    def test_lossless_three_symbols(self):
        sol = rd_curve(np.full(3, 1 / 3), DistortionSpec(hamming(3), 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(math.log(3), abs=1e-6)

    def test_infeasible_epsilon(self):
        with pytest.raises(InfeasibleDistortion):
            rd_curve([0.5, 0.5], DistortionSpec(hamming(2) + 0.2, 0.1), 0.1)

    def test_rate_below_entropy(self):
        gen = rng(60)
        for _ in range(10):
            p = gen.dirichlet(np.ones(4))
            d = gen.uniform(0, 1, size=(4, 4))
            np.fill_diagonal(d, 0.0)
            eps = float(gen.uniform(0.01, 0.3))
            sol = rd_curve(p, DistortionSpec(d, eps), eps)
            assert sol.rate_nats <= entropy(p) + 1e-8

    def test_curve_monotone_convex(self):
        p = np.array([0.2, 0.5, 0.3])
        d = hamming(3)
        eps = np.linspace(0.02, 0.5, 9)
        rates = [rd_curve(p, DistortionSpec(d, e), e).rate_nats for e in eps]
        assert all(b <= a + 1e-7 for a, b in zip(rates, rates[1:]))
        for i in range(1, len(eps) - 1):
            mid = 0.5 * (rates[i - 1] + rates[i + 1])
            assert rates[i] <= mid + 1e-6  # convexity (equispaced grid)

    def test_achieved_distortion_within_target(self):
        sol = rd_curve([0.3, 0.7], DistortionSpec(hamming(2), 0.12), 0.12)
        assert sol.achieved_distortion <= 0.12 + 1e-9


class TestRdGen:
    @staticmethod
    def instance(beta=1.2, n=3, seed=61):
        gen = rng(seed)
        prob = FiniteLearningProblem(
            loss=gen.uniform(0, 1, size=(2, 3)), mu=Pmf(gen.dirichlet(np.ones(2))), bound=1.0
        )
        alg = GibbsAlgorithm(prior=Pmf.uniform(3), beta=beta)
        joint, ctx = induced_joint(prob, alg, n)
        return prob, alg, joint, ctx

    def test_large_epsilon_zero_rate(self):
        prob, alg, joint, ctx = self.instance()
        gt = gen_table(prob, ctx)
        c = float((np.asarray(joint) * gt).sum())
        # one constant reproduction column already satisfies the constraint
        eps = c - float(np.min(np.asarray(joint).sum(axis=1) @ gt)) + 0.01
        sol = rd_gen(joint, prob, ctx, eps)
        assert sol.rate_nats == pytest.approx(0.0, abs=1e-9)

    def test_identity_channel_feasibility(self):
        # at epsilon = 0 the identity reproduction is feasible, so the rate
        # can never exceed I(S;W) of the inducing joint
        prob, alg, joint, ctx = self.instance()
        sol = rd_gen(joint, prob, ctx, 0.0)
        assert sol.rate_nats <= mutual_information(joint) + 1e-9

    def test_matches_simplex_grid(self):
        # oracle: brute-force channel grid (step 0.005 on each row) for a
        # 2-dataset, 2-reproduction instance
        mu = np.array([0.6, 0.4])
        gt = np.array([[0.3, -0.2], [-0.5, 0.4]])  # gen(s, w_hat)
        joint = Joint = np.array([[0.35, 0.25], [0.1, 0.3]])
        c = float((joint * gt).sum())
        eps = 0.05
        thresh = eps - c  # E[-gen(S, What)] <= thresh
        ps = joint.sum(axis=1)
        best = math.inf
        grid = np.arange(0.0, 1.0001, 0.005)
        for a in grid:
            for b in grid:
                ch = np.array([[a, 1 - a], [b, 1 - b]])
                dist = float((ps[:, None] * ch * (-gt)).sum())
                if dist <= thresh:
                    best = min(best, mutual_information(ps[:, None] * ch))
        prob = FiniteLearningProblem(loss=np.zeros((2, 2)), mu=Pmf(mu))
        sol = rd_curve(ps, DistortionSpec(-gt, thresh), thresh)
        assert sol.rate_nats == pytest.approx(best, abs=0.01)


class TestRdTrajectory:
    def test_point_mass_zero_rate(self):
        rho = np.array([[0.0]])
        sol = rd_curve([1.0], DistortionSpec(rho, 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(0.0, abs=1e-12)

    def test_two_trajectories_lossless(self):
        rho = hamming(2)
        sol = rd_curve([0.5, 0.5], DistortionSpec(rho, 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(math.log(2), abs=1e-6)

    def test_single_letterization(self):
        # oracle: for an iid-uniform 2-step binary trajectory with per-step
        # Hamming distortion and per-trajectory budget 2*eps averaged, the
        # product-source rate is 2 (ln 2 - h(eps))
        eps = 0.11
        trajs = list(itertools.product([0, 1], repeat=2))
        rho = np.array(
            [[np.mean([a != c, b != d]) for (c, d) in trajs] for (a, b) in trajs]
        )
        sol = rd_curve(np.full(4, 0.25), DistortionSpec(rho, eps), eps)
        assert sol.rate_nats == pytest.approx(2 * (math.log(2) - h_nats(eps)), abs=1e-4)


class TestRdDimension:
    def test_point_mass_slopes_zero(self):
        p = np.zeros(16)
        p[3] = 1.0
        grid = np.arange(16) / 16.0
        rho = np.abs(grid[:, None] - grid[None, :])
        slopes, dim = rd_dimension(p, DistortionSpec(rho, 0), [0.25, 0.125, 0.0625])
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in slopes)
        assert dim == pytest.approx(0.0, abs=1e-9)

    def test_uniform_grid_dimension_one(self):
        k = 8
        grid = np.arange(2**k) / 2**k
        rho = np.abs(grid[:, None] - grid[None, :])
        eps = [2.0 ** (-j) for j in range(2, 7)]
        slopes, dim = rd_dimension(np.full(2**k, 2.0**-k), DistortionSpec(rho, 0), eps)
        assert abs(dim - 1.0) <= 0.2

    def test_resolution_stability(self):
        dims = []
        for k in (7, 8):
            grid = np.arange(2**k) / 2**k
            rho = np.abs(grid[:, None] - grid[None, :])
            eps = [2.0 ** (-j) for j in range(2, 7)]
            _, dim = rd_dimension(np.full(2**k, 2.0**-k), DistortionSpec(rho, 0), eps)
            dims.append(dim)
        assert abs(dims[1] - dims[0]) < 0.1

    def test_grid_validation(self):
        rho = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        with pytest.raises(ValueError):
            rd_dimension(np.full(4, 0.25), DistortionSpec(rho, 0), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            rd_dimension(np.full(4, 0.25), DistortionSpec(rho, 0), [0.2, 0.1])
