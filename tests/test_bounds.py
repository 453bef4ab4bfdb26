import math
import multiprocessing

import numpy as np
import pytest

from genbounds import info
from genbounds.bounds import (
    _log_mgf_cells,
    _logsumexp,
    _mgf_cells,
    channel_kl,
    distortion_ok_fg,
    fixed_size_bound,
    log_mgf,
    pac_bayes_eq22,
    prop5_bound,
    rd_tail_bound,
    reconstruct_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    thm5_expectation_bound,
    toy_example_bound,
)
from genbounds.info import Pmf, kl_divergence, mutual_information
from genbounds.io import canonical_json
from genbounds.learning import (
    FiniteLearningProblem,
    GibbsAlgorithm,
    gen_errors,
    gen_table,
    induced_joint,
)
from genbounds.seeding import rng
from genbounds.trajectory import thm7_bound, thm8_bound

from conftest import ConstantAlgorithm


def exact_instance(seed=70, z=2, w=3, n=3, beta=1.1):
    gen = rng(seed)
    prob = FiniteLearningProblem(
        loss=gen.uniform(0, 1, size=(z, w)), mu=Pmf(gen.dirichlet(np.ones(z))), bound=1.0
    )
    alg = GibbsAlgorithm(prior=Pmf.uniform(w), beta=beta)
    joint, ctx = induced_joint(prob, alg, n)
    return prob, alg, joint, ctx


def rd_tail(prob, alg, n, delta, epsilon, **kw):
    joint, types = induced_joint(prob, alg, n)
    return rd_tail_bound(joint, gen_table(prob, types), prob.sigma, n, delta, epsilon, **kw)


class TestTFunctional:
    """T(nu_S, p, q, g) = E_{nu_S}[KL(p || q)] + log E_{P_S q}[e^g] by its two halves, `channel_kl` and
    `log_mgf`, which thm5 and eq22 use."""

    def test_zero_g_equal_channels(self):
        p = np.array([[0.2, 0.8], [0.6, 0.4]])
        nu = np.array([0.5, 0.5])
        ps = np.array([0.3, 0.7])
        assert channel_kl(nu, p, p) + log_mgf(ps, p, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_constant_g(self):
        p = np.array([[0.2, 0.8], [0.6, 0.4]])
        nu = np.array([0.5, 0.5])
        ps = np.array([0.3, 0.7])
        c = 1.37
        assert channel_kl(nu, p, p) + log_mgf(ps, p, np.full((2, 2), c)) == pytest.approx(c, abs=1e-12)

    def test_matches_brute_force(self):
        gen = rng(71)
        nu = gen.dirichlet(np.ones(3))
        ps = gen.dirichlet(np.ones(3))
        p = gen.dirichlet(np.ones(3), size=3)
        q = gen.dirichlet(np.ones(3), size=3)
        g = gen.normal(size=(3, 3))
        brute_kl = sum(
            nu[s] * p[s, w] * math.log(p[s, w] / q[s, w]) for s in range(3) for w in range(3)
        )
        brute_mgf = math.log(
            sum(ps[s] * q[s, w] * math.exp(g[s, w]) for s in range(3) for w in range(3))
        )
        assert channel_kl(nu, p, q) == pytest.approx(brute_kl, abs=1e-10)
        assert log_mgf(ps, q, g) == pytest.approx(brute_mgf, abs=1e-10)

    @pytest.mark.parametrize("width", [2, 4, 7])
    def test_channel_kl_matches_row_loop(self, width):
        # reference: the per-row loop with a compacted masked sum per row; on
        # strictly positive rows the batched kernel must give the same bits
        gen = rng(72, width)
        nu = gen.dirichlet(np.ones(40))
        nu[::5] = 0.0
        nu /= nu.sum()
        p = gen.dirichlet(np.ones(width), size=40)
        q = gen.dirichlet(np.ones(width), size=40)
        total = 0.0
        for s in np.flatnonzero(nu > 0):
            m = p[s] > 0
            total += nu[s] * float((p[s, m] * (np.log(p[s, m]) - np.log(q[s, m]))).sum())
        assert channel_kl(nu, p, q) == total

    def test_support_violation_infinite(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        q = np.array([[0.0, 1.0], [0.5, 0.5]])
        nu = np.array([1.0, 0.0])
        assert channel_kl(nu, p, q) == math.inf


class TestThm1:
    def test_direct_value(self):
        rep = thm1_bound(2.0, 1.0, 50, 0.05, 0.0)
        expected = math.sqrt(4 * (2 + math.log(math.sqrt(100) / 0.05)) / 99)
        assert rep.bound_value == pytest.approx(expected, abs=1e-12)
        assert rep.bound_value == pytest.approx(0.54303, abs=1e-4)

    def test_degenerate_zero(self):
        rep = thm1_bound(0.0, 0.0, 50, 0.05, 0.0)
        assert rep.bound_value == pytest.approx(0.0, abs=1e-12)

    def test_doubling_n_shrinks(self):
        for n in (20, 50, 200):
            a = thm1_bound(2.0, 1.0, n, 0.05, 0.0).bound_value
            b = thm1_bound(2.0, 1.0, 2 * n, 0.05, 0.0).bound_value
            assert 0.6 < b / a < 0.8

    def test_negative_radicand_diagnosed(self):
        with pytest.raises(ValueError, match="radicand"):
            thm1_bound(0.0, 0.1, 10, 0.9, -1.0)

    def test_monotone(self):
        base = thm1_bound(1.0, 0.5, 40, 0.1, 0.01).bound_value
        assert thm1_bound(2.0, 0.5, 40, 0.1, 0.01).bound_value >= base
        assert thm1_bound(1.0, 0.5, 40, 0.1, 0.05).bound_value >= base
        assert thm1_bound(1.0, 0.5, 80, 0.1, 0.01).bound_value <= base
        assert thm1_bound(1.0, 0.5, 40, 0.2, 0.01).bound_value <= base


class TestEq4:
    def test_direct_value(self):
        rep = fixed_size_bound(1.0, 1.0, 100, 0.1, 0.01)
        assert rep.bound_value == pytest.approx(0.26700, abs=1e-4)

    def test_delta_one_zero(self):
        assert fixed_size_bound(0.0, 1.0, 100, 1.0, 0.0).bound_value == 0.0

    def test_same_order_as_thm1(self):
        for n in (20, 50, 100):
            for r in (0.5, 1.0, 3.0):
                a = thm1_bound(r, 1.0, n, 0.1, 0.0).bound_value
                b = fixed_size_bound(r, 1.0, n, 0.1, 0.0).bound_value
                assert 0.5 < a / b < 2.0


class TestSeeger:
    def test_zero_empirical_risk_pure_fast_rate(self):
        rep = seeger_fast_rate_bound(0.0, 0.5, 0.5, 100, 0.1)
        c = rep.terms["rate_term"] + rep.terms["confidence_term"]
        assert rep.bound_value == pytest.approx(c / 100, abs=1e-15)

    def test_direct_value(self):
        # derived from C = 4 sigma^2 (sup_mi + log(2 sqrt(n)/delta))
        rep = seeger_fast_rate_bound(0.2, 0.5, 0.5, 100, 0.1)
        c = 1.0 * (0.5 + math.log(2 * 10 / 0.1))
        expected = math.sqrt(0.2 * c / 100) + c / 100
        assert rep.bound_value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.16567, abs=1e-4)

    def test_one_over_n_scaling(self):
        a = seeger_fast_rate_bound(0.0, 0.5, 0.5, 100, 0.1).bound_value
        b = seeger_fast_rate_bound(0.0, 0.5, 0.5, 400, 0.1).bound_value
        # C grows only via log sqrt(n): the ratio sits just above 1/4
        assert 0.25 < b / a < 0.30


class TestEq22:
    def test_equal_distributions_zero_f(self):
        pi = np.array([0.25, 0.75])
        rep = pac_bayes_eq22(pi, pi, 0.0, 0.05)
        assert rep.bound_value == pytest.approx(math.log(20), abs=1e-12)

    def test_off_support_infinite(self):
        rep = pac_bayes_eq22(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.1)
        assert rep.infinite
        assert rep.bound_value == math.inf

    def test_three_term_hand_assembly(self):
        prob, alg, joint, ctx = exact_instance(72)
        gt = gen_table(prob, ctx)
        lam = 2.0
        f = lam * gt**2
        ps = np.asarray(joint).sum(axis=1)
        q = np.asarray(alg.prior)
        pi = np.asarray(alg.posterior_from_counts(prob, ctx[2]))
        mgf = log_mgf(ps, np.tile(q, (len(ctx), 1)), f)
        rep = pac_bayes_eq22(pi, q, mgf, 0.1)
        hand = (
            sum(pi[w] * math.log(pi[w] / q[w]) for w in range(3) if pi[w] > 0)
            + math.log(sum(ps[s] * q[w] * math.exp(f[s, w]) for s in range(len(ctx)) for w in range(3)))
            + math.log(10.0)
        )
        assert rep.bound_value == pytest.approx(hand, abs=1e-12)


class TestProp5:
    def test_mode_i_lossless_reduces_to_eq22(self):
        prob, alg, joint, ctx = exact_instance(73)
        gt = gen_table(prob, ctx)
        f = 1.5 * gt
        ps = np.asarray(joint).sum(axis=1)
        q_rows = np.tile(np.asarray(alg.prior), (len(ctx), 1))
        s_idx = 1
        pi = np.asarray(alg.posterior_from_counts(prob, ctx[s_idx]))
        rep_i = prop5_bound(
            "i", P_S=ps, q_hat=q_rows, g=f, delta=0.07, epsilon=0.0,
            s_index=s_idx, pi=pi, p_quant=pi, f=f,
        )
        rep_22 = pac_bayes_eq22(pi, np.asarray(alg.prior), log_mgf(ps, q_rows, f), 0.07)
        assert rep_i.bound_value == pytest.approx(rep_22.bound_value, abs=1e-12)

    def test_mode_ii_dirac_kernel_log_ratio(self):
        prob, alg, joint, ctx = exact_instance(74)
        gt = gen_table(prob, ctx)
        f = 2.0 * gt
        ps = np.asarray(joint).sum(axis=1)
        pws = np.asarray(joint) / ps[:, None]
        q_rows = np.tile(np.asarray(alg.prior), (len(ctx), 1))
        s_idx, w_idx = 3, 1
        rep = prop5_bound(
            "ii", P_S=ps, q_hat=q_rows, g=f, delta=0.1, epsilon=0.0,
            s_index=s_idx, kernel=np.eye(3), P_WgS=pws, w_index=w_idx, f=f,
        )
        expected_ratio = math.log(pws[s_idx, w_idx] / np.asarray(alg.prior)[w_idx])
        assert rep.terms["rate_term"] == pytest.approx(expected_ratio, abs=1e-12)

    def test_mode_ii_noise_kernel_brute_force(self):
        # oracle: brute-force expectation of the log ratio under the kernel
        prob, alg, joint, ctx = exact_instance(75, w=2)
        gt = gen_table(prob, ctx)
        f = gt
        ps = np.asarray(joint).sum(axis=1)
        pws = np.asarray(joint) / ps[:, None]
        q_rows = np.tile(np.array([0.5, 0.5]), (len(ctx), 1))
        flip = 0.15
        kernel = np.array([[1 - flip, flip], [flip, 1 - flip]])
        s_idx, w_idx = 2, 0
        achieved = float(f[s_idx, w_idx] - kernel[w_idx] @ f[s_idx])
        eps = max(achieved, 0.0) + 1e-12
        rep = prop5_bound(
            "ii", P_S=ps, q_hat=q_rows, g=f, delta=0.2, epsilon=eps,
            s_index=s_idx, kernel=kernel, P_WgS=pws, w_index=w_idx, f=f,
        )
        p_star = pws @ kernel
        brute = sum(
            kernel[w_idx, k] * math.log(p_star[s_idx, k] / q_rows[s_idx, k]) for k in range(2)
        )
        assert rep.terms["rate_term"] == pytest.approx(brute, abs=1e-9)

    def test_distortion_violation_rejected(self):
        prob, alg, joint, ctx = exact_instance(76)
        gt = gen_table(prob, ctx)
        f = gt + 1.0  # shift so f - g > 0 under the lossless quantizer
        ps = np.asarray(joint).sum(axis=1)
        q_rows = np.tile(np.asarray(alg.prior), (len(ctx), 1))
        pi = np.asarray(alg.posterior_from_counts(prob, ctx[0]))
        with pytest.raises(ValueError, match="distortion"):
            prop5_bound(
                "i", P_S=ps, q_hat=q_rows, g=gt, delta=0.1, epsilon=0.0,
                s_index=0, pi=pi, p_quant=pi, f=f,
            )


    @pytest.mark.parametrize("s_index, w_index", [(-1, 0), (8, 0), (0, -1), (0, 3)])
    def test_indices_in_range(self, s_index, w_index):
        # a negative index used to pick the last row silently; one past the end raised IndexError
        prob, alg, joint, ctx = exact_instance(77)
        gt = gen_table(prob, ctx)
        ps = np.asarray(joint).sum(axis=1)
        pws = np.asarray(joint) / ps[:, None]
        pi = np.asarray(alg.posterior_from_counts(prob, ctx[0]))
        name = "s_index" if s_index != 0 else "w_index"
        with pytest.raises(ValueError, match=name):
            prop5_bound(
                "ii", P_S=ps, q_hat=alg.prior, g=gt, delta=0.1, epsilon=1.0,
                s_index=s_index, kernel=np.eye(3), P_WgS=pws, w_index=w_index, f=gt,
            )
        if w_index == 0:
            with pytest.raises(ValueError, match="s_index"):
                prop5_bound(
                    "i", P_S=ps, q_hat=alg.prior, g=gt, delta=0.1, epsilon=0.0,
                    s_index=s_index, pi=pi, p_quant=pi, f=gt,
                )


class TestToyExample:
    def test_all_zero_data(self):
        rep = toy_example_bound(0.0, 1.0, 2, 1.0, 100, 0.1)
        assert rep.bound_value == pytest.approx(math.sqrt(2 * math.log(10) / 100), abs=1e-12)

    def test_direct_value(self):
        rep = toy_example_bound(0.5, 1.0, 2, 1.0, 100, 0.1)
        assert rep.bound_value == pytest.approx(0.29335, abs=1e-4)

    def test_monotone_in_mean_square(self):
        vals = [
            toy_example_bound(s, 1.0, 3, 0.5, 50, 0.05).bound_value
            for s in np.linspace(0.0, 2.0, 9)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestThm5:
    def test_xu_raginsky_specialization(self):
        prob, alg, joint, ctx = exact_instance(86)
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        i_sw = mutual_information(P)
        sigma = prob.sigma
        n = int(ctx[0].sum())
        lam = math.sqrt(2 * n * i_sw / sigma**2)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        rep = thm5_expectation_bound(
            "i", P, pws, q, gt, gt, lam, 0.0, mgf="surrogate", sigma_g=sigma / math.sqrt(n)
        )
        assert rep.bound_value == pytest.approx(math.sqrt(2 * sigma**2 * i_sw / n), abs=1e-9)
        assert rep.bound_value >= rep.extra["true_e_f"]

    def test_constant_f(self):
        prob, alg, joint, ctx = exact_instance(87)
        P = np.asarray(joint)
        c = 0.4
        f = np.full(P.shape, c)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        lam = 3.0
        rep = thm5_expectation_bound("i", P, pws, q, f, f, lam, 0.0)
        # exact: KL-part/lam + (1/lam) log e^{lam c} + 0 but with p = P_{W|S}:
        expected = channel_kl(P.sum(axis=1), pws, np.tile(q, (P.shape[0], 1))) / lam + c
        assert rep.bound_value == pytest.approx(expected, abs=1e-12)
        assert rep.bound_value >= c - 1e-12

    def test_part_ii_dominates_truth(self):
        prob, alg, joint, ctx = exact_instance(88)
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        f = gt**2 + 0.05
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        rep = thm5_expectation_bound("ii", P, pws, q, f, f, None, alpha=2.0)
        assert rep.bound_value >= rep.extra["true_e_f"] - 1e-12

    @pytest.mark.parametrize("part", ["i", "ii"])
    def test_infinite_multiplier(self, part):
        # a deterministic channel gives KL(p||q) = D_2(P||q P_S) = log 4, above
        # -log P(g = max g) = log(8/3), so no finite lam reaches the infimum: max g
        # (part i) or max f (part ii). The search used to stop at lam ~ 1e8, above it.
        P = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        f = np.array([[0.5, 0.5, 0.1, 0.0], [0.5, 0.2, 0.3, 0.1]]) + (part == "ii") * 0.05
        pws = P / P.sum(axis=1, keepdims=True)
        q = np.full(4, 0.25)
        rep = thm5_expectation_bound(part, P, pws, q, f, f, None, alpha=2.0)
        assert rep.params["lambda"] == math.inf
        assert rep.bound_value == pytest.approx(f.max(), rel=1e-15)
        assert rep.terms["rate_term"] == 0.0
        assert reconstruct_bound(rep) == rep.bound_value
        assert '"lambda": "inf"' in canonical_json(rep.to_dict())
        for lam in (1e2, 1e4, 1e8):
            assert rep.bound_value < thm5_expectation_bound(part, P, pws, q, f, f, lam, alpha=2.0).bound_value

    def test_part_ii_requires_positive_f(self):
        prob, alg, joint, ctx = exact_instance(89)
        P = np.asarray(joint)
        with pytest.raises(ValueError):
            thm5_expectation_bound(
                "ii", P, P / P.sum(axis=1, keepdims=True), P.sum(axis=0),
                np.zeros(P.shape), np.zeros(P.shape), 2.0, alpha=2.0,
            )

    def test_unknown_mgf_rejected(self):
        P = np.full((2, 2), 0.25)
        g = np.array([[0.1, 0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="mgf"):
            thm5_expectation_bound("i", P, np.full((2, 2), 0.5), [0.5, 0.5], g, g, 2.0, mgf="exakt")

    @pytest.mark.parametrize("sigma_g, match", [
        (-1.0, "sigma_g must be non-negative"),  # was the bound at +1.0
        (math.nan, "sigma_g is NaN"),
        (1e300, "too large"),  # was an OverflowError at sigma_g**2
    ])
    def test_surrogate_sigma_g_checked(self, sigma_g, match):
        P = np.full((2, 2), 0.25)
        g = np.zeros((2, 2))
        with pytest.raises(ValueError, match=match):
            thm5_expectation_bound("i", P, np.full((2, 2), 0.5), [0.5, 0.5], g, g, 2.0, mgf="surrogate", sigma_g=sigma_g)
        rep = thm5_expectation_bound("i", P, np.full((2, 2), 0.5), [0.5, 0.5], g, g, 2.0, mgf="surrogate", sigma_g=1.0)
        assert rep.bound_value == 1.0

    def test_distortion_checked(self):
        prob, alg, joint, ctx = exact_instance(90)
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        with pytest.raises(ValueError, match="distortion"):
            thm5_expectation_bound("i", P, pws, q, gt + 1.0, gt, 2.0, 0.0)


class TestMultiplierDomain:
    """Theorem 5 takes lam in (0, inf); anything else is a ValueError."""

    p = np.full((2, 2), 0.5)
    g = np.array([[0.1, 0.2], [0.3, 0.0]])

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("part", ["i", "ii"])
    def test_thm5_rejects_lam(self, part, lam):
        f = self.g + 0.1
        with pytest.raises(ValueError, match="multiplier"):
            thm5_expectation_bound(part, np.full((2, 2), 0.25), self.p, self.p[0], f, f, lam, alpha=2.0)

    def test_thm5ii_rejects_lam_below_its_floor(self):
        # a lam below alpha/(alpha-1) gave a bound of +inf over finite terms
        f = self.g + 0.1
        with pytest.raises(ValueError, match=r"lam >= alpha/\(alpha-1\) = 2\.0"):
            thm5_expectation_bound("ii", np.full((2, 2), 0.25), self.p, self.p[0], f, f, 1.5, alpha=2.0)

    def test_optimised_lam_unchanged(self, dataset_joint):
        # float.hex of (bound, lambda, terms) on the dataset-level joint, recorded when the
        # multiplier became the root of thm5's first-order condition (it was a grid and
        # golden-section search: 0x1.00dd21f20ef96p+2 and 0x1.2de1b1986bf7cp+1)
        prob, alg, _, _ = exact_instance(86, n=4)
        joint, datasets = dataset_joint(prob, alg, 4)
        gt = np.stack([gen_errors(prob, s) for s in datasets])
        P = np.asarray(joint)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        ri = thm5_expectation_bound("i", P, pws, q, gt, gt, None, 0.0)
        rii = thm5_expectation_bound("ii", P, pws, q, gt**2 + 0.05, gt**2 + 0.05, None, alpha=2.0)
        got = [
            (float(r.bound_value).hex(), float(r.params["lambda"]).hex(), *(float(v).hex() for v in r.terms.values()))
            for r in (ri, rii)
        ]
        assert got == [
            ("0x1.3009f8694ba65p-6", "0x1.00dd21d88caa5p+2", "0x1.2b532eb490611p-7", "0x1.34c0c21e06eb9p-7", "0x0.0p+0"),
            ("0x1.d606a44fe2520p-5", "0x1.2de1b15ed7938p+1", "0x1.f1783ec26808fp-6", "-0x1.71b9fe86eabb2p+1"),
        ]


class TestRdTailBound:
    def test_constant_posterior_zero_rd(self):
        gen = rng(91)
        prob = FiniteLearningProblem(
            loss=gen.uniform(0, 1, size=(2, 3)), mu=Pmf(np.array([0.5, 0.5])), bound=1.0
        )
        alg = ConstantAlgorithm(Pmf(np.array([0.3, 0.4, 0.3])))
        n, delta, eps = 3, 0.1, 0.0
        rep = rd_tail(prob, alg, n, delta, eps, search_budget=200, seed=1)
        sigma = prob.sigma
        # at nu = P the data-ignoring joint is a product: rate 0 is feasible
        # (tilted ball members still couple W to S, so the sup stays positive)
        assert rep.extra["baseline_rd"] == pytest.approx(0.0, abs=1e-8)
        assert rep.extra["baseline_bound"] == pytest.approx(
            math.sqrt(2 * sigma**2 * math.log(1 / delta) / n), abs=1e-6
        )
        assert rep.extra["sup_rd"] >= 0.0

    def test_epsilon_above_bound_zero_rd(self):
        prob, alg, joint, ctx = exact_instance(92)
        rep = rd_tail(prob, alg, 3, 0.1, prob.bound, search_budget=150, seed=2)
        assert rep.extra["sup_rd"] == pytest.approx(0.0, abs=1e-8)

    def test_sup_dominates_baseline_and_reconstructs(self):
        prob, alg, joint, ctx = exact_instance(93, w=2)
        rep = rd_tail(prob, alg, 3, 0.2, 0.005, search_budget=300, seed=3)
        assert rep.extra["sup_rd"] >= rep.extra["baseline_rd"] - 1e-12
        assert rep.bound_value >= rep.extra["baseline_bound"] - 1e-12
        assert reconstruct_bound(rep) == pytest.approx(rep.bound_value, abs=1e-12)


    def test_helper_changes_no_bit(self, monkeypatch, helper_points):
        # n = 2 gives 40 cells: a budget of 96 stops the restarts after 2 of 4 and the ascent in its second pass
        prob, alg, _, _ = exact_instance(99, z=4, w=4, n=2)
        helped = canonical_json(rd_tail(prob, alg, 2, 0.05, 0.0, search_budget=96, seed=4).to_dict())
        assert len(helper_points) > 40
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(info, "_cpus", lambda: 1)
        del helper_points[:]
        serial = canonical_json(rd_tail(prob, alg, 2, 0.05, 0.0, search_budget=96, seed=4).to_dict())
        assert helper_points == []
        assert helped == serial

    @pytest.mark.parametrize("n, delta, sigma", [(0, 0.1, 0.5), (3, 0.0, 0.5), (3, 1.5, 0.5), (3, 0.1, -1.0)])
    def test_domain(self, n, delta, sigma):
        prob, alg, joint, ctx = exact_instance(93, w=2)
        with pytest.raises(ValueError, match="n must|delta|sigma"):
            rd_tail_bound(joint, gen_table(prob, ctx), sigma, n, delta, 0.005, search_budget=10)

    def test_joint_must_be_a_pmf(self):
        prob, alg, joint, ctx = exact_instance(93, w=2)
        with pytest.raises(ValueError, match="probabilit"):
            rd_tail_bound(2 * np.asarray(joint), gen_table(prob, ctx), prob.sigma, 3, 1.0, 0.005)

    def test_gen_table_must_fit_the_joint(self):
        prob, alg, joint, ctx = exact_instance(93, w=2)
        gt_n4 = gen_table(prob, induced_joint(prob, alg, 4)[1])
        with pytest.raises(ValueError, match="shape"):
            rd_tail_bound(joint, gt_n4, prob.sigma, 3, 0.2, 0.005, search_budget=10)


def thm3_condition_lhs(nu, p_hat, q_hat, lam, g, Delta, epsilon, P):
    """Theorem 3's condition (variant i) at a candidate nu of finite KL to P, which it bounds by log(delta):
    T_1 - KL(nu || P_{W|S} nu_S) - lam (E_nu[Delta] - eps), T_1 = E_{nu_S}[KL(p || q)] + log E_{P_S q}[e^{lam g}].

    Brute-force sums over the cells, the oracle for eq21's construction.
    """
    cells = [(s, w) for s in range(P.shape[0]) for w in range(P.shape[1])]
    nu_s, ps = nu.sum(axis=1), P.sum(axis=1)
    kl_pq = sum(
        nu_s[s] * p_hat[s, w] * math.log(p_hat[s, w] / q_hat[s, w]) for s, w in cells if nu_s[s] * p_hat[s, w] > 0
    )
    mgf = math.log(sum(ps[s] * q_hat[s, w] * math.exp(lam * g[s, w]) for s, w in cells))
    kl_mixed = sum(nu[s, w] * math.log(nu[s, w] * ps[s] / (nu_s[s] * P[s, w])) for s, w in cells if nu[s, w] > 0)
    e_delta = sum(nu[s, w] * Delta[s, w] for s, w in cells)
    return kl_pq + mgf - kl_mixed - lam * (e_delta - epsilon)


def rd_channel(p, d, s):
    """The test channel of R(D) at multiplier s for source p and distortion d: at s = 0 every row is the point mass
    on the argmin column of p @ d; at s > 0, plain Blahut-Arimoto (no acceleration) run until the output marginal
    stops moving. The oracle for the channel that attains an `rd_curve` rate."""
    if s == 0:
        rows = np.zeros(d.shape)
        rows[:, int(np.argmin(p @ d))] = 1.0
        return rows
    a = np.exp(-s * (d - d.min(axis=1, keepdims=True)))
    q = np.full(d.shape[1], 1.0 / d.shape[1])
    for _ in range(100_000):
        rows = q * a
        rows /= rows.sum(axis=1, keepdims=True)
        q, q_prev = p @ rows, q
        if np.abs(q - q_prev).max() <= 1e-16:
            return rows
    raise AssertionError("Blahut-Arimoto did not settle")


class TestEq21Construction:
    def test_condition_satisfied_on_ball_candidates(self):
        # the rate-distortion tail bound's own construction: f = g = gen,
        # p = the RD-optimal channel at nu (`rd_channel` at rd_gen's multiplier), q = its output marginal,
        # lam = n (Delta - eps) / sigma^2, Delta constant. The condition LHS
        # must fall below log(delta) at every ball candidate (spot-verified).
        from genbounds.ratedistortion import rd_gen

        prob, alg, joint, ctx = exact_instance(94, w=2)
        n, delta, eps = 3, 0.2, 0.005
        rep = rd_tail(prob, alg, n, delta, eps, search_budget=300, seed=5)
        big_delta = rep.bound_value
        sigma = prob.sigma
        lam = n * (big_delta - eps) / sigma**2
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        gen = rng(95)
        candidates = [P]
        for _ in range(12):
            t = P * gen.uniform(0.4, 2.2, size=P.shape)
            t /= t.sum()
            if kl_divergence(t.reshape(-1), P.reshape(-1)) <= math.log(1 / delta):
                candidates.append(t)
        assert len(candidates) >= 5
        for nu in candidates:
            j = Joint_like(nu)
            p_hat = rd_channel(np.asarray(j).sum(axis=1), -gt, rd_gen(j, gt, eps).lagrange_lambda)
            q_hat = np.tile(nu.sum(axis=1) @ p_hat, (P.shape[0], 1))
            lhs = thm3_condition_lhs(nu, p_hat, q_hat, lam, gt, np.full(P.shape, big_delta), eps, P)
            assert lhs <= math.log(delta) + 1e-12

    def test_mc_tail_validation_of_eq21(self):
        # end-to-end: the assembled bound holds empirically at level delta
        prob, alg, joint, ctx = exact_instance(96, w=2)
        n, delta, eps = 3, 0.2, 0.005
        rep = rd_tail(prob, alg, n, delta, eps, search_budget=300, seed=6)
        from genbounds.validation import mc_tail_validate

        out = mc_tail_validate(
            prob, alg, lambda s, w, post: rep.bound_value, n, delta, 2000, seed=97
        )
        assert out.passed


def Joint_like(table):
    from genbounds.info import Joint

    return Joint(np.clip(table, 0, None) / np.clip(table, 0, None).sum())


class TestReportInvariants:
    def test_every_kind_reconstructs(self):
        from genbounds.counterexample import ScoInstance, assemble_bound

        prob, alg, joint, ctx = exact_instance(98)
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        ps = P.sum(axis=1)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        q_rows = np.tile(np.asarray(alg.prior), (len(ctx), 1))
        pi = np.asarray(alg.posterior_from_counts(prob, ctx[0]))
        prob2, alg2, _, _ = exact_instance(93, w=2)
        reports = [
            thm1_bound(1.2, 0.7, 30, 0.05, 0.02),
            fixed_size_bound(0.8, 0.5, 60, 0.1, 0.01),
            rd_tail(prob2, alg2, 3, 0.2, 0.005, search_budget=60, seed=3),
            seeger_fast_rate_bound(0.15, 0.4, 0.5, 80, 0.05),
            toy_example_bound(0.3, 1.2, 4, 0.6, 50, 0.1),
            pac_bayes_eq22(np.array([0.2, 0.8]), np.array([0.5, 0.5]), 0.7, 0.1),
            thm7_bound(0.9, 0.05, 40, 0.02),
            thm8_bound(0.6, 0.1, 1.3, 0.1, 40, 0.01),
            prop5_bound(
                "i", P_S=ps, q_hat=q_rows, g=gt, delta=0.07, epsilon=0.0,
                s_index=0, pi=pi, p_quant=pi, f=gt,
            ),
            prop5_bound(
                "ii", P_S=ps, q_hat=q_rows, g=gt, delta=0.07, epsilon=0.0,
                s_index=0, kernel=np.eye(3), P_WgS=pws, w_index=0, f=gt,
            ),
            assemble_bound(ScoInstance(5), 1 - 1 / 25, "expectation"),
            # sco_tail adds confidence before epsilon; its dict order would move the last bit
            assemble_bound(ScoInstance(4), 1 - 1 / 16, "tail", delta=0.05),
            # thm5 used to report its minimised objective, which its terms matched only to rounding
            thm5_expectation_bound("i", P, pws, q, gt, gt, 2.0, 0.0),
            thm5_expectation_bound("i", P, pws, q, gt, gt, None, 0.0),
            thm5_expectation_bound("ii", P, pws, q, gt**2 + 0.05, gt**2 + 0.05, None, alpha=2.0),
        ]
        for rep in reports:
            assert reconstruct_bound(rep) == rep.bound_value, rep.kind
        assert len({rep.kind for rep in reports}) == 14

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            thm1_bound(1.0, math.nan, 10, 0.05, 0.0)
        with pytest.raises(ValueError, match="NaN"):
            pac_bayes_eq22(np.array([0.2, 0.8]), np.array([0.5, 0.5]), math.nan, 0.1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: thm1_bound(math.nan, 0.5, 10, 0.05, 0.0),
            lambda: thm1_bound(1.0, 0.5, 10, math.nan, 0.0),
            lambda: fixed_size_bound(1.0, 0.5, math.nan, 0.05, 0.0),
            lambda: seeger_fast_rate_bound(math.nan, 0.4, 0.5, 80, 0.05),
            lambda: toy_example_bound(0.3, 1.2, 4, math.nan, 50, 0.1),
            # thm1 and eq4 take delta in (0, 1] and sigma >= 0
            lambda: thm1_bound(0.0, 1.0, 50, math.sqrt(100), 0.0),
            lambda: thm1_bound(0.1, 0.5, 10, 5.0, 0.0),
            lambda: thm1_bound(0.1, -0.5, 10, 0.05, 0.0),
            lambda: fixed_size_bound(0.1, 0.5, 10, 1.5, 0.0),
            lambda: fixed_size_bound(0.1, -0.5, 10, 0.05, 0.0),
            lambda: fixed_size_bound(0.1, 0.5, 10, 0.0, 0.0),
            # every other kind takes delta in (0, 1] as well
            lambda: thm7_bound(1.0, 2.0, 10, 0.0),
            lambda: thm8_bound(0.5, 0.2, 1.0, 1.5, 50, 0.01),
            lambda: seeger_fast_rate_bound(0.0, 0.1, 0.5, 80, 50.0),
            lambda: pac_bayes_eq22(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0, 5.0),
            lambda: prop5_bound(
                "i", P_S=np.array([0.5, 0.5]), q_hat=np.array([0.5, 0.5]), g=np.zeros((2, 2)),
                delta=2.0, epsilon=0.0, s_index=0, pi=np.array([0.5, 0.5]),
                p_quant=np.array([0.5, 0.5]), f=np.zeros((2, 2)),
            ),
            lambda: toy_example_bound(0.3, 1.2, 4, 0.6, 50, 3.0),
            # a negative rate or mutual information gave a bound below its value at 0
            lambda: thm7_bound(-0.1, 0.5, 10, 0.0),
            lambda: thm8_bound(-0.5, 0.0, 1.0, 0.5, 10, 0.0),
            lambda: seeger_fast_rate_bound(0.0, -1.0, 0.5, 10, 0.05),
            # a negative sigma, and sigmas whose square overflows a float
            lambda: seeger_fast_rate_bound(0.1, 0.2, -1.0, 10, 0.1),
            lambda: thm1_bound(-0.0, 1e300, 2, 0.3, 1.0),
            lambda: fixed_size_bound(0.5, 1e300, 2, 0.3, 0.0),
            lambda: seeger_fast_rate_bound(0.1, 0.2, 1e300, 10, 0.1),
            lambda: toy_example_bound(0.3, 1.2, 4, 1e300, 50, 0.1),
        ],
    )
    def test_nan_input_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "kind", ["thm1", "eq4", "seeger", "eq22", "prop5", "toy", "thm7", "thm8", "sco_tail"]
    )
    @pytest.mark.parametrize("delta", [1.0, 0.0, 1.5, math.nan])
    def test_delta_domain(self, kind, delta):
        # every bound kind takes delta in (0, 1], the endpoint 1 included
        from genbounds.counterexample import ScoInstance, assemble_bound

        half, zeros = np.array([0.5, 0.5]), np.zeros((2, 2))
        make = {
            "thm1": lambda d: thm1_bound(1.2, 0.7, 30, d, 0.02),
            "eq4": lambda d: fixed_size_bound(0.8, 0.5, 60, d, 0.01),
            "seeger": lambda d: seeger_fast_rate_bound(0.15, 0.4, 0.5, 80, d),
            "eq22": lambda d: pac_bayes_eq22(np.array([0.2, 0.8]), half, 0.7, d),
            "prop5": lambda d: prop5_bound(
                "i", P_S=half, q_hat=half, g=zeros, delta=d, epsilon=0.0, s_index=0,
                pi=half, p_quant=half, f=zeros,
            ),
            "toy": lambda d: toy_example_bound(0.3, 1.2, 4, 0.6, 50, d),
            "thm7": lambda d: thm7_bound(0.9, d, 40, 0.02),
            "thm8": lambda d: thm8_bound(0.6, 0.1, 1.3, d, 40, 0.01),
            "sco_tail": lambda d: assemble_bound(ScoInstance(4), 1 - 1 / 16, "tail", delta=d),
        }[kind]
        if delta == 1.0:
            assert math.isfinite(make(delta).bound_value)
        else:
            with pytest.raises(ValueError, match="delta"):
                make(delta)

    @pytest.mark.parametrize("mode", ["i", "ii"])
    def test_prop5_rejects_non_pmf(self, mode):
        # pi, kernel and P_{W|S} are pmfs (per row) like every other input of a bound
        half, zeros, bad = np.array([0.5, 0.5]), np.zeros((2, 2)), np.array([[3.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            if mode == "i":
                prop5_bound(
                    "i", P_S=half, q_hat=half, g=zeros, delta=0.1, epsilon=0.0, s_index=0,
                    pi=np.array([0.9, 0.9]), p_quant=half, f=zeros,
                )
            else:
                prop5_bound(
                    "ii", P_S=half, q_hat=half, g=zeros, delta=0.1, epsilon=0.0, s_index=0,
                    kernel=bad, P_WgS=np.eye(2), w_index=0, f=zeros,
                )

    def test_infinite_flag(self):
        rep = pac_bayes_eq22(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.1)
        assert rep.infinite and not math.isfinite(rep.bound_value)

    @pytest.mark.parametrize(
        "P_S, q_hat, g",
        [
            ([0.5, 0.5], [0.5, 0.5], [[math.nan, 0.0], [0.0, 0.0]]),
            ([math.nan, 0.5], [0.5, 0.5], np.zeros((2, 2))),
            ([0.5, 0.5], [0.5, math.nan], np.zeros((2, 2))),
            ([0.5, 0.5], [math.inf, 0.5], np.zeros((2, 2))),
        ],
    )
    def test_log_mgf_rejects_nan(self, P_S, q_hat, g):
        with pytest.raises(ValueError, match="finite"):
            log_mgf(P_S, q_hat, g)

    def test_log_mgf_infinite_g(self):
        # +inf in g is an infinite MGF; -inf (log f at f = 0) drops its cell
        assert log_mgf([0.5, 0.5], [0.5, 0.5], [[math.inf, 0.0], [0.0, 0.0]]) == math.inf
        dropped = log_mgf([0.5, 0.5], [0.5, 0.5], [[-math.inf, 0.0], [0.0, 0.0]])
        assert dropped == pytest.approx(math.log(0.75))

    def test_log_mgf_zero_weight_cell(self):
        # 0 e^{+inf} counts as 0: a cell of weight 0 adds nothing and nothing warns
        assert log_mgf([0.0, 1.0], [0.5, 0.5], [[math.inf, 0.0], [0.0, 0.0]]) == 0.0
        assert log_mgf([0.5, 0.5], [[0.0, 1.0], [0.5, 0.5]], [[math.inf, 0.0], [0.0, 0.0]]) == 0.0


class TestLogsumexpOracle:
    # the numpy log-sum-exp follows scipy's steps, so it must give scipy's bits

    def test_bits_match_scipy(self):
        logsumexp = pytest.importorskip("scipy.special").logsumexp
        gen = rng(91)
        for t in range(2000):
            n = int(gen.integers(1, 120))
            a = gen.normal(size=n) * [1e-3, 1.0, 30.0, 300.0][t % 4] + 50 * gen.normal()
            if t % 3 == 0:
                a = np.round(a, t % 2)  # ties, at the maximum too
            if t % 5 == 0:
                a[gen.random(n) < 0.3] = -np.inf
            if t % 50 == 0:
                a[int(gen.integers(n))] = np.inf
            assert _logsumexp(a) == float(logsumexp(a)), a

    @pytest.mark.parametrize("a", [[], [-np.inf], [-np.inf, -np.inf], [np.inf, 0.0], [2.5, 2.5, 2.5]])
    def test_edges_match_scipy(self, a):
        logsumexp = pytest.importorskip("scipy.special").logsumexp
        assert _logsumexp(np.array(a, dtype=float)) == float(logsumexp(np.array(a, dtype=float)))


class TestBufferedLogMgf:
    """One buffer reused across a multiplier grid gives the bits of a fresh array per multiplier."""

    @pytest.mark.parametrize("edit", ["finite", "-inf cells", "+inf cell", "all -inf"])
    def test_bits_match_fresh_arrays(self, edit):
        gen = rng(92)
        ps = gen.dirichlet(np.ones(40))
        ps[::9] = 0.0  # cells of weight 0 are dropped
        ps /= ps.sum()
        q = gen.dirichlet(np.ones(6), size=40)
        g = gen.normal(size=(40, 6)) * 3
        if edit == "-inf cells":
            g[gen.random(g.shape) < 0.3] = -np.inf
        elif edit == "+inf cell":
            g[5, 2] = np.inf
        elif edit == "all -inf":
            g[:] = -np.inf
        logw, g_live = _mgf_cells(ps, q, g)
        work = np.empty_like(g_live)
        for lam in np.geomspace(1e-6, 1e8, 200):
            fresh = _log_mgf_cells(logw, lam * g_live)
            assert _log_mgf_cells(logw, np.multiply(lam, g_live, out=work)) == fresh, lam
            terms = logw + lam * g_live
            assert _logsumexp(terms[terms > -np.inf]) == fresh, lam
        if edit == "all -inf":
            assert fresh == -np.inf


class TestHelpers:
    def test_distortion_fg(self):
        nu = np.full((2, 2), 0.25)
        p = np.full((2, 2), 0.5)
        f = np.array([[0.5, 0.1], [0.2, 0.3]])
        assert distortion_ok_fg(nu, p, f, f, 0.0)
        assert not distortion_ok_fg(nu, p, f + 0.2, f, 0.1)

    def test_joint_must_be_a_pmf(self):
        # a negative cell hides behind valid row sums unless the joint itself is checked
        P = np.array([[0.6, -0.1], [0.25, 0.25]])
        p = np.full((2, 2), 0.5)
        g = np.array([[0.1, 0.2], [0.3, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            thm5_expectation_bound("i", P, p, p[0], g, g, None)
        with pytest.raises(ValueError, match="sum to 1"):
            distortion_ok_fg(np.full((2, 2), 5.0), p, g, g, 0.0)
