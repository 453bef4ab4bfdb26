import math

import numpy as np
import pytest

from genbounds.bounds import thm1_bound, thm5_expectation_bound
from genbounds.info import Pmf, kl_divergence
from genbounds.learning import (
    ConstantAlgorithm,
    FiniteLearningProblem,
    GibbsAlgorithm,
    gen_table,
    induced_joint,
)
from genbounds.ratedistortion import DistortionSpec, InfeasibleDistortion, rd_curve
from genbounds.seeding import rng
from genbounds.validation import (
    BookCapError,
    ValidationReport,
    build_hypothesis_book,
    covering_default_instance,
    covering_failure_estimate,
    mc_expectation_validate,
    mc_tail_validate,
)


def gibbs_instance(seed=200, z=2, w=3, beta=1.0):
    gen = rng(seed)
    prob = FiniteLearningProblem(
        loss=gen.uniform(0, 1, size=(z, w)), mu=Pmf(gen.dirichlet(np.ones(z))), bound=1.0
    )
    return prob, GibbsAlgorithm(prior=Pmf.uniform(w), beta=beta)


class TestValidationReport:
    def test_pure_function_of_fields(self):
        rep = ValidationReport(trials=1000, violations=80, target_delta=0.1)
        assert rep.violation_rate == 0.08
        assert rep.binomial_se == pytest.approx(math.sqrt(0.1 * 0.9 / 1000))
        assert rep.passed

    def test_fail_side(self):
        rep = ValidationReport(trials=1000, violations=200, target_delta=0.1)
        assert not rep.passed


class TestMcTail:
    def test_infinite_bound_no_violations(self):
        prob, alg = gibbs_instance(201)
        rep = mc_tail_validate(prob, alg, lambda s, w, post: math.inf, 5, 0.1, 200, seed=1)
        assert rep.violations == 0 and rep.passed

    def test_minus_infinite_bound_all_violations(self):
        prob, alg = gibbs_instance(202)
        rep = mc_tail_validate(prob, alg, lambda s, w, post: -math.inf, 5, 0.1, 200, seed=1)
        assert rep.violations == 200 and not rep.passed

    def test_determinism_across_runs(self):
        prob, alg = gibbs_instance(203)
        f = lambda s, w, post: 0.05
        a = mc_tail_validate(prob, alg, f, 5, 0.1, 300, seed=9)
        b = mc_tail_validate(prob, alg, f, 5, 0.1, 300, seed=9)
        assert a.violations == b.violations

    def test_trials_floor(self):
        prob, alg = gibbs_instance(204)
        with pytest.raises(ValueError):
            mc_tail_validate(prob, alg, lambda s, w, post: 1.0, 5, 0.1, 50, seed=1)

    def test_nan_bound_rejected(self):
        # a NaN bound used to count as no violation and pass
        prob, alg = gibbs_instance(204)
        with pytest.raises(ValueError, match="NaN"):
            mc_tail_validate(prob, alg, lambda s, w, post: math.nan, 5, 0.1, 100, seed=1)

    @pytest.mark.parametrize("n, delta", [(0, 0.1), (-2, 0.1), (5, math.nan), (5, 2.0), (5, 0.0)])
    def test_domain(self, n, delta):
        prob, alg = gibbs_instance(204)
        with pytest.raises(ValueError, match="n must|delta"):
            mc_tail_validate(prob, alg, lambda s, w, post: 1.0, n, delta, 100, seed=1)

    def test_thm1_gibbs_tail_guarantee(self):
        # reduced-size version of the acceptance experiment
        prob, alg = gibbs_instance(205, z=4, w=4, beta=1.0)
        prior = np.asarray(alg.prior)
        sigma = prob.sigma
        n, delta = 25, 0.1

        def bound_fn(s, w, post):
            rate = max(0.0, math.log(post[w] / prior[w]))
            return thm1_bound(rate, sigma, n, delta, 0.0).bound_value

        rep = mc_tail_validate(prob, alg, bound_fn, n, delta, 2000, seed=11)
        assert rep.passed

    def test_thm1_violation_counts_pinned(self):
        # counts recorded when bound_fn recomputed the posterior itself; with
        # sigma shrunk to 0.15x the bound no longer holds and the check fails
        prob, alg = gibbs_instance(205, z=4, w=4, beta=1.0)
        prior = np.asarray(alg.prior)
        n, delta = 25, 0.1
        reps = {}
        for scale in (1.0, 0.15):

            def bound_fn(s, w, post):
                rate = max(0.0, math.log(post[w] / prior[w]))
                return thm1_bound(rate, scale * prob.sigma, n, delta, 0.0).bound_value

            reps[scale] = mc_tail_validate(prob, alg, bound_fn, n, delta, 2000, seed=11)
        assert reps[1.0].violations == 0 and reps[1.0].passed
        assert reps[0.15].violations == 347 and not reps[0.15].passed

    def test_bound_fn_gets_the_drawn_posterior(self):
        prob, alg = gibbs_instance(206, z=3, w=3)
        seen = []

        def bound_fn(s, w, post):
            seen.append(np.array_equal(post, np.asarray(alg.posterior(prob, s))) and post[w] > 0)
            return math.inf

        mc_tail_validate(prob, alg, bound_fn, 6, 0.1, 100, seed=12)
        assert len(seen) == 100 and all(seen)


class TestMcExpectation:
    def test_infinite_bound_passes(self):
        prob, alg = gibbs_instance(206)
        _, _, ok = mc_expectation_validate(prob, alg, math.inf, 4, 200, seed=2)
        assert ok

    def test_nan_bound_and_empty_datasets_rejected(self):
        prob, alg = gibbs_instance(206)
        with pytest.raises(ValueError, match="NaN"):
            mc_expectation_validate(prob, alg, math.nan, 4, 200, seed=2)
        with pytest.raises(ValueError, match="n must"):
            mc_expectation_validate(prob, alg, 1.0, 0, 200, seed=2)

    def test_constant_algorithm_unbiased(self):
        prob, _ = gibbs_instance(207)
        alg = ConstantAlgorithm(Pmf.uniform(3))
        mean, ci, ok = mc_expectation_validate(prob, alg, 1.0, 6, 4000, seed=3)
        assert abs(mean) <= 3 * ci + 1e-12

    def test_gibbs_vs_thm5(self):
        prob, alg = gibbs_instance(208)
        joint, ctx = induced_joint(prob, alg, 3)
        gt = gen_table(prob, ctx)
        P = np.asarray(joint)
        pws = P / P.sum(axis=1, keepdims=True)
        q = P.sum(axis=0)
        rep = thm5_expectation_bound("i", P, pws, q, gt, gt, None, 0.0)
        mean, ci, ok = mc_expectation_validate(prob, alg, rep.bound_value, 3, 2000, seed=4)
        assert ok


class TestHypothesisBook:
    def test_zero_rates_single_entry_prefix(self):
        book = build_hypothesis_book([0.5, 0.5], 4, np.zeros((3, 2)), seed=5)
        assert book.effective_size([0, 1, 2, 0], [0, 1, 0, 1]) == 1

    def test_uniform_entries_distribution(self):
        book = build_hypothesis_book(np.full(4, 0.25), 1, np.full((2, 4), math.log(4000.0)), seed=6)
        assert book.entries.shape[0] >= 3999
        counts = np.bincount(book.entries.reshape(-1), minlength=4) / book.entries.size
        assert np.allclose(counts, 0.25, atol=0.05)

    def test_seed_determinism(self):
        a = build_hypothesis_book([0.3, 0.7], 6, np.full((2, 2), 0.5), seed=7)
        b = build_hypothesis_book([0.3, 0.7], 6, np.full((2, 2), 0.5), seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_cap(self):
        with pytest.raises(BookCapError):
            build_hypothesis_book([0.5, 0.5], 10, np.full((2, 2), 3.0), seed=8)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            build_hypothesis_book([0.5, 0.5], 2, np.full((2, 2), -0.1), seed=9)

    @pytest.mark.parametrize("q_hat", [[0.5, 0.7], [0.5, 0.2], [0.5, math.nan]])
    def test_non_pmf_law_rejected(self, q_hat):
        with pytest.raises(ValueError, match="probabilit"):
            build_hypothesis_book(q_hat, 2, np.full((2, 2), 0.1), seed=9)

    @pytest.mark.parametrize(
        "rates", [np.full((2, 3), 0.1), np.full(2, 0.1), [[0.1, math.inf]], [[0.1, math.nan]]]
    )
    def test_rate_table_shape_and_entries(self, rates):
        with pytest.raises(ValueError, match="rates"):
            build_hypothesis_book([0.5, 0.5], 2, rates, seed=9)


class TestCovering:
    def test_huge_epsilon_censored(self):
        inst = covering_default_instance()
        rows = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], 10.0, [4], 300, seed=10,
            q_hat=inst["q_hat"],
        )
        assert rows[0].censored and rows[0].exponent == math.inf
        assert rows[0].failure_prob == pytest.approx(3 / 300)

    def test_zero_rate_infeasible_distortion_fails_always(self):
        inst = covering_default_instance()
        zero = np.zeros_like(inst["rates"])
        rows = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], zero, -10.0, [4], 300, seed=11,
            q_hat=inst["q_hat"],
        )
        assert rows[0].failures == 300
        assert rows[0].exponent == pytest.approx(0.0, abs=1e-12)

    def test_exponent_monotone_in_rates_shared_seed(self):
        # paired runs with the same seed and same book size: more searchable
        # codewords can only remove failures
        inst = covering_default_instance()
        low = inst["rates"] * np.where(inst["rates"] < inst["rates"].max(), 0.5, 1.0)
        hi = inst["rates"]
        rows_low = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], low, inst["epsilon"], [4, 8], 800,
            seed=12, q_hat=inst["q_hat"],
        )
        rows_hi = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], hi, inst["epsilon"], [4, 8], 800,
            seed=12, q_hat=inst["q_hat"],
        )
        for lo_r, hi_r in zip(rows_low, rows_hi):
            assert hi_r.failures <= lo_r.failures

    def test_condition_spot_verified(self):
        # Eq-8-style sufficient condition at the configured instance: for
        # candidates nu in the KL ball, the best-channel covering rate minus
        # the KL correction stays below E_nu[R]. The configured loss makes
        # the squared gap column-dominant, so a zero-rate constant
        # reproduction is feasible for every nu at eps >= 0.
        inst = covering_default_instance()
        prob, alg, n = inst["prob"], inst["alg"], inst["n"]
        from genbounds.learning import enumerate_types

        types = enumerate_types(prob.z_alphabet_size, n)
        joint, ctx = induced_joint(prob, alg, n, by_type=True)
        g2 = gen_table(prob, ctx, by_type=True) ** 2
        P = np.asarray(joint)
        gen = rng(13)
        candidates = [P]
        for _ in range(40):
            t = P * gen.uniform(0.3, 3.0, size=P.shape)
            t /= t.sum()
            if kl_divergence(t.reshape(-1), P.reshape(-1)) <= math.log(1 / inst["delta"]):
                candidates.append(t)
        assert len(candidates) > 10
        for nu in candidates:
            own = float((nu * g2).sum())
            src = nu.sum(axis=1)
            try:
                needed = rd_curve(
                    src, DistortionSpec(-g2, inst["epsilon"] - own), inst["epsilon"] - own
                ).rate_nats
            except InfeasibleDistortion:
                needed = math.inf
            e_rate = float((nu * inst["rates"]).sum())
            assert needed <= e_rate + 1e-9

    def test_exponent_trend_small(self):
        # reduced-trials version of the acceptance run
        inst = covering_default_instance()
        rows = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
            [4, 8], 2000, seed=7, q_hat=inst["q_hat"],
        )
        assert rows[0].failures >= 5 and rows[1].failures >= 5
        assert rows[1].exponent >= rows[0].exponent

    def test_failure_counts_pinned(self):
        # the counts the full-book draw gave; the prefix draw must keep them
        inst = covering_default_instance()
        rows = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
            [4, 8, 12], 2000, seed=7, q_hat=inst["q_hat"],
        )
        assert [r.failures for r in rows] == [338, 32, 2]

    @pytest.mark.parametrize("trials, m_grid", [(0, [2]), (-3, [2]), (10, [0, 2]), (10, [2, -1])])
    def test_degenerate_input_rejected(self, trials, m_grid):
        inst = covering_default_instance()
        with pytest.raises(ValueError, match="trials|m_grid"):
            covering_failure_estimate(
                inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
                m_grid, trials, seed=0, q_hat=inst["q_hat"],
            )

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"rates": -1.0}, "rates"),  # all rates -1 at m = 2 drew 18 failures in 50 trials
            ({"rates": math.nan}, "rates"),
            ({"epsilon": math.nan}, "epsilon"),  # every row came back censored with 0 failures
            ({"q_hat": [0.5, 0.2]}, "probabilit"),
            ({"q_hat": [0.5, 0.3, 0.2]}, "q_hat"),  # an IndexError inside the trials
        ],
    )
    def test_book_inputs_checked(self, change, match):
        inst = covering_default_instance()
        args = {"rates": inst["rates"], "epsilon": inst["epsilon"], "q_hat": inst["q_hat"]}
        args.update(change)
        if np.ndim(args["rates"]) == 0:
            args["rates"] = np.full_like(inst["rates"], args["rates"])
        with pytest.raises(ValueError, match=match):
            covering_failure_estimate(
                inst["prob"], inst["alg"], inst["n"], args["rates"], args["epsilon"],
                [2], 50, seed=0, q_hat=args["q_hat"],
            )

    @pytest.mark.parametrize("j, size, m", [(1, 2963, 12), (37, 2963, 12), (5, 6, 3), (7, 7, 4)])
    def test_prefix_draw_matches_full_book(self, j, size, m):
        # a trial draws only its searchable prefix; the stream must yield the
        # same rows it would have put first in the whole book
        a, b = rng(7, 2, 5), rng(7, 2, 5)
        for gen in (a, b):
            gen.random(2 * m)  # the pair draws that precede the book
        assert np.array_equal(a.random((j, m)), b.random((size, m))[:j])
