import math

import numpy as np
import pytest

from genbounds.bounds import thm1_bound, thm5_expectation_bound
from genbounds.info import Pmf, kl_divergence
from genbounds import learning
from genbounds.learning import (
    FiniteLearningProblem,
    GibbsAlgorithm,
    _symbol_counts,
    enumerate_types,
    gen_table,
    induced_joint,
)
from genbounds.ratedistortion import DistortionSpec, InfeasibleDistortion, rd_curve
from genbounds.seeding import rng, rngs, streams
from genbounds import validation
from genbounds.validation import (
    _BLOCK,
    _FIRST_ENTRIES,
    BookCapError,
    ValidationReport,
    covering_default_instance,
    covering_failure_estimate,
    mc_expectation_validate,
    mc_tail_validate,
)

from conftest import ConstantAlgorithm


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

    def test_pass_rule_edge(self):
        # pass iff rate <= delta + 3 se: at delta = 1/2 and 16 trials, se = 1/8 and the edge 7/8 is exact
        assert ValidationReport(trials=16, violations=14, target_delta=0.5).passed
        assert not ValidationReport(trials=16, violations=15, target_delta=0.5).passed


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
        # once per drawn (type, w) cell, with the type's posterior row in the whole type table
        prob, alg = gibbs_instance(206, z=3, w=3)
        types = enumerate_types(3, 6)
        posts = alg.posteriors(prob, types)
        seen = []

        def bound_fn(s, w, post):
            i = int(np.flatnonzero((types == np.bincount(s, minlength=3)).all(axis=1))[0])
            seen.append((i, w, np.array_equal(post, posts[i]) and post[w] > 0))
            return math.inf

        mc_tail_validate(prob, alg, bound_fn, 6, 0.1, 100, seed=12)
        drawn = {(type_of(s, 3), w) for s, w, _, _ in per_trial_mc(prob, alg, 6, 100, seed=12)}
        assert len(seen) == len(drawn) < 100 and all(ok for _, _, ok in seen)
        assert {(tuple(types[i].tolist()), w) for i, w, _ in seen} == drawn


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

    def test_bound_below_the_interval_fails(self):
        # pass iff mean - 3 ci <= bound: a bound at that edge passes, the next float below it fails
        prob, alg = gibbs_instance(208)
        mean, ci, _ = mc_expectation_validate(prob, alg, math.inf, 3, 2000, seed=4)
        edge = mean - 3 * ci
        assert ci > 0 and mc_expectation_validate(prob, alg, edge, 3, 2000, seed=4) == (mean, ci, True)
        assert mc_expectation_validate(prob, alg, math.nextafter(edge, -math.inf), 3, 2000, seed=4) == (mean, ci, False)

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


class TestBook:
    """The covering simulator's book: its size, its searchable prefix, its entries and its checks."""

    @staticmethod
    def covering(rates=None, q_hat=None, m_grid=(2,)):
        inst = covering_default_instance()
        return covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"] if rates is None else rates,
            inst["epsilon"], list(m_grid), 50, 0, q_hat=inst["q_hat"] if q_hat is None else q_hat,
        )

    def test_zero_rates_single_entry_prefix(self):
        rates = np.zeros((3, 2))
        size = validation._book_size(4, rates)
        assert size == 1
        total = rates[[0, 1, 2, 0], [0, 1, 0, 1]].sum(keepdims=True)
        assert validation._searchable_prefix(total, size).tolist() == [1]
        # one entry even when the book holds more; the book size caps a long one
        assert validation._searchable_prefix(np.array([0.0, math.log(7.5), 800.0]), 50).tolist() == [1, 7, 50]

    def test_uniform_entries_distribution(self):
        size = validation._book_size(1, np.full((2, 4), math.log(4000.0)))
        assert size >= 3999
        entries = validation._inverse_cdf(np.cumsum(np.full(4, 0.25)), rng(6).random((size, 1)))
        counts = np.bincount(entries.reshape(-1), minlength=4) / entries.size
        assert np.allclose(counts, 0.25, atol=0.05)

    @pytest.mark.parametrize("q", [[0.95, 0.05], [0.2, 0.0, 0.5, 0.0, 0.3], [1.0], [0.0, 1.0], [0.1] * 10])
    def test_book_entries_equal_the_inverse_cdf(self, q):
        # zero-mass cells repeat a cdf value; u on a cdf value, at 0 and past the last entry are the edges
        q_cdf = np.cumsum(q)
        u = np.concatenate([rng(8).random(2000), q_cdf, np.nextafter(q_cdf, 0), [0.0, q_cdf[-1] + 1e-16]])
        got = validation._draw(q_cdf, u.reshape(2, -1))
        assert got.dtype == np.intp
        assert np.array_equal(got, validation._inverse_cdf(q_cdf, u.reshape(2, -1)))

    def test_seed_determinism(self):
        inst = covering_default_instance()
        args = (inst["prob"], inst["alg"], inst["n"], np.full((3, 2), 0.2), 0.0, [6], 300, 7, [0.3, 0.7])
        (m, a), = validation._covering_flags(*args)
        (_, b), = validation._covering_flags(*args)
        assert m == 6 and np.array_equal(a, b) and 0 < a.sum() < a.size

    def test_cap(self):
        # e^(10 * 3) sequences exceed BOOK_CAP before any trial is drawn
        with pytest.raises(BookCapError, match="exceeds the cap"):
            self.covering(rates=np.full((3, 2), 3.0), m_grid=[10])

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            self.covering(rates=np.full((3, 2), -0.1))

    @pytest.mark.parametrize("q_hat", [[0.5, 0.7], [0.5, 0.2], [0.5, math.nan]])
    def test_non_pmf_law_rejected(self, q_hat):
        with pytest.raises(ValueError, match="probabilit"):
            self.covering(q_hat=q_hat)

    @pytest.mark.parametrize(
        "rates",
        [np.full((3, 3), 0.1), np.full(3, 0.1), [[0.1, math.inf]] + [[0.1, 0.1]] * 2,
         [[0.1, math.nan]] + [[0.1, 0.1]] * 2],
    )
    def test_rate_table_shape_and_entries(self, rates):
        with pytest.raises(ValueError, match="rates"):
            self.covering(rates=rates)


class TestCovering:
    def test_huge_epsilon_censored(self):
        inst = covering_default_instance()
        rows = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], 10.0, [4], 300, seed=10,
            q_hat=inst["q_hat"],
        )
        assert rows[0].censored and rows[0].exponent == math.inf
        assert rows[0].failure_prob == pytest.approx(3 / 300)

    @pytest.mark.parametrize("trials, bound", [(1, 1.0), (2, 1.0), (3, 1.0), (4, 0.75)])
    def test_censored_failure_prob_is_a_probability(self, trials, bound):
        # the rule-of-three bound 3/trials passes 1 below three trials
        inst = covering_default_instance()
        [row] = covering_failure_estimate(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], 10.0, [4], trials, seed=10, q_hat=inst["q_hat"]
        )
        assert row.censored and row.failures == 0 and row.failure_prob == bound

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
        types = enumerate_types(prob.z_alphabet_size, n)
        joint, ctx = induced_joint(prob, alg, n)
        g2 = gen_table(prob, ctx) ** 2
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


# ---------------------------------------------------------------------------
# the batched trial paths against the per-trial loops they replaced


def per_trial_mc(prob, alg, n, trials, seed):
    """The per-trial MC loop, kept as the oracle: (s, w, post, gen error) per trial.

    Each trial draws s and w one at a time; its posterior and gen errors are its type's rows of the whole
    type table, as `induced_joint` and `gen_table` hold them (a one-row `posterior` or `gen_errors` call
    takes BLAS's gemv path and can differ in the last bit).
    """
    z = prob.z_alphabet_size
    types = enumerate_types(z, n)
    row = {counts.tobytes(): i for i, counts in enumerate(types)}
    posts, gens = alg.posteriors(prob, types), gen_table(prob, types)
    out = []
    for gen in rngs(seed, count=trials):
        s = gen.choice(z, size=n, p=np.asarray(prob.mu))
        i = row[np.bincount(s, minlength=z).tobytes()]
        w = int(gen.choice(posts.shape[1], p=posts[i]))
        out.append((s, w, posts[i], float(gens[i, w])))
    return out


def per_trial_covering(prob, alg, n, rates, epsilon, m_grid, trials, seed, q_hat):
    """The per-trial covering loop, kept as the oracle: failure flags per m."""
    joint, types = induced_joint(prob, alg, n)
    post_cdf = np.cumsum(alg.posteriors(prob, types), axis=1)
    g2 = gen_table(prob, types) ** 2
    q_cdf = np.cumsum(q_hat)
    type_cdf = np.cumsum(np.asarray(joint.marginal_s()))
    flags = []
    for mi, m in enumerate(m_grid):
        size = validation._book_size(m, rates)
        fails = []
        for gen in rngs(seed, mi, count=trials):
            t_seq = validation._inverse_cdf(type_cdf, gen.random(m))
            w_seq = (post_cdf[t_seq, :-1] <= gen.random(m)[:, None]).sum(axis=1)  # Generator.choice's rule
            j_max = max(1, min(math.floor(math.exp(min(float(rates[t_seq, w_seq].sum()), 700.0))), size))
            entries = validation._inverse_cdf(q_cdf, gen.random((j_max, m)))
            own = float(g2[t_seq, w_seq].mean())
            repro = g2[t_seq[None, :], entries].mean(axis=1)
            fails.append(own - float(repro.max()) > epsilon)
        flags.append(np.array(fails))
    return flags


def mc_case(name):
    if name == "zero-mass symbol and hypothesis":
        prob = FiniteLearningProblem(
            loss=rng(210).uniform(0, 1, size=(5, 3)), mu=Pmf(np.array([0.4, 0.0, 0.35, 0.25, 0.0])), bound=1.0
        )
        return prob, GibbsAlgorithm(prior=Pmf(np.array([0.5, 0.0, 0.5])), beta=2.0), 6, 300
    if name == "n = 1":
        return (*gibbs_instance(211, z=3, w=3), 1, 300)
    return (*gibbs_instance(212, z=4, w=4), 25, 2 * _BLOCK + 37)


MC_CASES = ["zero-mass symbol and hypothesis", "n = 1", "three blocks"]


class CountingGibbs(GibbsAlgorithm):
    """A Gibbs learner that records the count rows of every call of its kernel, as a list of tuples per call."""

    def __init__(self, prior, beta):
        super().__init__(prior, beta)
        self.calls = []

    def posteriors(self, prob, counts):
        self.calls.append([tuple(row) for row in np.asarray(counts).tolist()])
        return super().posteriors(prob, counts)


def evaluated(call):
    """The types one kernel call evaluates: its rows are distinct, or one type twice (a one-row table takes gemv)."""
    assert len(set(call)) == len(call) or (len(call) == 2 and call[0] == call[1])
    return set(call)


def new_types(drawn, z, block):
    """Per block of `block` datasets, the types that no earlier block drew."""
    seen, out = set(), []
    for start in range(0, len(drawn), block):
        types = {tuple(np.bincount(s, minlength=z).tolist()) for s in drawn[start : start + block]}
        out.append(types - seen)
        seen |= types
    return out


def type_of(s, z):
    return tuple(np.bincount(s, minlength=z).tolist())


def first_draws(want, z):
    """{(type, w) cell: its first trial} over the oracle's trials, in first-draw order."""
    cells = {}
    for t, (s, w, _, _) in enumerate(want):
        cells.setdefault((type_of(s, z), w), t)
    return cells


def by_cell(want, z, shift=lambda x: x):
    """A bound_fn returning shift(the oracle's gen error) of the drawn cell; its calls, (s, w, post), go to `.calls`."""
    gen_of = {(type_of(s, z), w): ge for s, w, _, ge in want}

    def bound_fn(s, w, post):
        bound_fn.calls.append((s.copy(), w, post.copy()))
        return shift(gen_of[type_of(s, z), w])

    bound_fn.calls = []
    return bound_fn


def below(x):
    return math.nextafter(x, -math.inf)


class TestBatchedMc:
    @pytest.mark.parametrize("case", MC_CASES)
    def test_trials_equal_the_per_trial_loop(self, case):
        prob, alg, n, trials = mc_case(case)
        want = per_trial_mc(prob, alg, n, trials, seed=21)
        at_oracle = by_cell(want, prob.z_alphabet_size)
        # the bound is each cell's gen error: no trial may exceed it ...
        assert mc_tail_validate(prob, alg, at_oracle, n, 0.5, trials, seed=21).violations == 0
        # ... bound_fn ran once per cell, in first-draw order, on that trial's dataset and posterior ...
        firsts = list(first_draws(want, prob.z_alphabet_size).values())
        assert len(at_oracle.calls) == len(firsts) < trials
        for (s, w, post), t in zip(at_oracle.calls, firsts):
            s0, w0, post0, _ = want[t]
            assert np.array_equal(s, s0) and type(w) is int and w == w0 and np.array_equal(post, post0)
        # ... and every trial exceeds the next float below it, so the gen errors are equal bit for bit
        under = by_cell(want, prob.z_alphabet_size, below)
        assert mc_tail_validate(prob, alg, under, n, 0.5, trials, seed=21).violations == trials

    @pytest.mark.parametrize("bad", [math.nan, "high", RuntimeError("bound_fn failed")], ids=["nan", "text", "raise"])
    def test_bad_bound_surfaces_at_its_first_trial(self, bad):
        # a loop over every trial would stop at the first trial of the bad cell; here a cell first drawn in the
        # second block. The cells before it ran, each once, and the bad one ran on that trial's dataset
        prob, alg, n, trials = mc_case("three blocks")
        want = per_trial_mc(prob, alg, n, trials, seed=22)
        cells = list(first_draws(want, 4).items())
        k = next(k for k, (_, t) in enumerate(cells) if t >= _BLOCK)
        seen = []

        def bound_fn(s, w, post):
            seen.append((type_of(s, 4), w, s.copy()))
            if (type_of(s, 4), w) != cells[k][0]:
                return math.inf
            if isinstance(bad, Exception):
                raise bad
            return bad

        with pytest.raises(type(bad) if isinstance(bad, Exception) else ValueError, match="bound_fn"):
            mc_tail_validate(prob, alg, bound_fn, n, 0.1, trials, seed=22)
        assert [(c, w) for c, w, _ in seen] == [cell for cell, _ in cells[: k + 1]]
        assert np.array_equal(seen[-1][2], want[cells[k][1]][0])

    @pytest.mark.parametrize("case", MC_CASES)
    def test_expectation_equals_the_per_trial_loop(self, case):
        prob, alg, n, trials = mc_case(case)
        vals = np.array([ge for _, _, _, ge in per_trial_mc(prob, alg, n, trials, seed=23)])
        mean, ci, _ = mc_expectation_validate(prob, alg, 1.0, n, trials, seed=23)
        assert mean == float(vals.mean()) and ci == float(vals.std(ddof=1) / math.sqrt(trials))

    def test_one_posterior_per_dataset_type(self, monkeypatch):
        prob, _ = gibbs_instance(213, z=3, w=3)
        alg = CountingGibbs(Pmf.uniform(3), 1.0)
        trials, n = 2 * _BLOCK + 37, 4
        drawn = [s for s, _, _, _ in per_trial_mc(prob, GibbsAlgorithm(Pmf.uniform(3), 1.0), n, trials, seed=24)]
        new = new_types(drawn, 3, _BLOCK)
        assert len(new) == 3 and new[1] and len(set().union(*new)) < trials
        counted = []
        monkeypatch.setattr(validation, "_symbol_counts", lambda rows, z: counted.append(len(rows)) or _symbol_counts(rows, z))
        monkeypatch.setattr(learning, "_dataset_counts", lambda *a: pytest.fail("a dataset was counted again"))
        for run in (
            lambda: mc_tail_validate(prob, alg, lambda s, w, post: math.inf, n, 0.1, trials, seed=24),
            lambda: mc_expectation_validate(prob, alg, 1.0, n, trials, seed=24),
        ):
            alg.calls.clear()
            counted.clear()
            run()
            # one kernel call per block that drew a new type, on exactly those types
            assert [evaluated(call) for call in alg.calls] == [types for types in new if types]
            # each block's datasets are counted once, together
            assert counted == [_BLOCK, _BLOCK, 37]

    def test_lone_new_type_reads_the_type_table(self, monkeypatch):
        # in blocks of 16, two blocks each draw one type that no earlier block drew; it is passed to the kernel
        # twice, as a one-row table's gemv path differs in the last bit for both types (OpenBLAS, Haswell kernels)
        prob, alg = gibbs_instance(206, z=4, w=4)
        n, trials = 5, 300
        monkeypatch.setattr(validation, "_BLOCK", 16)
        want = per_trial_mc(prob, alg, n, trials, seed=29)
        counting = CountingGibbs(alg.prior, alg.beta)
        at_oracle = by_cell(want, 4)
        assert mc_tail_validate(prob, counting, at_oracle, n, 0.5, trials, seed=29).violations == 0
        lone = [call[0] for call in counting.calls if len(call) == 2 and call[0] == call[1]]
        assert {(3, 1, 0, 1), (3, 2, 0, 0)} <= set(lone)
        firsts = first_draws(want, 4).values()
        assert all(w == want[t][1] and np.array_equal(post, want[t][2]) for (_, w, post), t in zip(at_oracle.calls, firsts))
        assert mc_tail_validate(prob, alg, by_cell(want, 4, below), n, 0.5, trials, seed=29).violations == trials

    def test_full_type_cache_evaluates_again(self, monkeypatch):
        # with room for one block's types, the table is emptied before every later block: each block evaluates
        # its own types again and calls bound_fn again on each of its cells, with the same draws
        prob, alg, n, _ = mc_case("three blocks")
        trials = 17 * 32  # full blocks: a short last one could fit beside the types the table holds
        monkeypatch.setattr(validation, "_BLOCK", 32)
        monkeypatch.setattr(validation, "_TYPE_CACHE_FLOATS", 4 * prob.w_alphabet_size * 32)
        want = per_trial_mc(prob, alg, n, trials, seed=28)
        counting = CountingGibbs(alg.prior, alg.beta)
        at_oracle = by_cell(want, 4)
        assert mc_tail_validate(prob, counting, at_oracle, n, 0.1, trials, seed=28).violations == 0
        blocks = [want[start : start + 32] for start in range(0, trials, 32)]
        assert [evaluated(call) for call in counting.calls] == [{type_of(s, 4) for s, _, _, _ in b} for b in blocks]
        firsts = [start + t for start, b in zip(range(0, trials, 32), blocks) for t in first_draws(b, 4).values()]
        assert len(at_oracle.calls) == len(firsts) > len(first_draws(want, 4))
        for (s, w, post), t in zip(at_oracle.calls, firsts):
            assert np.array_equal(s, want[t][0]) and w == want[t][1] and np.array_equal(post, want[t][2])
        assert mc_tail_validate(prob, alg, by_cell(want, 4, below), n, 0.1, trials, seed=28).violations == trials
        mean, _, _ = mc_expectation_validate(prob, counting, 1.0, n, trials, seed=28)
        assert mean == float(np.mean([ge for _, _, _, ge in want]))


class TestBatchedCovering:
    @pytest.mark.parametrize("epsilon", [None, 0.0])
    def test_flags_equal_the_per_trial_loop(self, epsilon, monkeypatch):
        inst = covering_default_instance()
        eps = inst["epsilon"] if epsilon is None else epsilon
        m_grid, trials = [1, 2, 4, 8, 12], 600
        # m = 1 and 2 have books smaller than the entries drawn up front
        assert [validation._book_size(m, inst["rates"]) < _FIRST_ENTRIES for m in m_grid] == [True] * 2 + [False] * 3
        redrawn = []
        monkeypatch.setattr(validation, "streams", lambda *path: redrawn.append(path) or streams(*path))
        got = validation._covering_flags(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], eps, m_grid, trials, 25, inst["q_hat"]
        )
        want = per_trial_covering(
            inst["prob"], inst["alg"], inst["n"], inst["rates"], eps, m_grid, trials, 25, inst["q_hat"]
        )
        assert [m for m, _ in got] == m_grid
        for (_, fails), want_fails in zip(got, want):
            assert np.array_equal(fails, want_fails)
        assert sum(f.sum() for f in want) > 0
        # the rest of a long prefix was searched on some trials at m = 4, 8 and 12
        assert {path[1] for path in redrawn} == {2, 3, 4}
        # each flush keys one stream per queued trial: rng(seed, mi, t)
        assert all(path[0] == 25 and path[2].dtype == np.uint32 for path in redrawn)

    @pytest.mark.parametrize("epsilon", [None, 0.0])
    def test_prefix_one_past_the_first_entries(self, epsilon):
        # every prefix is K + 1 entries long, so the last one settles each trial that the first K miss
        inst = covering_default_instance()
        eps = inst["epsilon"] if epsilon is None else epsilon
        rates = np.full_like(inst["rates"], math.log(_FIRST_ENTRIES + 1.5) / 3)
        args = (inst["prob"], inst["alg"], inst["n"], rates, eps, [3], 600, 27, inst["q_hat"])
        [(_, got)], [want] = validation._covering_flags(*args), per_trial_covering(*args)
        assert validation._book_size(3, rates) == _FIRST_ENTRIES + 1
        assert np.array_equal(got, want) and 0 < got.sum() < 600


class TestCoveringFlushes:
    """Long trials queue across the blocks of one m and are searched in flushes of bounded size."""

    def test_flush_boundaries(self, monkeypatch):
        inst = covering_default_instance()
        monkeypatch.setattr(validation, "_BLOCK", 4)
        budget = 4 * (2 + _FIRST_ENTRIES)  # book entries per flush, as many floats as a block's first draw
        flushes = []
        search = validation._search_rest

        def record(seed, mi, ids, seqs, left, *rest):
            flushes.append((mi, ids.tolist(), left.tolist()))
            return search(seed, mi, ids, seqs, left, *rest)

        monkeypatch.setattr(validation, "_search_rest", record)
        # a negative epsilon leaves nearly every trial unsettled by its first K entries
        args = (inst["prob"], inst["alg"], inst["n"], inst["rates"], -0.005, [2, 4, 8], 60, 31, inst["q_hat"])
        got, want = validation._covering_flags(*args), per_trial_covering(*args)
        for (_, fails), want_fails in zip(got, want):
            assert np.array_equal(fails, want_fails)
        assert 0 < got[2][1].sum() < 60
        by_m = {mi: [(ids, left) for i, ids, left in flushes if i == mi] for mi in range(3)}
        assert by_m[0] == []  # m = 2: a book of 3 entries, so no trial is long
        assert len(by_m[1]) == 1  # m = 4: three long trials, settled at the end of the m
        assert len(by_m[2]) >= 10  # m = 8: many flushes
        for batches in by_m.values():
            ids = [t for batch, _ in batches for t in batch]
            assert ids == sorted(set(ids))  # each long trial is searched once, in trial order
            # a flush stops only where the next trial would pass the budget
            for (_, left), (_, after) in zip(batches, batches[1:]):
                assert sum(left) + after[0] > budget
            for _, left in batches:
                assert sum(left) <= budget or len(left) == 1
        # a trial larger than the budget is flushed alone
        assert any(len(left) == 1 and left[0] > budget for _, left in by_m[2])
        assert any(len(left) > 1 for _, left in by_m[2])


class TestSizesAreWholeNumbers:
    @pytest.mark.parametrize("n, trials, match", [(5, 150.5, "trials"), (5.5, 150, "n must"), (5.0, 150, "n must")])
    def test_mc_sizes(self, n, trials, match):
        prob, alg = gibbs_instance(214)
        with pytest.raises(ValueError, match=match):
            mc_tail_validate(prob, alg, lambda s, w, post: 1.0, n, 0.1, trials, seed=1)
        with pytest.raises(ValueError, match=match):
            mc_expectation_validate(prob, alg, 1.0, n, trials, seed=1)

    @pytest.mark.parametrize("m_grid, trials, match", [([4.5], 50, "m_grid"), ([4], 50.5, "trials"), ([], 50, "m_grid")])
    def test_covering_sizes(self, m_grid, trials, match):
        inst = covering_default_instance()
        with pytest.raises(ValueError, match=match):
            covering_failure_estimate(
                inst["prob"], inst["alg"], inst["n"], inst["rates"], inst["epsilon"],
                m_grid, trials, seed=0, q_hat=inst["q_hat"],
            )

    @pytest.mark.parametrize("value", [None, np.array([0.5, 0.5]), np.array([0.5]), "high"])
    def test_bound_fn_must_return_one_real_number(self, value):
        prob, alg = gibbs_instance(215)
        with pytest.raises(ValueError, match="bound_fn"):
            mc_tail_validate(prob, alg, lambda s, w, post: value, 5, 0.1, 100, seed=1)
