import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from genbounds.cli import main
from genbounds.info import Pmf, mutual_information
from genbounds.learning import (
    Algorithm,
    Dataset,
    EnumerationCapError,
    FiniteLearningProblem,
    GibbsAlgorithm,
    enumerate_types,
    gen_errors,
    gen_table,
    induced_joint,
    population_risks,
    sample_dataset,
)
from genbounds.seeding import rng

from conftest import ConstantAlgorithm, bank_problem, rowmajor_induced_joint, rowmajor_posteriors


def types_by_loop(z, n):
    """The type table by one bincount per composition, in combinations_with_replacement order."""
    combs = itertools.combinations_with_replacement(range(z), n)
    return np.asarray([np.bincount(c, minlength=z) for c in combs], dtype=int)


def type_rows(types, datasets):
    """The row of `types` that holds each dataset's symbol counts."""
    counts = np.stack([np.bincount(s, minlength=types.shape[1]) for s in datasets])
    return np.array([np.flatnonzero((types == c).all(axis=1))[0] for c in counts])


def gen_by_loop(prob, s):
    """gen(s, w) per hypothesis: sum_z mu(z) loss(z, w) minus the mean loss over the samples."""
    mu = np.asarray(prob.mu)
    return np.array([
        sum(mu[z] * prob.loss[z, w] for z in range(prob.z_alphabet_size)) - np.mean([prob.loss[z, w] for z in s])
        for w in range(prob.w_alphabet_size)
    ])


def small_problem(seed=11, z=4, w=3, bound=None):
    gen = rng(seed)
    loss = gen.uniform(0.0, 1.0, size=(z, w))
    return FiniteLearningProblem(loss=loss, mu=Pmf(gen.dirichlet(np.ones(z))), bound=bound)


class TestRisks:
    def test_zero_loss(self):
        prob = FiniteLearningProblem(loss=np.zeros((2, 2)), mu=Pmf(np.array([0.5, 0.5])))
        assert np.array_equal(population_risks(prob), [0.0, 0.0])
        assert np.array_equal(gen_errors(prob, [0, 1]), [0.0, 0.0])

    def test_uniform_mu_symbol_loss(self):
        prob = FiniteLearningProblem(
            loss=np.array([[0.0, 0.0], [1.0, 1.0]]), mu=Pmf(np.array([0.5, 0.5]))
        )
        assert population_risks(prob) == pytest.approx([0.5, 0.5])

    def test_matches_brute_force(self):
        prob = small_problem()
        mu = np.asarray(prob.mu)
        zs, ws = range(prob.z_alphabet_size), range(prob.w_alphabet_size)
        brute = [sum(mu[z] * prob.loss[z, w] for z in zs) for w in ws]
        assert population_risks(prob) == pytest.approx(brute, abs=1e-12)

    def test_empirical_matches_loop(self):
        # a dataset's gen row and its type's row of the gen table, against the per-sample loop
        prob = small_problem()
        gen = rng(12)
        s = gen.integers(0, prob.z_alphabet_size, size=9)
        want = gen_by_loop(prob, s)
        assert gen_errors(prob, s) == pytest.approx(want, abs=1e-12)
        counts = np.bincount(s, minlength=prob.z_alphabet_size)[None]
        assert gen_table(prob, counts)[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "loss, bound",
        [([[0.0, math.nan], [0.5, 0.2]], None), ([[0.0, math.inf], [0.5, 0.2]], None),
         ([[0.0, 0.1], [0.5, 0.2]], math.nan), ([[0.0, 0.1], [0.5, 0.2]], math.inf)],
    )
    def test_non_finite_rejected(self, loss, bound):
        with pytest.raises(ValueError):
            FiniteLearningProblem(loss=np.array(loss), mu=Pmf(np.array([0.5, 0.5])), bound=bound)

    def test_index_out_of_range(self):
        # a sample past the alphabet, and a type table with a column past it
        prob = small_problem()
        with pytest.raises(ValueError, match="out of range"):
            gen_errors(prob, [prob.z_alphabet_size])
        with pytest.raises(ValueError, match="symbol counts per row"):
            gen_table(prob, enumerate_types(prob.z_alphabet_size + 1, 2))


class TestSampleIndices:
    """Sample indices are whole numbers; a float used to be truncated and an empty dataset gave NaN."""

    def test_gen_errors_rejects_fractional_indices(self):
        with pytest.raises(ValueError, match="whole numbers"):
            gen_errors(small_problem(), [0.9, 1.7])

    def test_gen_errors_rejects_an_empty_dataset(self):
        with pytest.raises(ValueError, match="at least one sample"):
            gen_errors(small_problem(), [])

    def test_dataset_rejects_fractional_indices(self):
        with pytest.raises(ValueError, match="whole numbers"):
            Dataset([0.9, 1.7])

    def test_gen_table_rejects_fractional_contexts(self):
        with pytest.raises(ValueError, match="whole numbers"):
            gen_table(small_problem(), np.array([[0.9, 1.7], [0.0, 1.0]]))

    def test_gen_table_rejects_empty_contexts(self):
        with pytest.raises(ValueError, match="non-empty"):
            gen_table(small_problem(), np.zeros((0, 3), dtype=int))

    @pytest.mark.parametrize("bad", [[0.0, math.nan], [math.inf], ["1"]])
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            gen_errors(small_problem(), bad)

    def test_whole_floats_read_as_ints(self):
        prob = small_problem()
        assert np.array_equal(gen_errors(prob, [0.0, 2.0]), gen_errors(prob, [0, 2]))
        assert Dataset([0.0, 2.0]).samples.dtype == np.dtype(int)


class TestGenError:
    def test_matched_empirical_measure(self):
        prob = FiniteLearningProblem(
            loss=np.array([[0.2, 0.9], [0.6, 0.1]]), mu=Pmf(np.array([0.5, 0.5]))
        )
        assert gen_errors(prob, [0, 1, 0, 1]) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_matches_recomputation(self):
        prob = small_problem(13)
        gen = rng(14)
        s = gen.integers(0, prob.z_alphabet_size, size=7)
        assert gen_errors(prob, s) == pytest.approx(gen_by_loop(prob, s), abs=1e-12)

    def test_bounded_loss_bounds_gen(self):
        prob = small_problem(15, bound=1.0)
        gen = rng(16)
        for _ in range(50):
            s = gen.integers(0, prob.z_alphabet_size, size=5)
            assert np.all(np.abs(gen_errors(prob, s)) <= 1.0)


class TestGibbs:
    def test_beta_zero_returns_prior(self):
        prob = small_problem(17)
        prior = Pmf(np.array([0.2, 0.3, 0.5]))
        post = GibbsAlgorithm(prior, 0.0).posterior(prob, [0, 1])
        assert np.allclose(np.asarray(post), np.asarray(prior))

    def test_large_beta_concentrates(self):
        prob = small_problem(18)
        s = [0, 1, 2, 3]
        risks = prob.loss[s].mean(axis=0)
        post = GibbsAlgorithm(Pmf.uniform(3), 5e3).posterior(prob, s)
        assert np.asarray(post)[int(np.argmin(risks))] > 0.999

    def test_two_hypothesis_hand_ratio(self):
        prob = FiniteLearningProblem(
            loss=np.array([[0.1, 0.7], [0.9, 0.2]]), mu=Pmf(np.array([0.4, 0.6]))
        )
        s = [0, 0, 1]
        n = 3
        r0, r1 = prob.loss[s].mean(axis=0)
        z = math.exp(-n * r0) + math.exp(-n * r1)
        post = GibbsAlgorithm(Pmf.uniform(2), 1.0).posterior(prob, s)
        assert np.asarray(post)[0] == pytest.approx(math.exp(-n * r0) / z, abs=1e-12)

    def test_data_indexed_loss_offset_invariance(self):
        prob = small_problem(19)
        gen = rng(20)
        s = gen.integers(0, prob.z_alphabet_size, size=6)
        offsets = gen.uniform(0, 1, size=prob.z_alphabet_size)
        shifted = FiniteLearningProblem(
            loss=prob.loss + offsets[:, None], mu=prob.mu
        )
        a = GibbsAlgorithm(Pmf.uniform(3), 1.7).posterior(prob, s)
        b = GibbsAlgorithm(Pmf.uniform(3), 1.7).posterior(shifted, s)
        assert np.allclose(np.asarray(a), np.asarray(b), atol=1e-12)

    def test_zero_prior_rejected(self):
        prob = small_problem(21)
        with pytest.raises(ValueError):
            GibbsAlgorithm(np.zeros(3), 1.0).posterior(prob, [0])

    @pytest.mark.parametrize("prior", [[-0.5, 1.5], [0.5, 0.6], [math.nan, 1.0]])
    def test_prior_must_be_a_pmf(self, prior):
        # unchecked, [-0.5, 1.5] would come back as the posterior Pmf([0, 1])
        prob = small_problem(21, w=2)
        with pytest.raises(ValueError):
            GibbsAlgorithm(prior, 1.0).posterior(prob, [0, 1])

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -1.0])
    def test_bad_beta_rejected(self, beta):
        prob = small_problem(21)
        with pytest.raises(ValueError, match="beta"):
            GibbsAlgorithm(Pmf.uniform(3), beta)


def gibbs_row(prob, prior, beta, counts):
    """One Gibbs posterior by the 1-D formula on a count vector."""
    pr = np.asarray(prior, dtype=float)
    logits = np.where(pr > 0, np.log(np.clip(pr, 1e-300, None)), -np.inf) - beta * (counts @ prob.loss)
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=-1, keepdims=True)


class GibbsByRow(Algorithm):
    """Exchangeable learner whose only kernel runs the 1-D Gibbs formula row by row."""

    def __init__(self, prior, beta):
        self.prior, self.beta = prior, beta

    def posteriors(self, prob, counts):
        return np.stack([gibbs_row(prob, self.prior, self.beta, c) for c in np.asarray(counts, dtype=float)])


class TestPosteriors:
    def test_base_fallback_matches_gibbs(self):
        # a learner that defines only `posteriors` gets `posterior` and `posterior_from_counts` from the base
        prob = small_problem(30, z=3, w=3)
        gibbs, by_row = GibbsAlgorithm(Pmf.uniform(3), 1.3), GibbsByRow(Pmf.uniform(3), 1.3)
        j_gibbs, ctx = induced_joint(prob, gibbs, 5)
        j_base, ctx_base = induced_joint(prob, by_row, 5)
        assert np.array_equal(ctx, ctx_base)
        assert np.allclose(np.asarray(j_base), np.asarray(j_gibbs), rtol=0, atol=1e-12)
        s = np.array([2, 0, 1, 1, 0])
        row = np.asarray(j_gibbs)[type_rows(ctx, [s])[0]]
        for alg in (gibbs, by_row):
            post = np.asarray(alg.posterior(prob, s))
            assert np.allclose(post, row / row.sum(), rtol=0, atol=1e-12)
            assert np.array_equal(np.asarray(alg.posterior_from_counts(prob, [2, 2, 1])), post)

    def test_gibbs_rows_match_gibbs_posterior(self):
        prob = small_problem(31, z=4, w=3)
        prior = Pmf(np.array([0.2, 0.3, 0.5]))
        alg = GibbsAlgorithm(prior, 2.5)
        types = enumerate_types(4, 6)
        rows = alg.posteriors(prob, types)
        assert rows.shape == (len(types), 3)
        for c, row in zip(types, rows):
            s = np.repeat(np.arange(4), c)
            assert np.allclose(row, np.asarray(alg.posterior(prob, s)), rtol=0, atol=1e-12)

    def test_constant_rows(self):
        prob = small_problem(32, z=2, w=3)
        out = np.array([0.2, 0.5, 0.3])
        rows = ConstantAlgorithm(Pmf(out)).posteriors(prob, enumerate_types(2, 4))
        assert rows.shape == (5, 3)
        assert np.array_equal(rows, np.tile(out, (5, 1)))


class TestSampling:
    def test_point_mass_mu(self):
        prob = FiniteLearningProblem(
            loss=np.zeros((2, 1)), mu=Pmf(np.array([0.0, 1.0]))
        )
        s = sample_dataset(prob, 20, 5)
        assert np.all(s.samples == 1)

    def test_determinism(self):
        prob = small_problem(22)
        a = sample_dataset(prob, 50, 123)
        b = sample_dataset(prob, 50, 123)
        assert np.array_equal(a.samples, b.samples)
        c = sample_dataset(prob, 50, 124)
        assert not np.array_equal(a.samples, c.samples)

    def test_law_of_large_numbers(self):
        prob = FiniteLearningProblem(loss=np.zeros((2, 1)), mu=Pmf(np.array([0.3, 0.7])))
        s = sample_dataset(prob, 10**5, 7)
        assert np.mean(s.samples == 0) == pytest.approx(0.3, abs=0.01)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(small_problem(), 0, 1)


class TestInducedJoint:
    def test_identity_algorithm_diag(self):
        prob = FiniteLearningProblem(loss=np.zeros((3, 3)), mu=Pmf(np.array([0.2, 0.3, 0.5])))

        class Identity(Algorithm):
            def posteriors(self, prob, counts):
                return np.asarray(counts, dtype=float)  # at n = 1 a type is the point mass on its symbol

        j, ctx = induced_joint(prob, Identity(), 1)
        assert np.allclose(np.asarray(j), np.diag(np.asarray(prob.mu)))

    def test_deterministic_rows_are_point_masses(self):
        prob = small_problem(23)
        alg = GibbsAlgorithm(prior=Pmf.uniform(3), beta=1e4)
        j, ctx = induced_joint(prob, alg, 2)
        rows = np.asarray(j)
        rows = rows / rows.sum(axis=1, keepdims=True)
        assert np.all((rows > 0.999).sum(axis=1) == 1)

    def test_type_mode_matches_dataset_mode(self, dataset_joint):
        prob = small_problem(24, z=2, w=3)
        alg = GibbsAlgorithm(prior=Pmf.uniform(3), beta=1.0)
        j_full, _ = dataset_joint(prob, alg, 3)
        j_type, ctx_type = induced_joint(prob, alg, 3)
        assert mutual_information(j_full) == pytest.approx(
            mutual_information(j_type), abs=1e-12
        )
        assert np.allclose(
            np.asarray(j_full).sum(axis=0), np.asarray(j_type).sum(axis=0), atol=1e-12
        )

    def test_w_marginal_matches_monte_carlo(self):
        prob = small_problem(25, z=2, w=3)
        alg = GibbsAlgorithm(prior=Pmf.uniform(3), beta=1.0)
        j, _ = induced_joint(prob, alg, 3)
        marg = np.asarray(j).sum(axis=0)
        gen = rng(26)
        counts = np.zeros(3)
        trials = 10**6
        samples = gen.choice(2, size=(trials, 3), p=np.asarray(prob.mu))
        # vectorized Gibbs draw per trial via the type counts
        ones = samples.sum(axis=1)
        for k in np.unique(ones):
            idx = ones == k
            counts_k = np.array([3 - k, k])
            post = np.asarray(alg.posterior_from_counts(prob, counts_k))
            draws = gen.choice(3, size=int(idx.sum()), p=post)
            counts += np.bincount(draws, minlength=3)
        assert np.allclose(counts / trials, marg, atol=0.005)

    def test_nan_rows_rejected(self):
        class NanRows(ConstantAlgorithm):
            def posteriors(self, prob, counts):
                return np.full((len(counts), 2), np.nan)

        prob = small_problem(33, z=2, w=2)
        with pytest.raises(RuntimeError, match="mass"):
            induced_joint(prob, NanRows(Pmf.uniform(2)), 3)

    def test_cap_enforced(self):
        # C(47, 7) = 62,891,499 types of 40 samples from 8 symbols exceed the cap
        prob = small_problem(27, z=8, w=2)
        with pytest.raises(EnumerationCapError):
            induced_joint(prob, ConstantAlgorithm(Pmf.uniform(2)), 40)

    def test_type_cap_checked_before_enumeration(self, monkeypatch):
        # C(303, 3) = 4,590,551 types exceed the default cap; none may be built
        def no_enumeration(*args):
            raise AssertionError("enumerate_types called past the cap")

        monkeypatch.setattr("genbounds.learning.enumerate_types", no_enumeration)
        prob = small_problem(27, z=4, w=2)
        with pytest.raises(EnumerationCapError, match="4590551 types"):
            induced_joint(prob, ConstantAlgorithm(Pmf.uniform(2)), 300)

    def test_constant_algorithm_unbiased(self):
        prob = small_problem(28, z=2, w=3)
        alg = ConstantAlgorithm(Pmf(np.array([0.2, 0.5, 0.3])))
        j, ctx = induced_joint(prob, alg, 3)
        gt = gen_table(prob, ctx)
        assert float((np.asarray(j) * gt).sum()) == pytest.approx(0.0, abs=1e-12)

    def test_mu_weights_sum_to_one(self):
        prob = small_problem(29, z=3, w=2)
        j, ctx = induced_joint(prob, GibbsAlgorithm(Pmf.uniform(2), 0.7), 4)
        assert np.asarray(j).sum() == pytest.approx(1.0, abs=1e-12)
        assert len(ctx) == math.comb(4 + 2, 2)


def random_gibbs(gen):
    """(problem, Gibbs learner, n): up to 5 symbols, some of mass 0, up to 12 hypotheses, some of prior 0,
    beta up to 300 and n up to 11, with one-symbol problems, whose type table has one row."""
    z, w, n = int(gen.integers(1, 6)), int(gen.integers(1, 13)), int(gen.integers(1, 12))
    mu, prior = gen.dirichlet(np.ones(z)), gen.dirichlet(np.ones(w))
    for p in (mu, prior):
        if len(p) > 1 and gen.random() < 0.4:
            p[gen.integers(len(p), size=int(gen.integers(1, len(p))))] = 0.0
            p /= p.sum()
    beta = float(gen.choice([0.0, gen.uniform(0.0, 3.0), gen.uniform(3.0, 300.0)]))
    prob = FiniteLearningProblem(loss=gen.uniform(0.0, 1.0, size=(z, w)), mu=Pmf(mu), bound=1.0)
    return prob, GibbsAlgorithm(Pmf(prior), beta), n


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestColumnForm:
    """The kernel and `induced_joint` work per hypothesis column, yet give the row-major oracle's bits."""

    def assert_oracle_bits(self, prob, alg, n):
        induced = induced_joint(prob, alg, n)
        joint, types = induced
        table, p_s, p_w, posts = rowmajor_induced_joint(prob, alg, n)
        assert bits(induced.posteriors) == bits(posts)
        assert bits(joint) == bits(table)
        assert bits(joint.marginal_s()) == bits(p_s)
        assert bits(joint.marginal_w()) == bits(p_w)
        one = types[-1:]  # a one-row table, on BLAS's one-row path in both
        assert bits(alg.posteriors(prob, one)) == bits(rowmajor_posteriors(alg, prob, one))
        return posts.shape

    def test_random_problems(self):
        gen = rng(141)
        shapes = [self.assert_oracle_bits(*random_gibbs(gen)) for _ in range(300)]
        assert any(w >= 8 for _, w in shapes) and any(rows == 1 for rows, _ in shapes)

    @pytest.mark.parametrize("k", range(3))
    def test_bank_problems_at_n30(self, k):
        assert self.assert_oracle_bits(bank_problem(k), GibbsAlgorithm(Pmf.uniform(4), 1.0), 30) == (5456, 4)


class TestEnumeration:
    def test_types_count(self):
        # compositions of n into z parts: C(n+z-1, z-1)
        assert len(enumerate_types(3, 4)) == math.comb(6, 2)
        assert np.all(enumerate_types(3, 4).sum(axis=1) == 4)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            Dataset(np.array([-1]))

    @pytest.mark.parametrize(
        "z, n", [(1, 5), (2, 1), (3, 4), (4, 25), (5, 12), (1, 0), (2, 0), (4, 30), (3, 60), (6, 8)]
    )
    def test_types_match_the_per_type_loop(self, z, n):
        loop = types_by_loop(z, n)
        got = enumerate_types(z, n)
        assert got.dtype == loop.dtype and np.array_equal(got, loop)

    def test_zero_samples_one_empty_type(self):
        got = enumerate_types(3, 0)
        assert got.dtype == np.dtype(int) and np.array_equal(got, np.zeros((1, 3), dtype=int))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_types(2, -1)

    def test_type_table_memory(self):
        # a build that expanded every composition into its n sample indices peaked at 62 MB here
        tracemalloc.start()
        try:
            enumerate_types(3, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda prob, alg: induced_joint(prob, alg, 2.5), "n must be a whole number"),
            (lambda prob, alg: induced_joint(prob, alg, 3.0), "n must be a whole number"),
            (lambda prob, alg: induced_joint(prob, alg, True), "n must be a whole number"),
            (lambda prob, alg: induced_joint(prob, alg, 0), "n must be at least 1"),
            (lambda prob, alg: enumerate_types(2.0, 3), "z_size must be a whole number"),
            (lambda prob, alg: enumerate_types(2, 2.5), "n must be a whole number"),
            (lambda prob, alg: enumerate_types(0, 3), "z_size must be at least 1"),
            (lambda prob, alg: enumerate_types(0, 0), "z_size must be at least 1"),
            (lambda prob, alg: enumerate_types(0, 2), "z_size must be at least 1"),
            (lambda prob, alg: enumerate_types(2, -1), "n must be at least 0"),
            (lambda prob, alg: sample_dataset(prob, 2.0, 0), "n must be a whole number"),
        ],
    )
    def test_sizes_are_whole_numbers(self, call, match):
        # these raised TypeError, or an error that named the wrong thing
        prob = small_problem(37, z=2, w=2)
        with pytest.raises(ValueError, match=match):
            call(prob, GibbsAlgorithm(Pmf.uniform(2), 1.0))

    def test_exact_kind_bytes_match_the_loop_table(self, tmp_path, monkeypatch):
        # a tripwire on the row-order contract: every exact kind writes the same bytes
        # on the table built by the per-composition loop
        problem = tmp_path / "problem.json"
        loss = [[0.0, 0.4, 0.8, 1.0], [0.4, 0.0, 0.6, 0.9], [0.8, 0.6, 0.0, 0.3], [1.0, 0.9, 0.3, 0.0]]
        spec = {"z_alphabet": 4, "w_alphabet": 4, "loss": loss, "mu": [0.4, 0.3, 0.2, 0.1], "B": 1.0}
        problem.write_text(json.dumps(spec))

        def reports(tag):
            out = {}
            for kind in ("thm5i", "thm5ii", "eq22", "prop5i", "prop5ii"):
                path = tmp_path / tag / kind / "report.json"
                argv = ["bound", "--kind", kind, "--problem", str(problem), "--n", "30", "--out", str(path)]
                assert main(argv) == 0
                out[kind] = path.read_bytes()
            return out

        fast = reports("counts")
        monkeypatch.setattr("genbounds.learning.enumerate_types", types_by_loop)
        assert reports("loop") == fast


class TestDatasetModeTables:
    """The dataset-level tables of the oracle, summed over the datasets of each type, equal the type-level ones."""

    @pytest.mark.parametrize("zero_symbol", [False, True])
    def test_match_per_row_formulas(self, zero_symbol, dataset_joint):
        gen = rng(34)
        mu = gen.dirichlet(np.ones(3))
        if zero_symbol:
            mu[1] = 0.0
            mu /= mu.sum()
        prob = FiniteLearningProblem(loss=gen.uniform(0, 1, size=(3, 6)), mu=Pmf(mu))
        alg = GibbsAlgorithm(Pmf.uniform(6), 1.7)
        n = 5
        joint, types = induced_joint(prob, alg, n)
        oracle, datasets = dataset_joint(prob, alg, n)
        rows = type_rows(types, datasets)
        summed = np.zeros_like(np.asarray(joint))
        np.add.at(summed, rows, np.asarray(oracle))
        assert np.allclose(np.asarray(joint), summed, rtol=1e-12, atol=1e-15)

        gt = gen_table(prob, types)
        for s, row in zip(datasets, rows):
            assert np.allclose(gt[row], gen_errors(prob, s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ctx", [[[0, 3], [1, 1]], [[0, -1], [2, 2]], [0, 1, 2]])
    def test_bad_contexts_rejected(self, ctx):
        # rows with different sums, a negative count and a lone count vector are no type table
        with pytest.raises(ValueError):
            gen_table(small_problem(35, z=3, w=2), np.asarray(ctx))


class TestTypeCounts:
    """A type-count table has whole, non-negative entries and one positive sum n in every row."""

    BAD = [[[-1, 3]], [[0.5, 1.5]], [[1, 2], [2, 2]], [[0, 0]], [[math.nan, 2]], [1, 2], np.zeros((0, 2)),
           [[True, True], [True, False]], [[1, 2, 0]]]

    @pytest.mark.parametrize("counts", BAD)
    def test_gen_table_rejects(self, counts):
        # [[-1, 3]] gave [[-0.5, 0.8]] and [[0.5, 1.5]] gave [[-0.125, 0.2]] on this problem
        prob = FiniteLearningProblem(loss=np.array([[0.0, 1.0], [1.0, 0.2]]), mu=Pmf(np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="symbol counts"):
            gen_table(prob, np.asarray(counts))

    @pytest.mark.parametrize("counts", BAD)
    def test_gibbs_posteriors_reject(self, counts):
        prob = FiniteLearningProblem(loss=np.array([[0.0, 1.0], [1.0, 0.2]]), mu=Pmf(np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="symbol counts"):
            GibbsAlgorithm(Pmf.uniform(2), 1.0).posteriors(prob, np.asarray(counts))

    @pytest.mark.parametrize("counts", BAD)
    def test_constant_posteriors_reject(self, counts):
        # [[-1, 4], [2, 2]]-like tables came back as rows of the output pmf
        prob = FiniteLearningProblem(loss=np.array([[0.0, 1.0], [1.0, 0.2]]), mu=Pmf(np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="symbol counts"):
            ConstantAlgorithm(Pmf.uniform(2)).posteriors(prob, np.asarray(counts))

    def test_whole_float_counts_accepted(self):
        prob = small_problem(36, z=2, w=3)
        types = enumerate_types(2, 4)
        assert np.array_equal(gen_table(prob, types.astype(float)), gen_table(prob, types))


class TestOneRowKernels:
    """gen_errors and each learner's `posterior` and `posterior_from_counts` give the bits of the
    per-dataset formulas they replaced: a bincount of the samples, a 1-D product, a 1-D Gibbs row
    and the constant test learner's own output."""

    @staticmethod
    def old_formulas(prob, prior, beta, s):
        counts = np.bincount(np.asarray(s), minlength=prob.z_alphabet_size).astype(float)
        emp = (counts @ prob.loss) / np.asarray(s).size
        return population_risks(prob) - emp, gibbs_row(prob, prior, beta, counts)

    def test_bits_equal_on_random_problems(self):
        gen = rng(37)
        for _ in range(600):
            z, w, n = int(gen.integers(1, 7)), int(gen.integers(1, 9)), int(gen.integers(1, 40))
            mu = gen.dirichlet(np.ones(z))
            prob = FiniteLearningProblem(loss=gen.uniform(0, gen.uniform(0.1, 5), size=(z, w)), mu=Pmf(mu))
            prior = gen.dirichlet(np.ones(w))
            if w > 1 and gen.random() < 0.3:
                prior[gen.integers(w)] = 0.0
                prior /= prior.sum()
            beta = float(gen.uniform(0, 10))
            s = gen.integers(0, z, size=n)
            gerr, post = self.old_formulas(prob, prior, beta, s)
            gibbs, constant = GibbsAlgorithm(prior, beta), ConstantAlgorithm(prior)
            counts = np.bincount(s, minlength=z)
            for data in (s, Dataset(s), s.astype(float)):
                assert np.array_equal(gen_errors(prob, data), gerr)
                assert np.array_equal(np.asarray(gibbs.posterior(prob, data)), post)
                assert np.array_equal(np.asarray(constant.posterior(prob, data)), prior)
            for c in (counts, counts.astype(float)):
                assert np.array_equal(np.asarray(gibbs.posterior_from_counts(prob, c)), post)
                assert np.array_equal(np.asarray(constant.posterior_from_counts(prob, c)), prior)

    def test_index_past_the_alphabet_rejected(self):
        prob = small_problem(38, z=3, w=2)
        gibbs, constant = GibbsAlgorithm(Pmf.uniform(2), 1.0), ConstantAlgorithm(Pmf.uniform(2))
        for call in (lambda: gen_errors(prob, [0, 3]), lambda: gen_errors(prob, [10**12]),
                     lambda: gibbs.posterior(prob, [-1, 0]), lambda: constant.posterior(prob, [0, 3]),
                     lambda: constant.posterior(prob, [-1, 0])):
            with pytest.raises(ValueError):
                call()
