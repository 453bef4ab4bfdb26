import dataclasses
import itertools
import math

import numpy as np
import pytest

from genbounds.bounds import reconstruct_bound
from genbounds.counterexample import (
    _binom_pmf,
    ScalingRow,
    ScoInstance,
    assemble_bound,
    bad_coord_stats,
    bad_coords,
    exact_distortion,
    exact_mean_gen,
    good_value,
    quantize_w,
    quantizer_levels,
    run_gd,
    scaling_study,
)
from genbounds.seeding import rng


def sample_bits(inst, seed):
    gen = rng(seed)
    return (gen.random((inst.n, inst.d)) < 0.5).astype(np.uint8)


def sco_loss(inst, z, w):
    """The instance's loss ell(z, w) = sum_j z_j w_j^2 + lam <w, z> + max(max_j w_j, 0), the tests' oracle.

    It is linear in z, so at z = E[z] it is a risk: the population risk at z = 1/2 everywhere and the
    empirical risk at a dataset's coordinate means.
    """
    z, w = np.asarray(z, dtype=float), np.asarray(w, dtype=float)
    return float(z @ (w * w)) + inst.lam * float(w @ z) + max(float(w.max()), 0.0)


def sco_population_risk(inst, w):
    return sco_loss(inst, np.full(inst.d, 0.5), w)


def sco_gen(inst, s, w):
    """gen(S, w): the population risk minus the empirical risk on the (n, d) dataset s."""
    return sco_population_risk(inst, w) - sco_loss(inst, s.mean(axis=0), w)


# the SCO's Binomial(d, 2^-n) laws for n = 1..10, the smallest d, and p = 1/2
BINOM_CASES = [(ScoInstance(n).d, 2.0 ** -n) for n in range(1, 11)] + [
    (d, p) for d in (0, 1, 2) for p in (0.5, 0.3, 2.0 ** -10)
] + [(10, 0.5), (1000, 0.5)]


class TestBinomPmfOracle:
    @pytest.mark.parametrize("d, p", BINOM_CASES)
    def test_nonzero_cells_match_scipy(self, d, p):
        binom = pytest.importorskip("scipy.stats").binom
        ours = _binom_pmf(d, p)
        assert ours.shape == (d + 1,)
        assert np.array_equal(ours > 0, binom.pmf(np.arange(d + 1), d, p) > 0)
        assert ours.sum() == pytest.approx(1.0, abs=1e-13)

    def test_error_within_scipys_against_mpmath(self):
        # relative error against exact binomial terms, on the cells above 1e-300
        # (both sides are normal floats there); Loader's form must be at most
        # as far off as scipy over these cases
        binom = pytest.importorskip("scipy.stats").binom
        mp = pytest.importorskip("mpmath")
        worst = {"ours": 0.0, "scipy": 0.0}
        with mp.workdps(40):
            for d, p in BINOM_CASES:
                ours, theirs = _binom_pmf(d, p), binom.pmf(np.arange(d + 1), d, p)
                pm = mp.mpf(p)
                for k in np.flatnonzero(theirs > 0):
                    exact = mp.binomial(d, int(k)) * pm ** int(k) * (1 - pm) ** (d - int(k))
                    if exact > mp.mpf("1e-300"):
                        worst["ours"] = max(worst["ours"], float(abs(ours[k] / exact - 1)))
                        worst["scipy"] = max(worst["scipy"], float(abs(theirs[k] / exact - 1)))
        assert worst["ours"] <= worst["scipy"], worst


class TestConstants:
    def test_formulas_from_n(self):
        inst = ScoInstance(4)
        assert inst.T == 32
        assert inst.d == 384
        assert inst.eta == pytest.approx(1 / (4 * math.sqrt(20)), abs=1e-15)
        assert inst.lam == pytest.approx(1 / (4 * math.sqrt(384)), abs=1e-15)
        assert 2 * inst.sigma == pytest.approx(2 / 20 + 1 / 64, abs=1e-15)

    def test_bit_reproducible(self):
        assert ScoInstance(6) == ScoInstance(6)


class TestLoss:
    """The loss oracle the Monte Carlo tests use, and the domain it is defined on."""

    def test_zero_w(self):
        inst = ScoInstance(4)
        z = np.ones(inst.d)
        assert sco_loss(inst, z, np.zeros(inst.d)) == 0.0

    def test_zero_z_nonpositive_w(self):
        inst = ScoInstance(4)
        w = -np.abs(rng(1).normal(size=inst.d)) * 1e-3
        assert sco_loss(inst, np.zeros(inst.d), w) == 0.0

    def test_matches_three_term_recomputation(self):
        inst = ScoInstance(4)
        gen = rng(2)
        z = (gen.random(inst.d) < 0.5).astype(float)
        w = gen.normal(size=inst.d)
        w = 0.9 * w / np.linalg.norm(w)
        brute = (
            sum(z[j] * w[j] ** 2 for j in range(inst.d))
            + inst.lam * sum(w[j] * z[j] for j in range(inst.d))
            + max(max(w), 0.0)
        )
        assert sco_loss(inst, z, w) == pytest.approx(brute, abs=1e-12)

    def test_unit_ball_enforced(self):
        # the quantized output, like the GD output, lies in the unit ball the loss is defined on
        inst = ScoInstance(4)
        for seed in range(5):
            w_hat = quantize_w(inst, sample_bits(inst, 300 + seed), 1 - 1 / inst.n**2, seed=seed)
            assert float(w_hat @ w_hat) <= 1.0


class TestPopulationRisk:
    """The oracle's population risk, the loss at z = 1/2, against its closed form and Monte Carlo over z."""

    def test_zero(self):
        inst = ScoInstance(4)
        assert sco_population_risk(inst, np.zeros(inst.d)) == 0.0

    def test_single_coordinate_closed_form(self):
        inst = ScoInstance(4)
        w = np.zeros(inst.d)
        w[0] = -inst.eta
        expected = inst.eta**2 / 2 - inst.lam * inst.eta / 2
        assert sco_population_risk(inst, w) == pytest.approx(expected, abs=1e-15)

    def test_matches_monte_carlo(self):
        inst = ScoInstance(4)
        gen = rng(3)
        w = gen.normal(size=inst.d)
        w = 0.5 * w / np.linalg.norm(w)
        trials = 10**5
        zs = (gen.random((trials, inst.d)) < 0.5)
        vals = zs @ (w * w) + inst.lam * (zs @ w) + max(max(w), 0.0)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials))
        assert sco_population_risk(inst, w) == pytest.approx(mc, abs=3 * se)


class TestGdDynamics:
    def test_all_ones_dataset(self):
        inst = ScoInstance(4)
        s = np.ones((inst.n, inst.d), dtype=np.uint8)
        w_cf, ok = run_gd(inst, s, "closed_form")
        assert not ok  # zero bad coordinates
        expected = inst.lam / 2 * (-1 + (1 - 2 * inst.eta) ** inst.T)
        assert np.allclose(w_cf, expected, atol=1e-15)

    def test_iterative_matches_closed_form_under_event(self):
        for n in (4, 6):
            inst = ScoInstance(n)
            hits = 0
            for seed in range(12):
                s = sample_bits(inst, 100 + seed)
                w_it, ok_it = run_gd(inst, s, "iterative")
                w_cf, ok_cf = run_gd(inst, s, "closed_form")
                assert ok_it == ok_cf
                if ok_it:
                    hits += 1
                    assert np.max(np.abs(w_it - w_cf)) <= 1e-9
            assert hits >= 8

    def test_projection_never_active_norm_bound(self):
        inst = ScoInstance(4)
        s = sample_bits(inst, 5)
        w, _ = run_gd(inst, s, "iterative")
        assert float(w @ w) <= 2 / (5 * inst.n) + 1 / (4 * inst.n**2)

    def test_gen_error_closed_form_vs_direct(self):
        # oracle: direct risk evaluation of the GD output
        inst = ScoInstance(4)
        s = sample_bits(inst, 6)
        w, ok = run_gd(inst, s, "iterative")
        mu_hat = s.mean(axis=0)
        direct = sco_gen(inst, s, w)
        per_coord = float(((0.5 - mu_hat) * w * (w + inst.lam)).sum())
        assert direct == pytest.approx(per_coord, abs=1e-12)


class TestBadCoords:
    def test_mask_and_event(self):
        inst = ScoInstance(4)
        s = np.zeros((inst.n, inst.d), dtype=np.uint8)
        s[:, inst.T :] = 1  # exactly T bad coordinates
        bc = bad_coords(inst, s)
        assert bc.count == inst.T and bc.event_ok

    def test_stats_floor_and_mean(self):
        inst = ScoInstance(4)
        out = bad_coord_stats(inst)
        assert out["floor"] == pytest.approx(1 - 2 * math.exp(-32 / 36), abs=1e-12)
        assert out["floor"] == pytest.approx(0.177775, abs=1e-6)
        # sum over k = 16..32 of Binomial(384, 1/16), exact in rationals
        exact = sum(math.comb(inst.d, k) * 15 ** (inst.d - k) for k in range(16, 33)) / 16**inst.d
        assert out["probability"] == pytest.approx(exact, rel=1e-12)
        assert out["probability"] == pytest.approx(0.928265, abs=1e-6)
        assert out["passed"]
        assert out["mean"] == 0.75 * inst.T == 24.0

    @pytest.mark.parametrize("n", [
        0, 13, 2.5, math.nan, math.inf, pytest.param(True, id="bool"), pytest.param(np.True_, id="numpy-bool"),
    ])
    def test_instance_needs_whole_n_up_to_the_cap(self, n):
        with pytest.raises(ValueError, match="whole number"):
            ScoInstance(n)

    def test_whole_float_n_is_an_int(self):
        inst = ScoInstance(4.0)
        assert inst.n == 4 and isinstance(inst.n, int) and inst == ScoInstance(4)


class TestQuantizer:
    def test_levels_match_formulas(self):
        inst = ScoInstance(4)
        v0, v1 = quantizer_levels(inst)
        assert v0 == pytest.approx(-5.367e-3, abs=1e-6)
        assert v1 == pytest.approx(-5.590e-2, abs=1e-5)

    def test_event_failure_zero_vector(self):
        inst = ScoInstance(4)
        s = np.ones((inst.n, inst.d), dtype=np.uint8)
        assert np.all(quantize_w(inst, s, 1.0, seed=9) == 0.0)

    def test_r_one_deterministic_v0(self):
        inst = ScoInstance(4)
        s = sample_bits(inst, 10)
        if bad_coords(inst, s).event_ok:
            w_hat = quantize_w(inst, s, 1.0, seed=11)
            v0, _ = quantizer_levels(inst)
            assert np.all(w_hat == v0)

    def test_r_range_enforced(self):
        inst = ScoInstance(4)
        with pytest.raises(ValueError):
            quantize_w(inst, sample_bits(inst, 12), 0.5, seed=13)

    def test_quantized_loss_range(self):
        # the proofs use the range width 2 sigma = 2/(5n) + 1/(4n^2); the
        # lower end is -1/(4n^2) (an all-v0 output with z = 1 goes slightly
        # negative], not 0 as claimed at one point in the source
        inst = ScoInstance(4)
        gen = rng(14)
        hi = 2 / (5 * inst.n) + 1 / (4 * inst.n**2)
        lo = -1 / (4 * inst.n**2)
        for seed in range(20):
            s = sample_bits(inst, 200 + seed)
            w_hat = quantize_w(inst, s, 1 - 1 / inst.n**2, seed=seed)
            for _ in range(5):
                z = (gen.random(inst.d) < 0.5).astype(float)
                val = sco_loss(inst, z, w_hat)
                assert lo - 1e-12 <= val < hi
            # include the adversarial all-ones and all-zeros data points
            assert lo - 1e-12 <= sco_loss(inst, np.ones(inst.d), w_hat) < hi
            assert 0.0 <= sco_loss(inst, np.zeros(inst.d), w_hat) < hi


class TestDistortionAndBounds:
    def test_exact_distortion_matches_mc(self):
        # oracle: Monte Carlo over datasets and quantizer draws
        inst = ScoInstance(4)
        r = 1 - 1 / 16
        gen = rng(15)
        trials = 3000
        vals = np.empty(trials)
        for t in range(trials):
            s = (gen.random((inst.n, inst.d)) < 0.5).astype(np.uint8)
            w, ok = run_gd(inst, s, "iterative")
            w_hat = quantize_w(inst, s, r, seed=10_000 + t)
            vals[t] = sco_gen(inst, s, w) - sco_gen(inst, s, w_hat)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials))
        assert exact_distortion(inst, r) == pytest.approx(mc, abs=4 * se)

    def test_exact_mean_gen_matches_mc(self):
        inst = ScoInstance(4)
        gen = rng(16)
        trials = 2500
        vals = np.empty(trials)
        for t in range(trials):
            s = (gen.random((inst.n, inst.d)) < 0.5).astype(np.uint8)
            w, _ = run_gd(inst, s, "iterative")
            vals[t] = sco_gen(inst, s, w)
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(trials))
        assert exact_mean_gen(inst) == pytest.approx(mc, abs=4 * se)

    @staticmethod
    def gen_of(inst, s):
        w, _ = run_gd(inst, s, "iterative")
        return sco_gen(inst, s, w)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_mean_gen_is_the_mean_over_every_dataset(self, n):
        # gen depends on the columns only through how many of them have each
        # count (tied columns share one mean), so a dataset stands for every
        # dataset with its counts: all 8 at n = 1, all 2^48 at n = 2
        inst = ScoInstance(n)
        d = inst.d
        cell = [math.comb(n, m) / 2**n for m in range(n + 1)]
        total = 0.0
        for counts in itertools.product(range(d + 1), repeat=n):
            if sum(counts) > d:
                continue
            per_m = [d - sum(counts), *counts]  # columns with count 0, 1, ..., n
            cols = np.repeat(np.arange(n + 1), per_m)
            s = (np.arange(n)[:, None] < cols[None, :]).astype(np.uint8)
            weight = math.factorial(d) / math.prod(map(math.factorial, per_m))
            weight *= math.prod(c**k for c, k in zip(cell, per_m))
            total += weight * self.gen_of(inst, s)
        assert exact_mean_gen(inst) == pytest.approx(total, rel=1e-12, abs=0)
        if n == 1:
            assert total == pytest.approx(0.0223602, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_bad_coordinate_pushes_one_good_one_once(self, n):
        # with no bad column, the oracle pushes the first column of least
        # count at step 1 only: it ends eta (1 - 2 eta m/n)^(T-1) below the
        # closed form and every other column at it, the law `exact_mean_gen`
        # gives the #bad = 0 cell
        inst = ScoInstance(n)
        for least in range(1, n + 1):
            cols = np.resize(np.arange(least, n + 1)[::-1], inst.d)  # the first least column is at index n - least
            s = (np.arange(n)[:, None] < cols[None, :]).astype(np.uint8)
            w, ok = run_gd(inst, s, "iterative")
            assert not ok
            want = good_value(inst, s.mean(axis=0))
            want[n - least] -= inst.eta * (1.0 - 2.0 * inst.eta * least / n) ** (inst.T - 1)
            np.testing.assert_allclose(w, want, rtol=1e-12, atol=1e-16)

    def test_r_one_rate_term_limit(self):
        inst = ScoInstance(4)
        rep = assemble_bound(inst, 1.0, "expectation")
        expected = inst.T / 18 * math.log2(math.e) * math.exp(-inst.T / 36) / inst.n**2
        assert rep.terms["rate_term"] == pytest.approx(expected, abs=1e-15)

    def test_terms_reconstruct(self):
        inst = ScoInstance(5)
        for rep in (
            assemble_bound(inst, 1 - 1 / 25, "expectation"),
            assemble_bound(inst, 1 - 1 / 25, "tail", delta=0.05),
        ):
            assert reconstruct_bound(rep) == pytest.approx(rep.bound_value, abs=1e-12)

    def test_tail_needs_delta(self):
        with pytest.raises(ValueError):
            assemble_bound(ScoInstance(4), 1.0, "tail")


class TestScaling:
    def test_bounds_only_table(self):
        # no output depends on `trials`: the table at 0 trials is the table at 2000
        res = scaling_study([4, 5], trials=0)
        assert res == scaling_study([4, 5], trials=2000)
        for r in res.rows:
            assert all(math.isfinite(v) for v in dataclasses.astuple(r))
            assert 0 < r.exact_mean_gen <= r.bound_expectation <= r.bound_tail

    def test_dominance_and_slopes(self):
        # exact, no standard error: each row is the library's exact value, under the bound
        res = scaling_study(range(4, 11))
        assert [r.n for r in res.rows] == list(range(4, 11))
        for r in res.rows:
            inst = ScoInstance(r.n)
            assert r.exact_mean_gen == exact_mean_gen(inst)
            assert 0 < r.exact_mean_gen <= r.bound_expectation
        assert res.slope_bound < 0
        assert res.slope_exact <= -0.4
        assert scaling_study([4, 6, 8, 10]).slope_exact == pytest.approx(-0.7526, abs=5e-5)

    def test_bound_violation_raises(self, monkeypatch):
        # a validator must be able to fail: an exact mean above the expectation bound raises
        import genbounds.counterexample as cex

        real = cex.assemble_bound

        def tiny(inst, r, mode, delta=None):
            rep = real(inst, r, mode, delta=delta)
            return dataclasses.replace(rep, bound_value=1e-6) if mode == "expectation" else rep

        monkeypatch.setattr(cex, "assemble_bound", tiny)
        with pytest.raises(AssertionError, match="exceeded the expectation bound"):
            scaling_study([4, 5])

    def test_event_rate_floor(self):
        # the exact event probability, with no sampling slack below the floor
        res = scaling_study(range(4, 11))
        for r in res.rows:
            stats = bad_coord_stats(ScoInstance(r.n))
            assert r.event_probability == stats["probability"]
            assert r.event_probability >= stats["floor"]

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            scaling_study([4, 4])
        with pytest.raises(ValueError):
            scaling_study([4, 20])
        with pytest.raises(ValueError, match="two n values"):
            scaling_study([4])

    @pytest.mark.parametrize(
        "n_list", [[4.7, 6], [True, 6], [4, 6.0], np.array([4.0, 6.0]), np.array([4.7, 6.0])],
        ids=["fraction", "bool", "whole-float", "float-array", "fraction-array"],
    )
    def test_n_list_needs_whole_numbers(self, n_list):
        # 4.7 used to run n = 4 and True n = 1
        with pytest.raises(ValueError, match="every n in n_list must be a whole number"):
            scaling_study(n_list)

    def test_n_list_int_array(self):
        assert scaling_study(np.array([6, 4])) == scaling_study([4, 6])

    @pytest.mark.parametrize("trials", [-4, 2.5, True])
    def test_trials_must_be_whole(self, trials):
        with pytest.raises(ValueError, match="trials"):
            scaling_study([2, 3], trials=trials)

    def test_closed_form_good_value_consistency(self):
        inst = ScoInstance(6)
        for m in range(1, inst.n + 1):
            v = good_value(inst, m / inst.n)
            assert -inst.lam / 2 <= v <= 0.0

    def test_good_value_array_and_eta(self):
        inst = ScoInstance(5)
        mu = np.arange(inst.n + 1) / inst.n
        vals = good_value(inst, mu)
        assert vals.shape == mu.shape
        for m, v in zip(mu, vals):
            expected = inst.lam / 2 * (-1 + (1 - 2 * inst.eta * m) ** inst.T)
            assert v == pytest.approx(expected, rel=1e-14, abs=1e-300)
        assert good_value(inst, 0.5) == quantizer_levels(inst)[0]

    def test_rows_pinned(self):
        # the bound columns and slope_bound are the bits recorded while the study
        # still drew Monte Carlo trials; exact_mean_gen at n = 6 was re-recorded
        # when the binomial pmf moved from scipy.stats.binom to Loader's form:
        # 0.02277830405583544 became 0.022778304055835447 (1 ulp; see
        # test_exact_mean_gen_matches_scipy); n = 4's exact_mean_gen and
        # bound_expectation, and with them slope_bound, were re-recorded when
        # the #bad = 0 cell got the oracle's push of a good coordinate
        res = scaling_study([4, 6])
        assert res.rows == [
            ScalingRow(
                n=4, exact_mean_gen=0.029451106619440802, event_probability=0.9282653024431807,
                bound_expectation=0.9624029913515296, bound_tail=65.85076510535875,
            ),
            ScalingRow(
                n=6, exact_mean_gen=0.022778304055835447, event_probability=0.9888524081788196,
                bound_expectation=0.5675960486621988, bound_tail=36.74958617794901,
            ),
        ]
        assert res.slope_bound == -1.30226566611704
        assert res.slope_exact == -0.6336500331105919

    @pytest.mark.parametrize("n", [4, 6])
    def test_exact_mean_gen_matches_scipy(self, n):
        # the pinned exact_mean_gen against the same sum over scipy's binomial pmf
        binom = pytest.importorskip("scipy.stats").binom
        pinned = {4: 0.029451106619440802, 6: 0.022778304055835447}[n]
        inst = ScoInstance(n)
        assert exact_mean_gen(inst) == pinned
        inst.__dict__["bad_count_pmf"] = binom.pmf(np.arange(inst.d + 1), inst.d, 2.0 ** -n)
        assert exact_mean_gen(inst) == pytest.approx(pinned, rel=1e-13, abs=0)
