import json
import math

import numpy as np
import pytest

from genbounds.info import (
    Channel,
    Joint,
    Pmf,
    binary_kl,
    binary_kl_inverse,
    binary_kl_inverse_cap,
    empirical_joint,
    entropy,
    gdelta_radius,
    gdelta_sup,
    in_gdelta,
    kl_divergence,
    mutual_information,
    renyi_divergence,
)
from genbounds.io import canonical_json
from genbounds.seeding import rng


def random_pmf(gen, k):
    return gen.dirichlet(np.ones(k))


class TestKl:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_two_term_sum(self):
        # oracle: direct two-term evaluation
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.14384, abs=1e-5)

    def test_disjoint_support_is_infinite(self):
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_nonnegative_and_zero_iff_equal(self):
        gen = rng(101)
        for k in (2, 3, 7):
            for _ in range(25):
                p, q = random_pmf(gen, k), random_pmf(gen, k)
                assert kl_divergence(p, q) >= 0.0
                assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
                if np.max(np.abs(p - q)) > 1e-3:
                    assert kl_divergence(p, q) > 0.0


class TestRenyi:
    def test_order_two_closed_form(self):
        # oracle: (1/(a-1)) log sum p^2 / q
        expected = math.log(0.25 / 0.25 + 0.25 / 0.75)
        assert renyi_divergence([0.5, 0.5], [0.25, 0.75], 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(4 / 3), abs=1e-15)

    def test_equal_distributions(self):
        gen = rng(43)
        p = random_pmf(gen, 5)
        for a in (0.5, 1.5, 2.0, 4.0):
            assert renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            renyi_divergence([0.5, 0.5], [0.5, 0.5], 1.0)

    def test_kl_limit(self):
        # boundary-bounded random pairs: the order-(alpha-1) expansion needs a
        # bounded log-likelihood ratio, so mix 10% uniform into each draw
        gen = rng(44)
        u = np.full(4, 0.25)
        for _ in range(100):
            p = 0.9 * random_pmf(gen, 4) + 0.1 * u
            q = 0.9 * random_pmf(gen, 4) + 0.1 * u
            dkl = kl_divergence(p, q)
            assert abs(renyi_divergence(p, q, 1.001) - dkl) <= 1e-3 * (1 + dkl)

    def test_monotone_in_alpha(self):
        gen = rng(45)
        for _ in range(60):
            p, q = random_pmf(gen, 3), random_pmf(gen, 3)
            vals = [renyi_divergence(p, q, a) for a in (0.5, 1.001, 2.0, 4.0)]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_support_rules(self):
        assert renyi_divergence([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 2.0) == math.inf
        assert renyi_divergence([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 0.5) < math.inf
        assert renyi_divergence([1.0, 0.0], [0.0, 1.0], 0.5) == math.inf


class TestMutualInformation:
    def test_product_joint(self):
        j = np.outer([0.3, 0.7], [0.2, 0.8])
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_bit(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_brute_force(self):
        gen = rng(46)
        for _ in range(20):
            t = gen.dirichlet(np.ones(9)).reshape(3, 3)
            ps, pw = t.sum(axis=1), t.sum(axis=0)
            brute = sum(
                t[i, j] * math.log(t[i, j] / (ps[i] * pw[j]))
                for i in range(3)
                for j in range(3)
                if t[i, j] > 0
            )
            assert mutual_information(t) == pytest.approx(brute, abs=1e-10)

    def test_bounded_by_marginal_entropies(self):
        gen = rng(47)
        for _ in range(30):
            t = gen.dirichlet(np.ones(12)).reshape(3, 4)
            mi = mutual_information(t)
            assert mi <= entropy(t.sum(axis=1)) + 1e-10
            assert mi <= entropy(t.sum(axis=0)) + 1e-10


class TestNonFiniteInput:
    @pytest.mark.parametrize("p", [[math.nan, 1.0], [math.inf, 0.5], [0.5, -math.inf]])
    def test_entropy(self, p):
        with pytest.raises(ValueError, match="finite"):
            entropy(p)

    @pytest.mark.parametrize(
        "p, q",
        [([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 0.5]), ([0.5, 0.5], [math.inf, 0.5])],
    )
    def test_kl_divergence(self, p, q):
        with pytest.raises(ValueError, match="finite"):
            kl_divergence(p, q)

    @pytest.mark.parametrize(
        "p, q, alpha",
        [
            ([math.nan, 0.5], [0.3, 0.7], 2.0),
            ([0.5, 0.5], [0.3, math.nan], 2.0),
            ([0.5, 0.5], [0.3, 0.7], math.nan),
            ([0.5, 0.5], [0.3, 0.7], math.inf),
        ],
    )
    def test_renyi_divergence(self, p, q, alpha):
        with pytest.raises(ValueError, match="finite"):
            renyi_divergence(p, q, alpha)

    @pytest.mark.parametrize("table", [[[math.nan, 0.5], [0.25, 0.25]], [[math.inf, 0.0], [0.0, 0.0]]])
    def test_mutual_information(self, table):
        with pytest.raises(ValueError, match="finite"):
            mutual_information(table)


class TestBinaryKl:
    def test_equal_args(self):
        assert binary_kl(0.3, 0.3) == 0.0

    def test_direct_value(self):
        expected = 0.25 * math.log(0.25 / 0.1) + 0.75 * math.log(0.75 / 0.9)
        assert binary_kl(0.25, 0.1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0923, abs=1e-3)

    def test_zero_a_reduces_to_log(self):
        assert binary_kl(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_boundary_b(self):
        assert binary_kl(0.5, 0.0) == math.inf
        assert binary_kl(1.0, 1.0) == 0.0


class TestBinaryKlInverse:
    def test_zero_radius(self):
        assert binary_kl_inverse(0.37, 0.0) == 0.37

    def test_bisection_oracle(self):
        # independent bisection on binary_kl
        a, b = 0.1, 0.05
        lo, hi = a, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if binary_kl(mid, a) < b:
                lo = mid
            else:
                hi = mid
        assert binary_kl_inverse(a, b) == pytest.approx(lo, abs=1e-6)
        assert binary_kl_inverse(a, b) == pytest.approx(0.2065, abs=1e-3)

    def test_grid_inversion_and_cap(self):
        for a in np.linspace(0.0, 1.0, 50):
            for b in np.linspace(0.0, 2.0, 50):
                p = binary_kl_inverse(a, b)
                assert a <= p <= 1.0
                if p < 1.0 and 0 < a < 1:
                    assert binary_kl(p, a) == pytest.approx(b, abs=1e-9)
                assert p <= binary_kl_inverse_cap(a, b) + 1e-12

    def test_round_trip(self):
        gen = rng(48)
        for _ in range(50):
            a = float(gen.uniform(0.05, 0.9))
            p = float(gen.uniform(a, 0.999))
            assert binary_kl_inverse(a, binary_kl(p, a)) == pytest.approx(p, abs=1e-7)

    def test_nan_b_rejected(self):
        with pytest.raises(ValueError):
            binary_kl_inverse(0.3, math.nan)


class TestEmpiricalJoint:
    def test_point_mass(self):
        j = empirical_joint([(0, 0)])
        assert np.asarray(j).tolist() == [[1.0]]

    def test_two_point(self):
        j = empirical_joint([(0, 0), (1, 1)])
        assert np.allclose(np.asarray(j), np.diag([0.5, 0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([])

    def test_concentrates_to_truth(self):
        gen = rng(49)
        truth = gen.dirichlet(np.ones(6)).reshape(2, 3)
        flat = truth.reshape(-1)
        draws = gen.choice(6, size=1000, p=flat)
        pairs = [(int(d // 3), int(d % 3)) for d in draws]
        emp = np.asarray(empirical_joint(pairs, shape=(2, 3)))
        assert 0.5 * np.abs(emp - truth).sum() < 0.1


class TestTypes:
    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Pmf(np.array([-0.1, 1.1]))

    def test_channel_rows(self):
        Channel(np.array([[0.2, 0.8], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            Channel(np.array([[0.2, 0.9], [1.0, 0.0]]))

    def test_joint_marginals(self):
        j = Joint(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.asarray(j.marginal_s()).tolist() == pytest.approx([0.3, 0.7])
        assert np.asarray(j.marginal_w()).tolist() == pytest.approx([0.4, 0.6])

    @pytest.mark.parametrize("cls, bad", [
        (Pmf, [np.nan, 0.5, 0.5]),
        (Pmf, [np.inf, 1.0]),
        (Channel, [[np.nan, 1.0], [0.5, 0.5]]),
        (Joint, [[np.nan, 0.5], [0.25, 0.25]]),
        (Joint, [[np.nan, np.nan], [np.nan, np.nan]]),
    ])
    def test_non_finite_rejected(self, cls, bad):
        with pytest.raises(ValueError, match="finite"):
            cls(np.array(bad))

    def test_json_round_trip(self):
        p = Pmf(np.array([1 / 3, 2 / 3]))
        assert np.array_equal(json.loads(canonical_json(np.asarray(p))), np.asarray(p))
        j = Joint(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.array_equal(json.loads(canonical_json(np.asarray(j))), np.asarray(j))


class TestGdeltaSup:
    def test_constant_objective(self):
        p = np.array([0.4, 0.6])
        val, arg = gdelta_sup(p, 0.3, lambda d: 7.25, search_budget=200)
        assert val == 7.25
        assert np.allclose(arg, p)

    def test_delta_one_pins_reference(self):
        p = np.array([0.3, 0.7])
        val, arg = gdelta_sup(p, 1.0, lambda d: float(d[0]), search_budget=200)
        assert val == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(arg, p)

    def test_linear_objective_matches_grid(self):
        # oracle: brute-force simplex grid (step 0.01) on a 2-symbol alphabet
        h = np.array([1.0, -0.5])
        p = np.array([0.5, 0.5])
        delta = 0.5
        best = -math.inf
        for x in np.arange(0.0, 1.0001, 0.01):
            cand = np.array([x, 1 - x])
            if in_gdelta(cand, p, delta, slack=0.0):
                best = max(best, float(cand @ h))
        val, arg = gdelta_sup(p, delta, lambda d: float(np.asarray(d) @ h), search_budget=3000, seed=2)
        assert val == pytest.approx(best, abs=0.01)
        assert in_gdelta(arg, p, delta)

    def test_membership_always_holds(self):
        gen = rng(50)
        p = gen.dirichlet(np.ones(4))
        val, arg = gdelta_sup(p, 0.2, lambda d: float(np.var(np.asarray(d))), search_budget=800, seed=3)
        assert in_gdelta(arg, p, 0.2)
        assert val >= float(np.var(p)) - 1e-12

    def test_joint_shaped_reference(self):
        table = np.full((2, 2), 0.25)
        val, arg = gdelta_sup(table, 0.4, lambda t: float(t[0, 0]), search_budget=600, seed=4)
        assert arg.shape == (2, 2)
        assert val >= 0.25

    def test_ball_check_raises(self, monkeypatch):
        # an explicit raise, so the final membership check also runs under python -O
        monkeypatch.setattr("genbounds.info.in_gdelta", lambda *a, **k: False)
        with pytest.raises(RuntimeError, match="KL ball"):
            gdelta_sup(np.array([0.5, 0.5]), 0.5, lambda d: float(d[0]), search_budget=50)

    def test_delta_range_rejected(self):
        with pytest.raises(ValueError):
            gdelta_sup(np.array([0.5, 0.5]), 0.0, lambda d: 0.0)
        with pytest.raises(ValueError):
            gdelta_sup(np.array([0.5, 0.5]), 1.5, lambda d: 0.0)
        assert gdelta_radius(1.0) == 0.0
