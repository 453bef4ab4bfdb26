import json
import math
import multiprocessing
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genbounds.info import (
    Joint,
    Pmf,
    _increasing_root,
    _probs,
    binary_kl,
    binary_kl_inverse,
    binary_kl_inverse_cap,
    gdelta_radius,
    gdelta_sup,
    in_gdelta,
    kl_divergence,
    mutual_information,
    renyi_divergence,
)
from genbounds.io import canonical_json
from genbounds.seeding import rng

from conftest import entropy


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


class TestNotAPmf:
    # the primitives take pmfs, as the containers do: a negative or
    # unnormalised input raises instead of giving an impossible value
    @pytest.mark.parametrize(
        "call",
        [
            lambda: entropy([-0.5, 1.5]),
            lambda: entropy([0.2, 0.2]),
            lambda: kl_divergence([0.2, 0.2], [0.5, 0.5]),
            lambda: kl_divergence([0.5, 0.5], [-0.5, 1.5]),
            lambda: renyi_divergence([0.2, 0.2], [0.5, 0.5], 2.0),
            lambda: mutual_information([[0.5, 0.5], [0.5, 0.5]]),
            lambda: mutual_information([[-0.25, 0.75], [0.25, 0.25]]),
            lambda: Joint(np.array([[0.5, 0.5], [0.5, -0.5]])),
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="non-negative|sum to 1"):
            call()

    def test_rounding_slack_kept(self):
        # entries down to -PROB_ATOL pass, clipped to 0, and so do sums within SUM_ATOL
        assert kl_divergence([1.0 + 5e-13, -5e-13], [0.5, 0.5]) == pytest.approx(math.log(2))
        assert np.asarray(Pmf(np.array([1.0, -5e-13]))).tolist() == [1.0, 0.0]


class TestToleranceClosed:
    # one sum tolerance for every entry count: a table that passes has
    # marginals and conditional rows that pass

    def test_scaled_uniform_table(self):
        j = Joint(np.full((4, 4), 1 / 16) * (1 + 8e-12))
        assert j.marginal_s().alphabet_size == 4 and j.marginal_w().alphabet_size == 4

    @settings(max_examples=300)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
               elements=st.floats(0.0, 1.0, allow_subnormal=False)),
        st.floats(-3e-10, 3e-10),
        st.floats(0.0, 2e-12),
    )
    def test_accepted_joint_has_accepted_marginals_and_rows(self, raw, rel_off, dip):
        if raw.sum() == 0:
            return
        table = raw / raw.sum() * (1 + rel_off)
        table[raw == 0] = -dip  # empty cells may dip below 0 by rounding
        try:
            j = Joint(table)
        except ValueError:
            return
        Pmf(np.asarray(j.marginal_s()))
        Pmf(np.asarray(j.marginal_w()))
        t = np.asarray(j)
        mass = t.sum(axis=1)
        pmf_rows(t[mass > 0] / mass[mass > 0, None])


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

    @pytest.mark.parametrize("a", [0.061, 0.3, 0.82, 1e-6])
    @pytest.mark.parametrize("gap", [1e-8, -3e-9, 1e-4])
    def test_close_arguments_keep_relative_accuracy(self, a, gap):
        # the two terms nearly cancel: a log of their ratio near 1 would lose 10% at D ~ 1e-15
        mp = pytest.importorskip("mpmath")
        p = a + gap * a
        with mp.workdps(50):
            x, y = mp.mpf(p), mp.mpf(a)
            exact = x * mp.log(x / y) + (1 - x) * mp.log((1 - x) / (1 - y))
            assert abs(binary_kl(p, a) / exact - 1) < 1e-6


    @pytest.mark.parametrize("a, b", [(1.0, 5e-324), (0.5, 1e-320), (1e-10, 1e-320), (0.999, 2e-308 / 3e10)])
    def test_finite_where_the_ratio_overflows(self, a, b):
        # (a - b) / b overflows; D(a || b) is finite all the same
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            x, y = mp.mpf(a), mp.mpf(b)
            exact = x * mp.log(x / y) + ((1 - x) * mp.log((1 - x) / (1 - y)) if a < 1 else 0)
        got = binary_kl(a, b)
        assert math.isfinite(got) and abs(got / exact - 1) < 1e-14
        if a == 1.0:
            assert got == pytest.approx(-math.log(b), rel=1e-15)  # log(1 / b), whose 1 / b overflows

    def test_finite_values_keep_their_bits(self):
        # the first term before the overflow branch, with every finite result pinned to it
        def before(a, b):
            out = 0.0
            if a > 0:
                t = (a - b) / b
                out += a * (math.log1p(t) if t > -0.5 else math.log(a / b))
            if a < 1:
                t = (b - a) / (1 - b)
                out += (1 - a) * (math.log1p(t) if t > -0.5 else math.log((1 - a) / (1 - b)))
            return out

        grid = sorted({0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100, 1e-30,
                       1e-10, 1e-5, 0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1 - 1e-10, 1 - 2**-53, 1.0}
                      | set(np.linspace(0.0, 1.0, 41).tolist()))
        checked = 0
        for a in grid:
            for b in grid:
                if a == b or b in (0.0, 1.0):
                    continue
                old = before(a, b)
                if math.isfinite(old):
                    assert binary_kl(a, b) == old, (a, b)
                    checked += 1
                else:
                    assert math.isfinite(binary_kl(a, b)), (a, b)
        assert checked > 2900


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


class TestIncreasingRoot:
    """The one root-finder: Newton inside a bracket that ends on adjacent floats."""

    @pytest.mark.parametrize("h, root", [
        (lambda x: (x * x - 2.0, 2.0 * x), math.sqrt(2.0)),
        (lambda x: (math.log(x), 1.0 / x), 1.0),
        (lambda x: (math.tanh(x - 7.0), 1.0 - math.tanh(x - 7.0) ** 2), 7.0),  # Newton overshoots far
        (lambda x: (x - 5.0 if x >= 5.0 else -1.0, 1.0 if x >= 5.0 else 0.0), 5.0),  # slope 0 below the root
    ], ids=["square", "log", "tanh", "flat"])
    def test_finds_a_known_root(self, h, root):
        a, b = _increasing_root(h, 1e-3)
        assert b == math.nextafter(a, math.inf)
        assert h(a)[0] < 0 <= h(b)[0]
        assert a <= root <= b

    def test_root_at_or_below_lo(self):
        assert _increasing_root(lambda x: (x - 1.0, 1.0), 1.0) == (1.0, 1.0)
        assert _increasing_root(lambda x: (x - 1.0, 1.0), 2.0) == (2.0, 2.0)

    def test_no_root_runs_the_doubling_out(self):
        a, b = _increasing_root(lambda x: (-1.0, 0.0), 1.0)
        assert b == math.inf and 2 * a == math.inf

    def test_nan_names_the_point(self):
        # Newton's first step from 1 lands on 10, where h is NaN
        with pytest.raises(ValueError, match=r"h is NaN at lambda = 10\.0"):
            _increasing_root(lambda x: (math.nan if x > 2 else x - 10.0, 1.0), 1.0)


def pmf_rows(table):
    """The rule for a channel, one pmf per row."""
    return _probs(table, 2, rows=True)


class TestTypes:
    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Pmf(np.array([-0.1, 1.1]))

    def test_channel_rows(self):
        pmf_rows(np.array([[0.2, 0.8], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            pmf_rows(np.array([[0.2, 0.9], [1.0, 0.0]]))

    def test_joint_marginals(self):
        j = Joint(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert np.asarray(j.marginal_s()).tolist() == pytest.approx([0.3, 0.7])
        assert np.asarray(j.marginal_w()).tolist() == pytest.approx([0.4, 0.6])

    @pytest.mark.parametrize("cls, bad", [
        (Pmf, [np.nan, 0.5, 0.5]),
        (Pmf, [np.inf, 1.0]),
        (pmf_rows, [[np.nan, 1.0], [0.5, 0.5]]),
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
            if kl_divergence(cand, p) <= gdelta_radius(delta):
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


class TestGdeltaHelper:
    """`gdelta_sup` with its forked helper computes the serial search's values and meets its errors."""

    P = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])

    @staticmethod
    def objective(d):
        # not concave, so that some ascent steps improve and others do not
        return float(np.sin(7 * np.asarray(d)) @ np.arange(1.0, 7.0))

    def search(self, objective, helper, budget):
        val, arg = gdelta_sup(self.P, 0.1, objective, search_budget=budget, seed=5, _helper=helper)
        return val.hex(), [x.hex() for x in arg.tolist()]

    def serial_points(self, budget):
        seen = []

        def record(d):
            seen.append(np.array(d))
            return self.objective(d)

        self.search(record, False, budget)
        return seen

    @staticmethod
    def failing_at(point, fail):
        def objective(d):
            if np.array_equal(d, point):
                fail()
            return TestGdeltaHelper.objective(d)

        return objective

    def test_same_bits_as_serial(self, helper_points):
        # 30 stops the restarts after 3 of 4 and the ascent in its fourth pass, 160 runs all 13 restarts,
        # and the ascent ends on each of its steps from 20 to 47
        for budget in [160, *range(20, 48)]:
            serial = self.search(self.objective, False, budget)
            assert helper_points == []
            assert self.search(self.objective, True, budget) == serial
            assert len(helper_points) >= 3  # half the gradient's points at least
            del helper_points[:]
            assert multiprocessing.active_children() == []

    @staticmethod
    def raise_error():
        raise ValueError("objective failed")

    @staticmethod
    def warn():
        warnings.warn("objective warned", RuntimeWarning)  # an error under the suite's warning filter

    @pytest.mark.parametrize("fail, error", [(raise_error, ValueError), (warn, RuntimeWarning)])
    def test_error_of_each_serial_call(self, fail, error, helper_points):
        seen = self.serial_points(30)
        firsts = [k for k, x in enumerate(seen) if not any(np.array_equal(x, y) for y in seen[:k])]
        for k in firsts:
            objective = self.failing_at(seen[k], fail)
            with pytest.raises(error) as serial:
                self.search(objective, False, 30)
            with pytest.raises(error) as helped:
                self.search(objective, True, 30)
            assert str(helped.value) == str(serial.value)
            assert multiprocessing.active_children() == []
        # the helper evaluated some of the failing points, the gradient's and the ascent's
        assert len(helper_points) > 10

    @pytest.mark.parametrize("fail", [raise_error, warn])
    def test_points_the_serial_search_skips_stay_quiet(self, fail, helper_points):
        seen = self.serial_points(160)
        want = self.search(self.objective, True, 160)
        skipped = [x for x in helper_points if not any(np.array_equal(x, y) for y in seen)]
        assert len(skipped) >= 3
        for point in skipped[:3]:
            assert self.search(self.failing_at(point, fail), True, 160) == want
            assert multiprocessing.active_children() == []

    def test_beside_another_thread_no_helper(self, helper_points):
        want = self.search(self.objective, False, 60)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert self.search(self.objective, True, 60) == want
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert helper_points == []
