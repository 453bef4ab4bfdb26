import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds.info import Pmf, mutual_information
from genbounds.ratedistortion import DistortionSpec, rd_curve
from genbounds.seeding import rng
from genbounds.trajectory import (
    _spearman,
    CouplingEstimate,
    LogisticToy,
    QuadraticToy,
    Quantizer,
    TrajectoryDivergence,
    estimate_M,
    gen_trajectory,
    lr_sweep,
    simulate_trajectory,
    thm7_bound,
    thm8_bound,
    trajectory_distribution,
)


class TestSimulate:
    def test_zero_lr_constant(self):
        model = QuadraticToy()
        s = model.sample_dataset(10, 1)
        tr = simulate_trajectory(model, s, 0.0, 40, seed=2)
        assert len(set(tr.key())) == 1

    def test_seed_determinism(self):
        model = LogisticToy()
        s = model.sample_dataset(12, 3)
        a = simulate_trajectory(model, s, 0.3, 60, seed=4)
        b = simulate_trajectory(model, s, 0.3, 60, seed=4)
        assert a.key() == b.key()
        assert np.array_equal(a.raw_states, b.raw_states)

    def test_quadratic_gd_monotone_approach(self):
        # convexity oracle: full-batch GD on a quadratic contracts toward the
        # empirical minimizer monotonically
        model = QuadraticToy()
        s = model.sample_dataset(16, 6)
        tr = simulate_trajectory(
            model, s, 0.15, 30, seed=7, stochastic=False, t1=0, t2=30, w0=0.9
        )
        target = float(np.mean(model.z_values[s]))
        dists = np.abs(tr.raw_states - target)
        assert np.all(np.diff(dists) <= 1e-12)

    def test_divergence_names_step(self):
        model = QuadraticToy()
        s = model.sample_dataset(8, 8)
        with pytest.raises(TrajectoryDivergence, match="step"):
            simulate_trajectory(model, s, 80.0, 50, seed=9, stochastic=False, w0=0.9)

    @pytest.mark.parametrize("steps", [-3, 0, 1])
    def test_too_few_steps_rejected_before_any_draw(self, steps):
        model = QuadraticToy()
        with pytest.raises(ValueError, match="need at least 2 steps"):
            simulate_trajectory(model, model.sample_dataset(8, 8), 0.1, steps, seed=9)
        with pytest.raises(ValueError, match="need at least 2 steps"):
            lr_sweep(model, [0.1], trials=2, n=6, steps=steps)

    def test_window_default_last_half(self):
        model = QuadraticToy()
        s = model.sample_dataset(8, 10)
        tr = simulate_trajectory(model, s, 0.05, 40, seed=11)
        assert (tr.t1, tr.t2) == (20, 40)
        assert tr.delta_t == 20
        assert tr.state_indices.size == 20

    def test_nan_iterate_is_divergence(self):
        # lr = 1e6 overflows the quadratic iterate to inf before the window;
        # inf - inf is NaN, which must read as a divergence, not a crash
        model = QuadraticToy()
        s = model.sample_dataset(8, 8)
        with pytest.raises(TrajectoryDivergence, match="nan"):
            simulate_trajectory(model, s, 1e6, 120, seed=9)
        with pytest.raises(TrajectoryDivergence, match="step 3"):
            model.default_quantizer().cells([0.0, math.nan], 2)

    def test_full_batch_matches_naive_loop(self):
        model = LogisticToy()
        s = model.sample_dataset(11, 24)
        tr = simulate_trajectory(model, s, 0.9, 30, seed=0, stochastic=False, t1=10, w0=-1.0)
        w, naive = -1.0, []
        for t in range(30):
            w = w - 0.9 * float(np.mean([model.grad(model.z_values[i], w) for i in s]))
            if t >= 10:
                naive.append(w)
        assert tr.raw_states.tolist() == naive

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**63 - 1),
        k=st.integers(1, 2**31),
        steps=st.integers(1, 200),
    )
    def test_batched_picks_match_scalar_draws(self, seed, k, steps):
        # simulate_trajectory draws its picks in one call; the Philox stream
        # must give the values of one scalar draw per step
        batched = rng(seed, 17).integers(k, size=steps).tolist()
        gen = rng(seed, 17)
        assert batched == [int(gen.integers(k)) for _ in range(steps)]

    def test_logistic_grad_finite_far_out(self):
        model = LogisticToy()
        for w in (-1e6, -800.0, 800.0, 1e6):
            for z in model.z_values:
                g = model.grad(z, w)
                assert math.isfinite(g) and abs(g) <= model.lipschitz_L

    @pytest.mark.parametrize("lo, hi, bins", [
        (-1.0, 1.0, 2.5),  # its grid would never reach hi
        (-math.inf, 1.0, 4),  # its step would be inf
        (-1.0, math.nan, 4),
        (1.0, 1.0, 4),
        (-1.0, 1.0, 1),
        (-1.0, 1.0, math.inf),
    ])
    def test_quantizer_rejects_degenerate_grids(self, lo, hi, bins):
        with pytest.raises(ValueError):
            Quantizer(lo, hi, bins)

    def test_quantizer_bins_are_an_int(self):
        q = Quantizer(-1.0, 1.0, 4.0)
        assert q.bins == 4 and isinstance(q.bins, int) and q.value(4) == 1.0

    def test_cells_match_scalar_rounding(self):
        # one array pass of np.rint equals round() per iterate, ties to even included
        q = Quantizer(-1.0, 1.0, 8)
        half = 0.5 * q.step
        ties = [q.lo + (k + 0.5) * q.step for k in range(-1, q.bins + 1)]  # exact on this grid
        edges = [q.lo - half, q.hi + half, q.lo, q.hi, np.nextafter(q.lo - half, 0.0), np.nextafter(q.hi + half, 0.0)]
        window = np.array(ties + edges + rng(31).uniform(q.lo - half, q.hi + half, 500).tolist())
        scalar = [min(max(round((w - q.lo) / q.step), 0), q.bins) for w in window.tolist()]
        assert q.cells(window, 0).tolist() == scalar
        assert scalar[:3] == [0, 0, 2] and scalar[q.bins:q.bins + 4] == [8, 8, 0, 8]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.nextafter(-1.125, -2.0), np.nextafter(1.125, 2.0)])
    def test_cells_name_the_first_step_out_of_range(self, bad):
        q = Quantizer(-1.0, 1.0, 8)
        with pytest.raises(TrajectoryDivergence, match=f"iterate {bad} left the grid range at step 12$"):
            q.cells([0.0, 0.5, bad, 0.2, math.nan], 10)

    def test_states_on_grid(self):
        model = LogisticToy()
        s = model.sample_dataset(10, 12)
        tr = simulate_trajectory(model, s, 0.4, 50, seed=13)
        q = tr.quantizer
        for v in tr.states:
            assert abs((v - q.lo) / q.step - round((v - q.lo) / q.step)) < 1e-9


class TestGenTrajectory:
    def test_constant_trajectory_matches_single(self):
        model = QuadraticToy()
        s = model.sample_dataset(10, 14)
        tr = simulate_trajectory(model, s, 0.0, 30, seed=15, w0=0.25)
        v = tr.states[0]
        expected = model.population_risk(v) - model.empirical_risk(s, v)
        assert gen_trajectory(model, s, tr) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_loop(self):
        model = LogisticToy()
        s = model.sample_dataset(14, 16)
        tr = simulate_trajectory(model, s, 0.5, 40, seed=17)
        naive = np.mean(
            [model.population_risk(v) - model.empirical_risk(s, v) for v in tr.states]
        )
        assert gen_trajectory(model, s, tr) == float(naive)

    @pytest.mark.parametrize("model", [LogisticToy(), QuadraticToy()], ids=["logistic", "quadratic"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 24, 129])
    def test_matches_per_step_mean_at_any_sample_size(self, model, n):
        # the per-cell gap must take the 1-D mean of the sample losses: a
        # 2-D row mean moves the last bit at some sample sizes
        for t in range(6):
            s = model.sample_dataset(n, 27, n, t)
            tr = simulate_trajectory(model, s, 0.3 + 0.2 * t, 60, seed=t)
            naive = np.mean([model.population_risk(v) - model.empirical_risk(s, v) for v in tr.states])
            assert gen_trajectory(model, s, tr) == float(naive)

    def test_bounded_for_unit_loss(self):
        model = LogisticToy()
        gen = rng(18)
        for t in range(10):
            s = model.sample_dataset(10, 19, t)
            tr = simulate_trajectory(model, s, float(gen.uniform(0.05, 1.5)), 30, seed=t)
            assert -1.0 <= gen_trajectory(model, s, tr) <= 1.0


class TestTrajectoryBoundFormulas:
    def test_thm7_trivial(self):
        assert thm7_bound(0.0, 0.05, 100, 0.0).bound_value == pytest.approx(
            math.sqrt(math.log(20) / 200), abs=1e-12
        )
        assert thm7_bound(0.0, 1.0, 50, 0.05).bound_value == pytest.approx(0.05, abs=1e-12)

    def test_thm7_direct_value(self):
        rep = thm7_bound(1.2, 0.05, 200, 0.02)
        assert rep.bound_value == pytest.approx(
            math.sqrt((1.2 + math.log(20)) / 400) + 0.02, abs=1e-12
        )
        assert rep.bound_value == pytest.approx(0.12240, abs=1e-4)

    def test_thm7_terms_are_the_old_formula(self):
        # thm7 builds its terms as eq4 at sigma = 1/2; R / (2n) was its own formula
        gen = rng(41)
        rd = np.concatenate([[0.0, 1e-300, 2.2250738585072014e-308, 1e300], gen.exponential(1.0, 20000),
                             10.0 ** gen.uniform(-300, 300, 20000)])
        for r in rd.tolist():
            n, delta, eps = int(gen.integers(1, 10**6)), float(gen.uniform(1e-9, 1.0)), float(gen.normal())
            rep = thm7_bound(r, delta, n, eps)
            old = {"rate_term": r / (2 * n), "confidence_term": math.log(1.0 / delta) / (2 * n), "epsilon_term": eps}
            assert rep.terms == old
            assert rep.bound_value == math.sqrt(old["rate_term"] + old["confidence_term"]) + eps

    def test_thm8_trivial(self):
        n = 60
        rep = thm8_bound(0.0, 0.0, 1.0, 0.1, n, 0.0)
        assert rep.bound_value == pytest.approx(
            math.sqrt(math.log(math.sqrt(2 * n) / 0.1) / (2 * n - 1)), abs=1e-12
        )

    def test_thm8_lipschitz_floor(self):
        rep = thm8_bound(0.0, 0.0, 2.0, 0.9999999, 10**6, 0.5)
        assert rep.bound_value >= math.sqrt(4 * 2.0 * 0.5) - 1e-3

    def test_thm8_direct_value(self):
        rep = thm8_bound(0.8, 0.3, 1.0, 0.1, 100, 0.01)
        expected = math.sqrt((0.8 + 0.3 + math.log(math.sqrt(200) * 10)) / 199 + 0.04)
        assert rep.bound_value == pytest.approx(expected, abs=1e-12)
        assert rep.bound_value == pytest.approx(0.26498, abs=1e-3)

    def test_thm8_monotone(self):
        base = thm8_bound(0.5, 0.2, 1.0, 0.1, 50, 0.01).bound_value
        assert thm8_bound(0.9, 0.2, 1.0, 0.1, 50, 0.01).bound_value >= base
        assert thm8_bound(0.5, 0.6, 1.0, 0.1, 50, 0.01).bound_value >= base
        assert thm8_bound(0.5, 0.2, 1.0, 0.1, 50, 0.05).bound_value >= base


class TestCoupling:
    def test_data_independent_trajectory(self):
        pi = np.tile([0.25, 0.5, 0.25], (4, 1))
        est = estimate_M(pi, np.full(4, 0.25), 0.2, budget=300, seed=1)
        assert est.log_M == pytest.approx(0.0, abs=1e-9)
        assert est.plug_in == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_distinct_rows(self):
        k = 4
        pi = np.eye(k)
        est = estimate_M(pi, np.full(k, 1 / k), 0.5, budget=300, seed=2)
        assert est.plug_in == pytest.approx(math.log(k), abs=1e-12)
        assert est.log_M >= est.plug_in - 1e-12

    def test_sup_dominates_plug_in(self):
        gen = rng(21)
        pi = gen.dirichlet(np.ones(3), size=5)
        ps = gen.dirichlet(np.ones(5))
        est = estimate_M(pi, ps, 0.3, budget=500, seed=3)
        assert est.log_M >= est.plug_in - 1e-12
        assert est.log_M >= 0.0

    def test_negative_log_m_rejected(self):
        with pytest.raises(ValueError):
            CouplingEstimate(log_M=-0.5, plug_in=0.0)


class TestExactModeTailDomination:
    def test_thm7_dominates_exact_tail(self):
        # exact mode: enumerable dataset types, deterministic full-batch GD,
        # so the law of the windowed trajectory gen error is exact. The
        # ball-sup bound must dominate its (1 - delta) tail.
        import itertools
        import math as _math

        from genbounds.learning import enumerate_types
        from genbounds.info import gdelta_sup, in_gdelta
        from genbounds.ratedistortion import DistortionSpec, rd_curve

        model = QuadraticToy()
        n, steps, delta, eps = 6, 24, 0.25, 0.01
        types = enumerate_types(2, n)
        weights = np.array(
            [
                _math.comb(n, int(c[1]))
                * np.asarray(model.mu)[0] ** c[0]
                * np.asarray(model.mu)[1] ** c[1]
                for c in types
            ]
        )
        weights /= weights.sum()
        trajs = []
        gens = []
        for c in types:
            samples = np.repeat([0, 1], c)
            tr = simulate_trajectory(
                model, samples, 0.35, steps, seed=0, stochastic=False, w0=0.9
            )
            trajs.append(tr)
            gens.append(gen_trajectory(model, samples, tr))
        gens = np.asarray(gens)
        # exact (1 - delta) tail of the windowed gen error
        order = np.argsort(gens)
        cum = np.cumsum(weights[order])
        tail_idx = order[np.searchsorted(cum, 1 - delta, side="left")]
        tail_value = gens[tail_idx]
        # per-pair trajectory gen table for the RD of the trajectory law
        alphabet = sorted({tr.key() for tr in trajs})
        key_to_col = {k: j for j, k in enumerate(alphabet)}
        gen_hat = np.zeros((len(types), len(alphabet)))
        for i, c in enumerate(types):
            samples = np.repeat([0, 1], c)
            for k, j in key_to_col.items():
                tr_vals = [trajs[0].quantizer.value(idx) for idx in k]
                gen_hat[i, j] = float(
                    np.mean(
                        [
                            model.population_risk(v) - model.empirical_risk(samples, v)
                            for v in tr_vals
                        ]
                    )
                )
        own_col = np.array([key_to_col[tr.key()] for tr in trajs])

        def rd_of(nu):
            nu = np.clip(nu, 0, None)
            nu = nu / nu.sum()
            own = float((nu * gen_hat[np.arange(len(types)), own_col]).sum())
            return rd_curve(
                nu, DistortionSpec(-gen_hat, eps - own), eps - own
            ).rate_nats

        sup_rd, _ = gdelta_sup(weights, delta, rd_of, search_budget=400, seed=3)
        bound = thm7_bound(sup_rd, delta, n, eps).bound_value
        assert bound >= tail_value
        violated = float(weights[gens > bound].sum())
        assert violated <= delta


def _sweep_per_trial(model, lrs, trials, n, steps, seed):
    """lr_sweep composed trial by trial from the public pieces."""
    quant = model.default_quantizer()
    rows = []
    for li, lr in enumerate(lrs):
        gens, trajs = [], []
        try:
            for t in range(trials):
                s = model.sample_dataset(n, seed, li, t, 0)
                child = int(rng(seed, li, t, 313).integers(2**63))
                trajs.append(simulate_trajectory(model, s, lr, steps, seed=child, quantizer=quant))
                gens.append(gen_trajectory(model, s, trajs[-1]))
        except TrajectoryDivergence:
            rows.append((lr, math.nan, math.nan, "diverged"))
            continue
        dist, rho, _ = trajectory_distribution(trajs)
        span = float(rho.max())
        rate = rd_curve(dist, rho, 0.1 * span if span > 0 else 0.0).rate_nats
        rows.append((lr, float(np.mean(gens)), rate, "ok"))
    ok = [(g, r) for _, g, r, flag in rows if flag == "ok"]
    if len(ok) >= 2 and len({g for g, _ in ok}) > 1 and len({r for _, r in ok}) > 1:
        return rows, _spearman([g for g, _ in ok], [r for _, r in ok])
    return rows, math.nan


class TestSweep:
    @pytest.mark.parametrize("model, lrs, seed", [
        (LogisticToy(), [0.05, 0.4, 1.2, 2.0, 1e6], 185610158),
        (LogisticToy(), [0.1, 0.8, 1.6], 0),
        (QuadraticToy(), [0.05, 0.2, 0.4, 1.2, 2.5], 5),
        (QuadraticToy(), [0.1, 0.6, 1.0], 321761050),
    ])
    def test_rows_equal_the_per_trial_composition(self, model, lrs, seed):
        res = lr_sweep(model, lrs, trials=12, n=10, steps=40, seed=seed)
        rows, rho = _sweep_per_trial(model, lrs, 12, 10, 40, seed)
        # repr round-trips every float exactly and writes NaN as nan
        assert repr(res.to_csv_rows()) == repr(rows)
        assert repr(res.spearman_rho) == repr(rho)

    def test_single_lr_correlation_undefined(self):
        model = QuadraticToy()
        res = lr_sweep(model, [0.1], trials=5, n=8, steps=20, seed=4)
        assert math.isnan(res.spearman_rho)

    def test_identical_trajectories_constant_rd(self):
        model = QuadraticToy()
        res = lr_sweep(model, [0.0, 0.0], trials=4, n=8, steps=20, seed=5)
        rds = [r.rd_nats for r in res.rows]
        assert rds[0] == pytest.approx(rds[1], abs=1e-12)
        assert rds[0] == pytest.approx(0.0, abs=1e-9)

    def test_divergent_rate_flagged(self):
        model = QuadraticToy()
        res = lr_sweep(model, [0.05, 50.0], trials=4, n=8, steps=25, seed=6)
        flags = {r.lr: r.flag for r in res.rows}
        assert flags[0.05] == "ok" and flags[50.0] == "diverged"
        assert math.isnan([r for r in res.rows if r.flag == "diverged"][0].rd_nats)

    def test_rows_pinned(self):
        # values recorded with one risk evaluation per window step; the
        # sweep must reproduce them bit for bit
        res = lr_sweep(LogisticToy(), [0.3, 0.8, 1.6, 30.0], trials=6, n=10, steps=40, seed=3)
        assert [r.flag for r in res.rows] == ["ok", "ok", "ok", "diverged"]
        assert [r.mean_gen for r in res.rows[:3]] == [
            0.0124032857318261, 0.02367900003348616, 0.020808818211245392
        ]
        assert [r.rd_nats for r in res.rows[:3]] == [
            0.6376822577693914, 0.5784446175743212, 0.6456357055179012
        ]
        assert math.isnan(res.rows[3].mean_gen) and math.isnan(res.rows[3].rd_nats)

    @pytest.mark.parametrize(
        "lrs, trials",
        [([0.1], 0), ([0.1], -3), ([0.1, math.nan], 2), ([math.inf], 2)],
    )
    def test_bad_input_rejected(self, lrs, trials):
        with pytest.raises(ValueError):
            lr_sweep(QuadraticToy(), lrs, trials=trials, n=6, steps=10)

    @pytest.mark.parametrize("n, epsilon", [(0, None), (-1, None), (6, math.nan), (6, math.inf)])
    def test_sample_size_and_epsilon_checked(self, n, epsilon):
        with pytest.raises(ValueError, match="n must|epsilon"):
            lr_sweep(QuadraticToy(), [0.1], trials=2, n=n, steps=10, epsilon=epsilon)

    def test_logistic_overflow_flagged(self):
        # lr = 1e6 takes z * w far past the range of e^{zw} before the window
        res = lr_sweep(LogisticToy(), [0.1, 1e6], trials=2, n=6, steps=60, seed=1)
        assert [r.flag for r in res.rows] == ["ok", "diverged"]

    def test_pipeline_smoke(self):
        model = LogisticToy()
        res = lr_sweep(
            model, [0.05, 0.2, 0.8, 1.6], trials=12, n=12, steps=60, seed=7
        )
        assert all(r.flag == "ok" for r in res.rows)
        assert -1.0 <= res.spearman_rho <= 1.0

    def test_spearman_matches_scipy(self):
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        gen = rng(92)
        for t in range(300):
            n = int(gen.integers(2, 40))
            x = gen.integers(0, 4, n).astype(float) if t % 2 else gen.normal(size=n)
            y = gen.integers(0, 3, n).astype(float) if t % 3 else gen.normal(size=n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert _spearman(x, y) == pytest.approx(spearmanr(x, y).statistic, abs=1e-15, rel=0)

    def test_trajectory_distribution_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one trajectory"):
            trajectory_distribution([])

    def test_trajectory_distribution_and_rd_curve_shape(self):
        model = LogisticToy()
        trs = []
        for t in range(20):
            s = model.sample_dataset(10, 23, t)
            trs.append(simulate_trajectory(model, s, 0.8, 40, seed=100 + t))
        dist, rho, alphabet = trajectory_distribution(trs)
        assert np.asarray(dist).sum() == pytest.approx(1.0)
        assert rho.shape == (len(alphabet), len(alphabet))
        assert np.allclose(rho, rho.T)
        span = float(rho.max())
        if span > 0:
            eps_grid = [0.5 * span, 0.25 * span, 0.1 * span]
            rates = [rd_curve(dist, DistortionSpec(rho, e), e).rate_nats for e in eps_grid]
            assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
