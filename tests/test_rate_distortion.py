import concurrent.futures
import itertools
import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

import genbounds.ratedistortion as rdm
from genbounds.cli import main
from genbounds.info import Pmf, mutual_information
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

from conftest import entropy


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

    def test_zero_rate_point_is_the_cheapest_column(self):
        # from min_j E_p[d(., j)] up, one constant reproduction meets the target: rate 0 with no BA solve
        p, d = random_problem(73)
        cols = p @ d
        assert cols.max() > cols.min() + 0.1
        for eps in (cols.min(), 0.5 * (cols.min() + cols.max()), cols.max() + 0.1):
            sol = rd_curve(p, d, eps)
            assert (sol.rate_nats, sol.iterations) == (0.0, 0)
            assert sol.achieved_distortion == pytest.approx(cols.min(), abs=1e-12)

    def test_lagrange_zero_unconstrained(self):
        sol = blahut_arimoto([0.5, 0.5], DistortionSpec(hamming(2), 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(0.0, abs=1e-12)

    def test_lossless_three_symbols(self):
        sol = rd_curve(np.full(3, 1 / 3), DistortionSpec(hamming(3), 0.0), 0.0)
        assert sol.rate_nats == pytest.approx(math.log(3), abs=1e-6)

    def test_underflowed_row_is_argmin_point_mass(self):
        # the zero-probability symbol's cheap reproduction has marginal 0 and
        # exp(-200 * 5) underflows, so its row's normaliser is exactly 0; the
        # fixed point's marginal is (1/2, 1/2, 0), so each live row puts
        # e^-200 / (1 + e^-200) on the other symbol
        p = [0.5, 0.5, 0.0]
        d = [[0, 1, 5], [1, 0, 5], [5, 5, 0]]
        sol = blahut_arimoto(p, d, 200.0)
        assert sol.rate_nats == pytest.approx(math.log(2), abs=1e-12)
        assert sol.achieved_distortion == pytest.approx(math.exp(-200) / (1 + math.exp(-200)), abs=1e-15)
        # the lossless edge reaches the same multipliers
        assert rd_curve(p, d, 0.0).rate_nats == pytest.approx(math.log(2), abs=1e-9)

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


def random_problem(seed, zero=None):
    gen = rng(seed)
    p = gen.dirichlet(np.ones(4))
    if zero is not None:
        p[zero] = 0.0
        p /= p.sum()
    d = gen.uniform(0, 1, size=(4, 4))
    np.fill_diagonal(d, 0.0)
    return p, d


def between_floor_and_zero_rate(p, d, frac):
    floor = float((p * d.min(axis=1)).sum())
    return floor + frac * (float((p @ d).min()) - floor)


def abs_problem(k):
    grid = np.arange(k) / (k - 1)
    return np.full(k, 1.0 / k), np.abs(grid[:, None] - grid[None, :])


# Every call runs a different branch of the solver: plain SQUAREM-accelerated
# solves, a step whose output marginal has exact zeros (the masked log branch:
# the third reproduction symbol is never optimal and exp underflows at this
# multiplier), a solve stopped at MAX_ITER, rd_curve's bracketing plus
# bisection, its lossless edge, and a source with a zero-probability symbol.
GOLDEN_CALLS = {
    "ba_random": lambda: blahut_arimoto(*random_problem(72), 3.0),
    "ba_masked": lambda: blahut_arimoto([0.4, 0.6], [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], 1000.0),
    "ba_max_iter": lambda: blahut_arimoto(*abs_problem(16), 2.072265625),
    "rd_bisection": lambda: rd_curve(
        *random_problem(72), between_floor_and_zero_rate(*random_problem(72), 0.3)
    ),
    "rd_lossless": lambda: rd_curve(*random_problem(72), 0.0),
    "rd_partial_support": lambda: rd_curve(
        *random_problem(71, zero=2), between_floor_and_zero_rate(*random_problem(71, zero=2), 0.4)
    ),
}

# (rate, distortion, multiplier as float.hex, iterations, converged), recorded
# before the solver was restructured around one prepared problem per call; any
# change to the floating-point operations of a BA step shows up here.
GOLDEN = {
    "ba_random": ("0x1.5158dcd5f4a5ep-3", "0x1.109eb783ce0f9p-3", "0x1.8000000000000p+1", 31, True),
    "ba_masked": ("0x1.5894fc37432c8p-1", "0x0.0p+0", "0x1.f400000000000p+9", 4, True),
    "ba_max_iter": ("0x1.b238989200b00p-8", "0x1.0c941e13bc1a0p-2", "0x1.0940000000000p+1", 10000, False),
    "rd_bisection": ("0x1.145d4be44bf24p-1", "0x1.c265074fb5caap-5", "0x1.ccefaef3bacb6p+2", 3, True),
    "rd_lossless": ("0x1.30dffb7dcae88p+0", "0x1.8cb4948dbf44ap-54", "0x1.076463f8fd068p+8", 3, True),
    "rd_partial_support": ("0x1.ff78b05a270c6p-3", "0x1.68c9d75c140e6p-7", "0x1.300a459caf5a6p+4", 7, True),
}


class TestBitExactSolver:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
    def test_golden(self, name):
        sol = GOLDEN_CALLS[name]()
        got = (
            float(sol.rate_nats).hex(),
            float(sol.achieved_distortion).hex(),
            float(sol.lagrange_lambda).hex(),
            sol.iterations,
            sol.converged,
        )
        assert got == GOLDEN[name]


class TestInputContract:
    abs4 = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))) / 3.0

    @pytest.mark.parametrize(
        "source",
        [[-0.5, 0.5, 0.5, 0.5], [0.5] * 4, [0.25, 0.25, np.nan, 0.5], [0.25, 0.25, np.inf, 0.5]],
    )
    def test_source_must_be_a_pmf(self, source):
        with pytest.raises(ValueError, match="probabilit"):
            rd_curve(source, self.abs4, 0.5)
        with pytest.raises(ValueError, match="probabilit"):
            blahut_arimoto(source, self.abs4, 1.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_epsilon_must_be_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            rd_curve(np.full(4, 0.25), self.abs4, epsilon)

    @pytest.mark.parametrize("lagrange", [np.inf, np.nan, -1.0])
    def test_lagrange_must_be_finite_and_non_negative(self, lagrange):
        with pytest.raises(ValueError, match="lagrange"):
            blahut_arimoto(np.full(4, 0.25), self.abs4, lagrange)

    @pytest.mark.parametrize("d", [np.ones((3, 4)), np.ones((4, 0)), np.ones(4), [[0.0, np.nan]] * 4])
    def test_distortion_shape_and_entries(self, d):
        with pytest.raises(ValueError, match="distortion"):
            rd_curve(np.full(4, 0.25), d, 0.5)
        with pytest.raises(ValueError, match="distortion"):
            blahut_arimoto(np.full(4, 0.25), d, 1.0)

    def test_dimension_grid_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rd_dimension(np.full(4, 0.25), DistortionSpec(self.abs4, 0), [0.3, np.nan, 0.1])

    @pytest.mark.parametrize("grid", [[0.3, 0.1, 0.0], [0.3, 0.1, -0.1], [1.0, 0.5, 0.25], [2.0, 0.5, 0.25]])
    def test_dimension_grid_must_be_positive(self, grid):
        # a zero point divided by zero in log(1/eps), then the fit raised
        # LinAlgError; at eps = 1 the slope R/log(1/eps) was reported as 0, and
        # above 1 it turned negative
        with pytest.raises(ValueError, match="positive"):
            rd_dimension(np.full(4, 0.25), DistortionSpec(self.abs4, 0), grid)


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
        sol = rd_gen(joint, gt, eps)
        assert sol.rate_nats == pytest.approx(0.0, abs=1e-9)

    def test_gen_table_must_fit_the_joint(self):
        prob, alg, joint, ctx = self.instance()
        with pytest.raises(ValueError, match="shape"):
            rd_gen(joint, gen_table(prob, ctx)[:-1], 0.0)

    def test_identity_channel_feasibility(self):
        # at epsilon = 0 the identity reproduction is feasible, so the rate
        # can never exceed I(S;W) of the inducing joint
        prob, alg, joint, ctx = self.instance()
        sol = rd_gen(joint, gen_table(prob, ctx), 0.0)
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
        assert all(type(s) is float for s in slopes)
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


class TestRdGrid:
    """`_rd_grid`, the one grid solver of rd_dimension and `rd --source`, on `_map_units`."""

    @staticmethod
    def force_processes(monkeypatch):
        # any matrix is large enough, and three CPUs are available
        monkeypatch.setattr(rdm, "_CONCURRENT_CELLS", 0)
        monkeypatch.setattr(rdm, "_cpus", lambda: 3)

    @staticmethod
    def bits(sol):
        return (float(sol.rate_nats).hex(), float(sol.achieved_distortion).hex(), float(sol.lagrange_lambda).hex(),
                sol.iterations, sol.converged)

    def test_concurrent_points_match_serial_rd_curve(self, monkeypatch):
        p, d = abs_problem(16)
        # bisection, lossless edge and zero-rate points
        grid = [0.2, 0.1, 0.0, 0.4, 0.03]
        want = [self.bits(rd_curve(p, d, e)) for e in grid]
        self.force_processes(monkeypatch)
        assert [self.bits(pt) for pt in rdm._rd_grid(p, d, grid)] == want
        # a shared prepared problem carries nothing from one solve to the next
        assert [self.bits(pt) for pt in rdm._rd_grid(p, d, grid[::-1])] == want[::-1]

    def test_helpers_keep_the_callers_numpy_error_state(self, monkeypatch):
        self.force_processes(monkeypatch)

        def spy(prob, epsilon):
            # runs in a worker: it reports the state it sees there
            return os.getpid(), np.geterr()["over"]

        monkeypatch.setattr(rdm, "_solve", spy)
        with np.errstate(over="raise"):
            seen = rdm._rd_grid(*abs_problem(8), [0.3, 0.2, 0.1, 0.05])
        assert [state for _, state in seen] == ["raise"] * 4
        assert os.getpid() not in {pid for pid, _ in seen}

    def test_cli_rd_source_bytes(self, tmp_path, monkeypatch):
        argv = ["rd", "--source", ",".join(["0.0625"] * 16), "--distortion", "abs",
                "--epsilon-grid", "0.3,0.1,0.05,0.0,0.02"]
        assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        self.force_processes(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "processes")]) == 0
        serial = (tmp_path / "serial" / "rd_curve.csv").read_bytes()
        assert (tmp_path / "processes" / "rd_curve.csv").read_bytes() == serial

    def test_first_error_in_grid_order_and_no_worker_left(self, tmp_path, monkeypatch, capsys):
        d = hamming(3) + 0.2  # floor 0.2
        p = [0.25, 0.25, 0.5]
        grid = [0.5, 0.1, 0.6, 0.15, 0.3]  # the 2nd and 4th points lie below the floor
        with pytest.raises(InfeasibleDistortion) as serial:
            for e in grid:
                rd_curve(p, d, e)
        self.force_processes(monkeypatch)
        before = threading.active_count()
        with pytest.raises(InfeasibleDistortion) as pooled:
            rdm._rd_grid(p, DistortionSpec(d), grid)
        assert str(pooled.value) == str(serial.value) == "epsilon=0.1 below the achievable floor 0.2"
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before
        assert len(rdm._rd_grid(p, DistortionSpec(d), [0.5, 0.3, 0.6])) == 3
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before
        matrix = tmp_path / "d.json"
        matrix.write_text(json.dumps(d.tolist()))
        argv = ["rd", "--source", "0.25,0.25,0.5", "--distortion", str(matrix),
                "--epsilon-grid", ",".join(map(str, grid)), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {serial.value}\n"

    @staticmethod
    def no_pool(monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)

    def test_small_inputs_start_no_process(self, tmp_path, monkeypatch):
        self.no_pool(monkeypatch)
        monkeypatch.setattr(rdm, "_cpus", lambda: 4)
        # 32 symbols, 1024 cells: below the cutoff
        argv = ["rd", "--source", ",".join([repr(1 / 32)] * 32), "--distortion", "abs",
                "--epsilon-grid", "0.1,0.05,0.0", "--out", str(tmp_path / "rd")]
        assert main(argv) == 0
        p, d = abs_problem(16)
        slopes, _ = rd_dimension(p, d, [0.25, 0.125, 0.0625])
        assert len(slopes) == 3
        # the CLI's sweep at a test's size
        argv = ["trajectory", "--trials", "4", "--steps", "30", "--n", "8", "--out", str(tmp_path / "sweep")]
        assert main(argv) == 0

    def test_caller_beside_other_threads_runs_serially(self, monkeypatch):
        self.force_processes(monkeypatch)
        self.no_pool(monkeypatch)
        p, d = abs_problem(8)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            pts = rdm._rd_grid(p, d, [0.3, 0.1])
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert [pt.rate_nats for pt in pts] == [rd_curve(p, d, e).rate_nats for e in [0.3, 0.1]]

    def test_daemonic_process_runs_serially(self, monkeypatch):
        # a daemonic process may not have children: its grid runs in it
        self.force_processes(monkeypatch)
        self.no_pool(monkeypatch)
        p, d = abs_problem(8)
        grid = [0.3, 0.1, 0.0]
        want = [rd_curve(p, d, e).rate_nats for e in grid]
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            try:
                send.send([pt.rate_nats for pt in rdm._rd_grid(p, d, grid)])
            except BaseException as exc:
                send.send(repr(exc))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        try:
            assert receive.poll(60)
            assert receive.recv() == want
        finally:
            proc.join(60)
        assert not proc.is_alive()
        assert proc.exitcode == 0
