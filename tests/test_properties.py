"""Properties that hold on every input: fuzzed bound constructors, the SCO
counter-example, thm5's multiplier, the binary-KL inverse, the covering
simulator, the categorical draw, canonical JSON, and the CLI on malformed
input files and sizes.
Hypothesis runs under the suite's derandomized profile (tests/conftest.py), so
each run draws the same examples."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds.bounds import (
    _fo_condition,
    _logsumexp,
    _mgf_cells,
    channel_kl,
    fixed_size_bound,
    pac_bayes_eq22,
    reconstruct_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    thm5_expectation_bound,
    toy_example_bound,
)
from genbounds.cli import main
from genbounds.counterexample import ScoInstance, assemble_bound, scaling_study
from genbounds.info import (
    Pmf,
    _increasing_root,
    binary_kl,
    binary_kl_inverse,
    binary_kl_inverse_cap,
    renyi_divergence,
)
from genbounds.io import canonical_json
from genbounds.learning import FiniteLearningProblem, GibbsAlgorithm, enumerate_types
from genbounds.seeding import rng
from genbounds.trajectory import thm7_bound, thm8_bound
from genbounds.validation import _covering_flags, _draw, _inverse_cdf, covering_failure_estimate
from test_validation import per_trial_covering

fixed = settings(max_examples=40)

# the float edge cases, then ordinary values of either sign
edge = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
ordinary = st.floats(-10.0, 10.0, allow_nan=False)
x = st.one_of(edge, ordinary, st.floats(0.0, 1.0))
size = st.one_of(x, st.integers(-2, 10**6))
pmf = st.one_of(
    st.sampled_from([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0], [0.0, 1.0]]),
    st.lists(x, min_size=2, max_size=2),
)

CONSTRUCTORS = {
    "thm1": (thm1_bound, [x, x, size, x, x]),
    "eq4": (fixed_size_bound, [x, x, size, x, x]),
    "seeger": (seeger_fast_rate_bound, [x, x, x, size, x]),
    "toy": (toy_example_bound, [x, x, size, x, size, x]),
    "eq22": (pac_bayes_eq22, [pmf, pmf, x, x]),
    "thm7": (thm7_bound, [x, x, size, x]),
    "thm8": (thm8_bound, [x, x, x, x, size, x]),
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_bound_raises_or_reconstructs(kind):
    make, args = CONSTRUCTORS[kind]

    @fixed
    @given(st.tuples(*args))
    def check(values):
        try:
            rep = make(*values)
        except ValueError:
            return
        assert not math.isnan(rep.bound_value)
        assert rep.infinite == (not math.isfinite(rep.bound_value))
        assert reconstruct_bound(rep) == rep.bound_value

    check()


# instance sizes up to n = 8 (d = 24576 coordinates), and what must be rejected
sco_n = st.one_of(
    st.integers(-1, 8),
    st.sampled_from([True, np.True_, 4.0, np.float64(5.0), 2.5, 13, math.nan, math.inf]),
)


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@fixed
@given(sco_n)
def test_sco_instance_raises_or_is_finite(n):
    try:
        inst = ScoInstance(n)
    except ValueError:
        return
    assert type(inst.n) is int and 1 <= inst.n <= 8
    assert _all_finite([inst.T, inst.eta, inst.d, inst.lam, inst.sigma])
    assert math.isclose(inst.bad_count_pmf.sum(), 1.0, rel_tol=1e-12)


@fixed
@given(
    st.integers(1, 8),
    st.one_of(x, st.floats(0.98, 1.0)),
    st.sampled_from(["expectation", "tail", "mean"]),
    st.one_of(st.none(), x),
)
def test_sco_bound_raises_or_is_finite(n, r, mode, delta):
    try:
        rep = assemble_bound(ScoInstance(n), r, mode, delta)
    except ValueError:
        return
    assert _all_finite([rep.bound_value, *rep.terms.values()])
    assert reconstruct_bound(rep) == rep.bound_value


@fixed
@given(
    st.one_of(st.lists(st.integers(1, 8), min_size=2, max_size=3, unique=True), st.lists(sco_n, max_size=3)),
    st.one_of(st.integers(0, 3), st.sampled_from([-1, True, 2.5])),
)
def test_scaling_study_raises_or_is_finite(n_list, trials):
    try:
        res = scaling_study(n_list, trials)
    except ValueError:
        return
    assert len(res.rows) == len(n_list) >= 2
    assert _all_finite([res.slope_bound, res.slope_exact])
    for row in res.rows:
        assert _all_finite(dataclasses.astuple(row))
        assert row.exact_mean_gen <= row.bound_expectation


def _thm5_problem(gen, k: int):
    """(P, P_W|S, q, g, epsilon) of a random z x w problem; problems 0-2 are the edge cases.

    Problem 0 has a dataset symbol of mass 0, problem 1 a constant g, and problem 2
    a deterministic channel with KL(p||q) = D_2(P||q P_S) = log 4 above
    -log P(g = max g) = log(8/3), where the infimum is reached only as lam -> inf.
    """
    if k == 2:
        P = np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]])
        g = np.array([[0.5, 0.5, 0.1, 0.0], [0.5, 0.2, 0.3, 0.1]])
        return P, P / 0.5, np.full(4, 0.25), g, 0.0
    z, w = gen.integers(2, 5, size=2)
    ps = gen.dirichlet(np.ones(z))
    if k == 0:
        ps[0] = 0.0
        ps /= ps.sum()
    pws = gen.dirichlet(np.full(w, 0.5), size=z)
    q = gen.dirichlet(np.ones(w)) if k % 2 else ps @ pws
    g = np.full((z, w), 0.3) if k == 1 else gen.uniform(-1.0, 1.0, size=(z, w)) * gen.uniform(0.1, 5.0)
    return ps[:, None] * pws, pws, q, g, float(gen.uniform(0.0, 0.1)) * (k % 3 == 0)


def _grid_min(logw, g, K, lo):
    """min over 10^4 log-spaced lam in [lo, 1e8] of (K + log sum e^(logw + lam g)) / lam, as one array."""
    lams = np.geomspace(lo, 1e8, 10_000)
    t = g[:, None] * lams + logw[:, None]  # one column per lam: the reductions run along the short axis
    top = t.max(axis=0)
    return float(((K + np.log(np.exp(t - top).sum(axis=0)) + top) / lams).min())


def _check_multiplier(lam, logw, g, K, lo):
    """lam is lo where h(lo) >= 0, inf where h stays below 0, and else the upper end of the helper's bracket."""
    if lam == math.inf:
        assert K + _logsumexp(logw[g == g.max()]) >= 0
        return
    a, b = _increasing_root(lambda x: _fo_condition(logw, g, K, x), lo)
    assert lam == b
    if a == b:
        assert a == lo and _fo_condition(logw, g, K, lo)[0] >= 0
    else:
        assert b == math.nextafter(a, math.inf)
        assert _fo_condition(logw, g, K, a)[0] < 0 <= _fo_condition(logw, g, K, b)[0]


def test_thm5_multiplier_beats_a_fine_grid():
    gen = rng(2105)
    for k in range(200):
        P, pws, q, g, eps = _thm5_problem(gen, k)
        ps = P.sum(axis=1)
        logw, g_live = _mgf_cells(ps, q, g)
        kl = channel_kl(ps, pws, np.tile(q, (ps.size, 1)))
        rep = thm5_expectation_bound("i", P, pws, q, g, g, None, eps)
        assert rep.bound_value <= _grid_min(logw, g_live, kl, 1e-6) + eps + 1e-12 * abs(rep.bound_value), k
        assert reconstruct_bound(rep) == rep.bound_value
        _check_multiplier(rep.params["lambda"], logw, g_live, kl, 1e-6)

        f = np.exp(g)
        logw, logf = _mgf_cells(ps, q, np.log(f))
        d2 = renyi_divergence(P.ravel(), (ps[:, None] * q).ravel(), 2.0)
        rep = thm5_expectation_bound("ii", P, pws, q, f, f, None, alpha=2.0)
        log_value = math.log(rep.bound_value)
        assert log_value <= _grid_min(logw, logf, d2, 2.0) + 1e-12 * abs(log_value), k
        assert reconstruct_bound(rep) == rep.bound_value
        _check_multiplier(rep.params["lambda"], logw, logf, d2, 2.0)


b_values = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-30, 1e-15, 1e-12, 1e-10, 1e-8, 1e300]),
    st.floats(0.0, 50.0),
    st.floats(0.0, 1e-6),
)


@fixed
@given(st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0)), b_values)
def test_binary_kl_inverse_within_its_constraint_and_cap(a, b):
    p = binary_kl_inverse(a, b)
    assert a <= p <= min(1.0, binary_kl_inverse_cap(a, b)) + 1e-12
    if p < 1.0:
        assert binary_kl(p, a) <= b


@fixed
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1)]),
    st.floats(-0.05, 0.05),
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(1, 40),
)
def test_covering_matches_the_per_trial_loop(seed, shape, epsilon, m_grid, trials):
    z, w, n = shape
    gen = rng(seed)
    prob = FiniteLearningProblem(loss=gen.uniform(0, 1, (z, w)), mu=Pmf(gen.dirichlet(np.ones(z))), bound=1.0)
    alg = GibbsAlgorithm(prior=Pmf(np.full(w, 1 / w)), beta=2.0)
    shape = (len(enumerate_types(z, n)), w)
    rates = gen.uniform(0.0, 1.5, shape) * (gen.random(shape) < 0.7)  # about 3 in 10 rates are zero
    q_hat = gen.dirichlet(np.ones(w))
    q_hat[gen.integers(w)] = 0.0  # a reproduction the book never draws
    q_hat /= q_hat.sum()
    args = (prob, alg, n, rates, epsilon, m_grid, trials, seed, q_hat)
    for (_, got), want in zip(_covering_flags(*args), per_trial_covering(*args)):
        assert np.array_equal(got, want)
    for row in covering_failure_estimate(*args[:-1], q_hat=q_hat):
        assert 0.0 <= row.failure_prob <= 1.0
        assert math.isfinite(row.exponent) or (row.exponent == math.inf and row.censored)


scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.booleans(), st.text(max_size=8)
)
nested = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@fixed
@given(nested)
def test_canonical_json_round_trips(data):
    assert json.loads(canonical_json(data)) == data



@fixed
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_draw_is_the_inverse_cdf(seed, cells, rows):
    gen = rng(seed)
    # masses rounded to tenths repeat cdf values, and about 4 in 10 cells have none
    masses = np.round(gen.random((rows, cells)) * (gen.random((rows, cells)) < 0.6), 1)
    masses[masses.sum(axis=1) == 0, -1] = 1.0
    cdf = np.cumsum(masses, axis=1) / masses.sum(axis=1, keepdims=True)
    u = np.concatenate([gen.random((rows, 20)), cdf, np.nextafter(cdf, 0), np.zeros((rows, 1))], axis=1)
    want = np.stack([_inverse_cdf(law, u_row) for law, u_row in zip(cdf, u)])
    for law, u_row, want_row in zip(cdf, u, want):
        assert np.array_equal(_draw(law, u_row), want_row)
    assert np.array_equal(_draw(cdf[:, None, :], u), want)  # one law per row


PROBLEM = {"z_alphabet": 2, "w_alphabet": 2, "loss": [[0.0, 0.8], [0.6, 0.1]], "mu": [0.4, 0.6], "B": 1.0}
SPEC = {"model": "quadratic", "z_values": [-0.5, 0.5], "mu": [0.5, 0.5], "w_lo": -1.0, "w_hi": 1.0}
_DROP = object()
malformed = st.sampled_from(
    [math.nan, math.inf, -1.0, 0, 3, 2.5, 1e300, True, None, "x", [], [[]], [1, "a"], [[1], [2, 3]], {"a": 1}]
)


def _fuzzed(base: dict):
    """`base` as it is, or with one key dropped or given a malformed value."""
    def edit(key, value):
        return {k: value if k == key else v for k, v in base.items() if k != key or value is not _DROP}

    return st.just(base) | st.builds(edit, st.sampled_from(list(base)), st.just(_DROP) | malformed)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


@fixed
@given(
    _fuzzed(PROBLEM),
    _fuzzed(SPEC),
    st.sampled_from(["bound --kind thm5i", "rd", "mc-validate --trials 100"]),
    st.sampled_from(["1", "2", "4", "0", "-1", "x"]),
    st.sampled_from(["1", "3", "0", "-1"]),
    st.lists(st.sampled_from(["1", "3", "5", "0", "60"]), min_size=1, max_size=2).map(",".join),
)
def test_malformed_files_and_sizes_exit_cleanly(tmp_path_factory, problem, spec, command, n, trials, m_grid):
    where = tmp_path_factory.mktemp("cli")
    (where / "problem.json").write_text(json.dumps(problem))
    (where / "spec.json").write_text(json.dumps(spec))
    out = ["--out", str(where / "out")]
    runs = [
        [*command.split(), "--problem", str(where / "problem.json"), "--n", n, *out],
        ["covering", "--m-grid", m_grid, "--trials", trials, *out],
        ["trajectory", "--spec", str(where / "spec.json"), "--lr-grid", "0.1,0.5", "--trials", trials,
         "--n", n, "--steps", "10", *out],
    ]
    for argv in runs:
        assert _exit_code(argv) in (0, 1, 2), argv
