"""Properties that hold on every input: fuzzed bound constructors, the binary-KL
inverse and canonical JSON. Hypothesis runs under the suite's derandomized
profile (tests/conftest.py), so each run draws the same examples."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds.bounds import (
    fixed_size_bound,
    pac_bayes_eq22,
    reconstruct_bound,
    seeger_fast_rate_bound,
    thm1_bound,
    toy_example_bound,
)
from genbounds.info import binary_kl, binary_kl_inverse, binary_kl_inverse_cap
from genbounds.io import canonical_json
from genbounds.trajectory import thm7_bound, thm8_bound

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

