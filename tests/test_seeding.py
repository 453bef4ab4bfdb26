import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genbounds.seeding as seeding
from genbounds.seeding import child_sequence, rng, rngs, streams

# roots at the word boundaries of numpy's entropy split, and a negative root
# (reduced mod 2**64); prefixes with no, one and several words, some wider
# than 32 bits
ROOTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 41]
PREFIXES = [(), (0,), (7,), (2, 2**33 + 5), (2**64 + 3, 0, 1)]


def _key(gen):
    return gen.bit_generator.state["state"]["key"]


def _expected_key(root, *path):
    return child_sequence(root, *path).generate_state(2, np.uint64)


class TestKeys:
    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_keys_match_seed_sequence(self, root, prefix):
        count = 40
        for t, gen in enumerate(rngs(root, *prefix, count=count)):
            assert np.array_equal(_key(gen), _expected_key(root, *prefix, t)), t
        assert t == count - 1

    def test_keys_match_up_to_a_few_thousand(self):
        for t, gen in enumerate(rngs(2**64 - 1, 3, count=3000)):
            if t % 97 == 0 or t >= 2990:
                assert np.array_equal(_key(gen), _expected_key(2**64 - 1, 3, t)), t

    @settings(max_examples=60)
    @given(
        root=st.integers(-(2**70), 2**70),
        prefix=st.lists(st.integers(0, 2**80), max_size=3),
        count=st.integers(1, 5),
    )
    def test_keys_match_any_path(self, root, prefix, count):
        for t, gen in enumerate(rngs(root, *prefix, count=count)):
            assert np.array_equal(_key(gen), _expected_key(root, *prefix, t))

    def test_one_shared_generator(self):
        gens = {id(gen) for gen in rngs(5, 1, count=4)}
        assert len(gens) == 1


# the roots the trajectory sweep keys from: 63-bit child seeds, with the
# word boundaries of numpy's entropy split
FAMILY_ROOTS = [0, 2**32 - 1, 2**32, 2**63 - 1]


class TestStreams:
    @pytest.mark.parametrize("root", FAMILY_ROOTS)
    def test_varying_word_in_the_middle(self, root):
        t = np.arange(50)
        for tail in (0, 313):
            keys = [_key(gen).copy() for gen in streams(root, 3, t, tail)]
            assert len(keys) == t.size
            for i, key in enumerate(keys):
                assert np.array_equal(key, _expected_key(root, 3, i, tail)), (tail, i)

    def test_array_root(self):
        roots = np.array(FAMILY_ROOTS + [1, 2**33 + 7, 2**64 - 1, 2**62 + 12345], dtype=np.uint64)
        keys = [_key(gen).copy() for gen in streams(roots, 17)]
        assert len(keys) == roots.size
        for r, key in zip(roots.tolist(), keys):
            assert np.array_equal(key, _expected_key(r, 17)), r

    def test_draws_equal_rng(self):
        # the sweep's three families: dataset, child seed, then SGD picks keyed by the child
        t = np.arange(30)
        p = [0.35, 0.65]
        assert [gen.choice(2, size=9, p=p).tolist() for gen in streams(7, 2, t, 0)] == [
            rng(7, 2, i, 0).choice(2, size=9, p=p).tolist() for i in range(30)
        ]
        children = [int(gen.integers(2**63)) for gen in streams(7, 2, t, 313)]
        assert children == [int(rng(7, 2, i, 313).integers(2**63)) for i in range(30)]
        assert [gen.integers(9, size=40).tolist() for gen in streams(np.array(children, dtype=np.uint64), 17)] == [
            rng(c, 17).integers(9, size=40).tolist() for c in children
        ]

    def test_rngs_is_streams_over_the_trial_number(self):
        a = [_key(gen).copy() for gen in rngs(11, 4, count=20)]
        b = [_key(gen).copy() for gen in streams(11, 4, np.arange(20))]
        assert np.array_equal(a, b)

    def test_empty_array_yields_nothing(self):
        assert list(streams(np.array([], dtype=np.uint64), 17)) == []
        assert list(streams(3, np.array([], dtype=int), 0)) == []

    @pytest.mark.parametrize("word", [[0, 2**32], [-1, 0]])
    def test_array_word_must_be_one_word(self, word):
        with pytest.raises(ValueError, match="array path word"):
            streams(0, np.array(word), 0)

    def test_changed_hash_trips_the_check_on_an_array_root(self, monkeypatch):
        monkeypatch.setattr(seeding, "_MULT_B", seeding._MULT_B ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            streams(np.array([5, 6], dtype=np.uint64), 17)


def _draws(gen, t):
    """A mix of draws whose count varies with t, ending half-way through a uint64."""
    p = np.array([0.2, 0.5, 0.3])
    out = [
        # a full-range 32-bit draw returns any stale half-word unfiltered
        gen.integers(2**32, size=1, dtype=np.uint32),
        gen.choice(3, size=1 + t % 4, p=p),
        gen.random(t % 5),
        gen.multinomial(20 + t, p),
        gen.integers(0, 1000, size=t % 3),
        gen.dirichlet(np.ones(2 + t % 3)),
        gen.binomial(10 + t % 7, 0.3, size=2),
    ]
    # an odd number of 32-bit draws leaves has_uint32 set for the next re-key
    out.append(gen.integers(0, 2**31 - 1, size=1 + 2 * (t % 2), dtype=np.int32))
    return out


class TestDraws:
    @pytest.mark.parametrize("root, prefix", [(0, ()), (7, (2,)), (2**64 - 1, (1, 2**40))])
    def test_draw_for_draw_equal_to_rng(self, root, prefix):
        for t, gen in enumerate(rngs(root, *prefix, count=60)):
            mine, ref = _draws(gen, t), _draws(rng(root, *prefix, t), t)
            for a, b in zip(mine, ref):
                assert np.array_equal(a, b), t

    def test_count_zero_yields_nothing(self):
        assert list(rngs(3, 1, count=0)) == []


class TestBadInput:
    def test_count_over_two_to_the_32_raises_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="count"):
                rngs(0, 1, count=2**32 + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            rngs(0, count=-1)

    def test_negative_path_word_raises_like_numpy(self):
        with pytest.raises(ValueError):
            rng(0, 2, -1)
        with pytest.raises(ValueError, match="non-negative"):
            rngs(0, 2, -1, count=5)
        with pytest.raises(ValueError, match="non-negative"):
            rngs(0, -1, count=0)

    def test_changed_hash_trips_the_check(self, monkeypatch):
        monkeypatch.setattr(seeding, "_MULT_B", seeding._MULT_B ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            rngs(3, 1, count=4)
