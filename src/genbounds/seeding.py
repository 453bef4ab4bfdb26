"""Deterministic splittable seeding for parallel-safe Monte Carlo.

Every stochastic routine in the package takes a 64-bit root seed and derives
child streams by path, child = (root, i, j, ...), so trial results do not
depend on execution order or thread count. Streams are backed by the Philox
counter-based generator.

`rng(root, *path)` defines a stream. Per-trial loops use
`rngs(root, *prefix, count=...)`, which yields the streams
`rng(root, *prefix, t)` for t = 0, 1, ..., count - 1 from one shared
generator: a stream's whole state is its 128-bit Philox key, a pure integer
function of (root, *prefix, t) through numpy's SeedSequence hash (O'Neill's
seed_seq_fe), so all keys are hashed in one vectorised pass and the shared
generator is re-keyed before each trial. Each yielded generator draws exactly
what `rng(root, *prefix, t)` draws. Because it is shared, a caller must not
keep it past its own iteration.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["child_sequence", "rng", "rngs"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def child_sequence(root: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream addressed by (root, *path)."""
    return np.random.SeedSequence(entropy=int(root) & (2**64 - 1), spawn_key=tuple(int(p) for p in path))


def rng(root: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by (root, *path)."""
    return np.random.Generator(np.random.Philox(child_sequence(root, *path)))


def _words(x: int) -> list[int]:
    """The little-endian uint32 words numpy's SeedSequence makes of a non-negative int."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    x >>= 32
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words


def _hasher(init: int, mult: int):
    """numpy's hashmix step: the hash constant advances the same way whatever the data."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _philox_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy).generate_state(2, uint64) for uint32 word arrays that broadcast.

    Each hash step is one uint32 array operation; only the words that differ
    between streams need arrays longer than one.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    # the entropy always fills the pool here: a spawn key pads the root to 4 words
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    output = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (output(word).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=-1)


def rngs(root: int, *prefix: int, count: int) -> Iterator[np.random.Generator]:
    """The streams rng(root, *prefix, t) for t = 0 .. count - 1, in order, from one generator.

    All Philox keys are hashed at once; before each yield the one shared
    generator is re-keyed (zero counter, empty buffer), so it then draws
    exactly what `rng(root, *prefix, t)` draws. The generator is the same
    object on every iteration: a caller must not keep it past its iteration.
    Raises ValueError for count outside [0, 2**32] or a negative path word,
    and RuntimeError if the keys stop matching numpy's SeedSequence.
    """
    count = operator.index(count)
    if not 0 <= count <= 2**32:
        raise ValueError(f"count must lie in [0, 2**32], got {count}")
    root_words = _words(int(root) & (2**64 - 1))
    path_words = [w for p in prefix for w in _words(int(p))]
    if count == 0:
        return iter(())
    root_words += [0] * (_POOL_SIZE - len(root_words))
    shared = [np.array([w], dtype=np.uint32) for w in root_words + path_words]
    keys = _philox_keys(shared + [np.arange(count, dtype=np.uint32)])
    first = child_sequence(root, *prefix, 0)
    if not np.array_equal(keys[0], first.generate_state(2, np.uint64)):
        raise RuntimeError("vectorised Philox keys no longer match numpy's SeedSequence")
    return _rekeyed(np.random.Generator(np.random.Philox(first)), keys)


def _rekeyed(gen: np.random.Generator, keys: np.ndarray) -> Iterator[np.random.Generator]:
    bitgen = gen.bit_generator
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": None},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen
