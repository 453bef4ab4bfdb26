"""Deterministic splittable seeding for parallel-safe Monte Carlo.

Every stochastic routine in the package takes a 64-bit root seed and derives
child streams by path, child = (root, i, j, ...), so trial results do not
depend on execution order or thread count. Streams are backed by the Philox
counter-based generator.

`rng(root, *path)` defines a stream. Its whole state is its 128-bit Philox
key, a pure integer function of (root, *path) through numpy's SeedSequence
hash (O'Neill's seed_seq_fe). `streams(root, *path)` takes an integer array
as the root or as any path word and hashes the keys of all the streams they
address in one vectorised pass, then yields one shared generator re-keyed
for each in turn, which draws exactly what `rng` draws on that path; a caller
must not keep it past its own iteration. `rngs(root, *prefix, count=...)`
is the per-trial case t = 0 .. count - 1. The trajectory sweep keys a
learning rate's datasets on (seed, li, t, 0), child seeds on (seed, li, t,
313) and SGD picks on (child_t, 17), a family whose root is an array.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["child_sequence", "rng", "rngs", "streams"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# keys `_rekeyed` turns into Python ints at a time: as ints a key takes about
# 150 bytes, against 16 in the array
_KEY_CHUNK = 256


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


def _u32(x):
    """x mod 2**32: a Python int is masked, uint32 array arithmetic has wrapped already."""
    return x & _MASK32 if isinstance(x, int) else x


def _hasher(init: int, mult: int):
    """numpy's hashmix step: the hash constant advances the same way whatever the data."""
    hash_const = init

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = _u32(value * hash_const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = _u32(_u32(_MIX_MULT_L * x) - _u32(_MIX_MULT_R * y))
    return result ^ (result >> 16)


def _philox_keys(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(2, uint64) for words that broadcast, shaped (..., 2).

    A word is a Python int below 2**32 or a uint32 array. The hash steps run
    on Python ints until the first array word enters the pool: the words
    that every stream shares are hashed once, as integers, and only the steps
    after it are array operations.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    output = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (np.asarray(output(word), dtype=np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=-1)


def rngs(root: int, *prefix: int, count: int) -> Iterator[np.random.Generator]:
    """The streams rng(root, *prefix, t) for t = 0 .. count - 1, in order: `streams` with t an array.

    Raises ValueError for count outside [0, 2**32] or a negative path word.
    """
    count = operator.index(count)
    if not 0 <= count <= 2**32:
        raise ValueError(f"count must lie in [0, 2**32], got {count}")
    return streams(root, *prefix, np.arange(count, dtype=np.uint32))


def streams(root, *path) -> Iterator[np.random.Generator]:
    """The streams rng(r, *p) for each (r, *p) of the broadcast of root and path, in C order.

    Any entry may be an integer array: a root is reduced mod 2**64, a path
    word must lie in [0, 2**32). Each yield is the one shared generator,
    re-keyed by `_rekeyed` (zero counter, empty buffer, no stored half-word)
    to draw exactly what `rng` draws on that path, so a caller must not keep
    it past its iteration. Raises
    RuntimeError if the keys stop matching numpy's SeedSequence.
    """
    # the root as four words: numpy pads it with zero words, or hashes zeros in their place
    if isinstance(root, np.ndarray):
        r = root.astype(np.uint64)
        entropy = [(r & np.uint64(_MASK32)).astype(np.uint32), (r >> np.uint64(32)).astype(np.uint32), 0, 0]
    else:
        r = int(root) & (2**64 - 1)
        entropy = [r & _MASK32, r >> 32, 0, 0]
    for p in path:
        if not isinstance(p, np.ndarray):
            entropy += _words(int(p))
        elif p.size and not 0 <= p.min() <= p.max() <= _MASK32:
            raise ValueError("an array path word must lie in [0, 2**32)")
        else:
            entropy.append(p.astype(np.uint32))
    keys = _philox_keys(entropy).reshape(-1, 2)
    if not keys.size:
        return iter(())
    first = child_sequence(*(int(x.flat[0]) if isinstance(x, np.ndarray) else x for x in (root, *path)))
    if not np.array_equal(keys[0], first.generate_state(2, np.uint64)):
        raise RuntimeError("vectorised Philox keys no longer match numpy's SeedSequence")
    return _rekeyed(np.random.Generator(np.random.Philox(first)), keys)


def _rekeyed(gen: np.random.Generator, keys: np.ndarray) -> Iterator[np.random.Generator]:
    """`gen`, re-keyed in turn to each (2,) row of `keys`: zero counter, empty buffer, no stored half-word.

    numpy's state setter reads the words one by one, about twice as fast from
    Python ints as from uint64 arrays, so the keys become ints _KEY_CHUNK rows
    at a time and the counter and buffer are int lists.
    """
    bitgen = gen.bit_generator
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, len(keys), _KEY_CHUNK):
        for key in keys[start : start + _KEY_CHUNK].tolist():
            state["state"]["key"] = key
            bitgen.state = state
            yield gen
