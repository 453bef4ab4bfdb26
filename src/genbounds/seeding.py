"""Deterministic splittable seeding for parallel-safe Monte Carlo.

Every stochastic routine in the package takes a 64-bit root seed and derives
child streams by path, child = (root, i, j, ...), so trial results do not
depend on execution order or thread count. Streams are backed by the Philox
counter-based generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["child_sequence", "rng"]


def child_sequence(root: int, *path: int) -> np.random.SeedSequence:
    """Seed sequence for the stream addressed by (root, *path)."""
    return np.random.SeedSequence(entropy=int(root) & (2**64 - 1), spawn_key=tuple(int(p) for p in path))


def rng(root: int, *path: int) -> np.random.Generator:
    """Independent generator for the stream addressed by (root, *path)."""
    return np.random.Generator(np.random.Philox(child_sequence(root, *path)))
