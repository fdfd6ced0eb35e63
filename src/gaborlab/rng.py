"""Deterministic random streams.

All stochastic routines draw from counter-based Philox generators keyed by an
explicit seed (plus optional sub-stream indices), so results are reproducible
bit-for-bit for a given seed and independent of evaluation order.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Generator for stream (seed, *indices); distinct tuples give independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian vector (independent N(0, 1/2) parts)."""
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
