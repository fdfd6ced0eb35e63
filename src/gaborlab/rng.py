"""Deterministic random streams.

The stream contract: trial t of a seeded loop with sub-stream indices i...
draws from rng_for(seed, t, *i), the Philox generator that numpy keys with
SeedSequence(seed, spawn_key=(t, *i)).  Every recorded CSV and metric block
is pinned to it.  A loop takes its trials' streams from streams(seed,
trials, *i): philox_keys runs SeedSequence's hash for a range of trials,
the trials' words as uint64 arrays of KEY_BLOCK trials, and one Generator is
re-keyed with each trial's key in turn.  A yielded generator is that one
object, so it is valid only until the iterator advances.  Trials lie in
[0, 2^32), one uint32 word each.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .grids import row_chunks

# numpy's SeedSequence: pool size, hash and mix constants
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
KEY_BLOCK = 1024  # trials hashed together: 8 KB an array, whatever the trials


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Generator for stream (seed, *indices); distinct tuples give independent streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian vector (independent N(0, 1/2) parts)."""
    return complex_pairs(rng.standard_normal((2, n)))


def complex_pairs(normals: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian values from standard normals of shape
    (..., 2, n): the real parts normals[..., 0, :], the imaginary parts
    normals[..., 1, :]."""
    return (normals[..., 0, :] + 1j * normals[..., 1, :]) / np.sqrt(2.0)


def _words(n: int) -> List[int]:
    """The uint32 words of n >= 0, least significant first, as SeedSequence reads an int."""
    if n < 0:
        raise ValueError(f"stream entropy must be at least 0, got {n}")
    return [n >> shift & MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def hashmix(value, const: int, mult: int = MULT_A):
    """SeedSequence's hashmix of value, a uint32 word as an int or a uint64
    array of them, under hash constant const: (the hash, the next constant).
    A product of two uint32 words fits in 64 bits."""
    following = const * mult & MASK32
    value = (value ^ const) * following & MASK32
    return value ^ value >> XSHIFT, following


def mix(x, y):
    """SeedSequence's mix of uint32 words, ints or uint64 arrays: the mask
    reduces the difference mod 2^32, whether it went below 0 or wrapped."""
    value = (x * MIX_MULT_L - y * MIX_MULT_R) & MASK32
    return value ^ value >> XSHIFT


def _mix_in(pool: list, words: list, const: int) -> Tuple[list, int]:
    """The pool with each of words hashed into every pool word in turn, and
    the hash constant after them."""
    pool = list(pool)
    for w in words:
        for dst in range(POOL_SIZE):
            h, const = hashmix(w, const)
            pool[dst] = mix(pool[dst], h)
    return pool, const


def philox_keys(seed: int, trials: range, *indices: int) -> Iterator[Tuple[int, int]]:
    """The Philox key of stream (seed, t, *indices) for each t in trials, in
    order: the two uint64 words that Philox(SeedSequence(seed,
    spawn_key=(t, *indices))) takes.  The seed's words, padded to the pool
    since a spawn key is present, are hashed here once, as ints."""
    if trials.step != 1 or trials.start < 0 or trials.stop > 2**32:
        raise ValueError(f"trials must be a range of step 1 in [0, 2^32), got {trials}")
    run = _words(int(seed))
    run += [0] * (POOL_SIZE - len(run))
    pool, const = [], INIT_A
    for w in run[:POOL_SIZE]:
        h, const = hashmix(w, const)
        pool.append(h)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                h, const = hashmix(pool[src], const)
                pool[dst] = mix(pool[dst], h)
    pool, const = _mix_in(pool, run[POOL_SIZE:], const)
    return _trial_keys(pool, const, trials, [w for i in indices for w in _words(int(i))])


def _trial_keys(pool: List[int], const: int, trials: range,
                tail: List[int]) -> Iterator[Tuple[int, int]]:
    """philox_keys' trials, KEY_BLOCK at a time: each block's trial words, then
    tail, then generate_state(2, np.uint64), four uint32 words two to a key."""
    for lo in trials[::KEY_BLOCK]:
        block = np.arange(lo, min(lo + KEY_BLOCK, trials.stop), dtype=np.uint64)
        rows, _ = _mix_in(pool, [block, *tail], const)
        words, const_b = [], INIT_B
        for x in rows:
            h, const_b = hashmix(x, const_b, MULT_B)
            words.append(h)
        w0, w1, w2, w3 = words
        yield from zip((w0 | w1 << 32).tolist(), (w2 | w3 << 32).tolist())


def streams(seed: int, trials: range, *indices: int) -> Iterator[np.random.Generator]:
    """The generator of stream (seed, t, *indices) for each t in trials, in
    order: one Generator, re-keyed for each trial through the public
    bit_generator.state setter, its counter, buffer and cached uint32 reset
    as a fresh Philox has them, and valid until the next is yielded."""
    rng = np.random.Generator(np.random.Philox(0))
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in philox_keys(seed, trials, *indices):
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


def complex_rows(seed: int, trials: range, n: int, *indices: int) -> np.ndarray:
    """complex_gaussian(rng_for(seed, t, *indices), n) for each t in trials,
    the rows of one (len(trials), n) array: each trial's normals are drawn
    into a row of one array, and complex_pairs assembles all rows in one
    elementwise pass."""
    normals = np.empty((len(trials), 2, n))
    for rng, row in zip(streams(seed, trials, *indices), normals):
        rng.standard_normal(out=row)
    return complex_pairs(normals)


def complex_vectors(
    seed: int, trials: range, n: int, *indices: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """(t, complex_gaussian(rng_for(seed, t, *indices), n)) for each t in
    trials, in order: complex_rows of one grids.row_chunks chunk of trials at
    a time, so memory holds one chunk's rows whatever the trials."""
    for chunk in row_chunks(len(trials), n):
        part = trials[chunk]
        yield from zip(part, complex_rows(seed, part, n, *indices))
