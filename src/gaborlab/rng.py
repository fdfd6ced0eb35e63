"""Deterministic random streams.

The stream contract: trial t of a seeded loop with sub-stream indices i...
draws from rng_for(seed, t, *i), the Philox generator that numpy keys with
SeedSequence(seed, spawn_key=(t, *i)).  Every recorded CSV and metric block
is pinned to it.  A loop takes its trials' streams from streams(seed,
trials, *i): philox_keys runs SeedSequence's hash for a range of trials in
one pass, KEY_BLOCK trials at a time, and one Generator is re-keyed with
each trial's key in turn.  A yielded generator is that one object, so it is
valid only until the iterator advances.  Trials lie in [0, 2^64).
"""

from __future__ import annotations

import struct
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
LANE = 64  # bits a trial's word takes in _Lanes
# trials hashed together: their lanes make ints of at most 512 bytes, which
# Python keeps in its small-object pools; whole ranges at once, or numpy
# uint32 arrays, left freed memory that raised verify-frame's and peaks'
# peak resident set by 0.1 to 0.3 MB
KEY_BLOCK = 32


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
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


class _Lanes:
    """uint32 words of n trials packed in one int, LANE bits a trial (trial i
    at bit LANE * i): SeedSequence's operations on all n at once.  A product
    with a 32-bit constant stays inside its 64-bit lane, and every result is
    masked back to 32 bits a lane, so no lane carries or borrows into the
    next.  n = 1 is plain uint32 arithmetic on an int."""

    def __init__(self, n: int):
        self.n = n
        self.one = ((1 << LANE * n) - 1) // ((1 << LANE) - 1)  # 1 in every lane
        self.mask = MASK32 * self.one

    def spread(self, word: int) -> int:
        """The word in every lane."""
        return word * self.one

    def pack(self, words) -> int:
        return int.from_bytes(struct.pack(f"<{self.n}Q", *words), "little")

    def unpack(self, value: int) -> Tuple[int, ...]:
        return struct.unpack(f"<{self.n}Q", value.to_bytes(8 * self.n, "little"))

    def shift_xor(self, value: int) -> int:
        # the mask also clears the bits that value >> XSHIFT moves down from
        # the lane above
        return (value ^ value >> XSHIFT) & self.mask

    def mix(self, x: int, y: int) -> int:
        """SeedSequence's mix; the lane-wise 2^32 keeps the difference positive."""
        mask = self.mask
        return self.shift_xor((x * MIX_MULT_L & mask) + (self.one << 32)
                              - (y * MIX_MULT_R & mask) & mask)


class _Hash:
    """SeedSequence's hashmix, whose constant advances with each word hashed."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, lanes: _Lanes, value: int) -> int:
        value ^= lanes.spread(self.const)
        self.const = self.const * self.mult & MASK32
        return lanes.shift_xor(value * self.const & lanes.mask)


def philox_keys(seed: int, trials: range, *indices: int) -> Iterator[Tuple[int, int]]:
    """The Philox key of stream (seed, t, *indices) for each t in trials, in
    order: the two uint64 words that Philox(SeedSequence(seed,
    spawn_key=(t, *indices))) takes.  The words every trial shares (the
    seed's, padded to the pool since a spawn key is present, and the
    indices') are hashed here, once."""
    start, stop = trials.start, trials.stop
    if trials.step != 1 or start < 0 or stop > 2**64:
        raise ValueError(f"trials must be a range of step 1 in [0, 2^64), got {trials}")
    run = _words(int(seed))
    run += [0] * (POOL_SIZE - len(run))
    tail = [w for i in indices for w in _words(int(i))]
    one, hash_a = _Lanes(1), _Hash(INIT_A, MULT_A)
    pool = [hash_a(one, w) for w in run[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = one.mix(pool[dst], hash_a(one, pool[src]))
    for w in run[POOL_SIZE:]:
        pool = [one.mix(x, hash_a(one, w)) for x in pool]
    return _trial_keys(pool, hash_a.const, start, stop, tail)


def _trial_keys(pool: List[int], const: int, lo: int, stop: int,
                tail: List[int]) -> Iterator[Tuple[int, int]]:
    """philox_keys' trials lo to stop - 1, from the shared pool and hash
    constant: each block's trial words, then tail, then generate_state(2,
    np.uint64), four uint32 words two to a key."""
    while lo < stop:
        # trials lo to hi - 1 differ in their lowest word only
        hi = min(stop, lo + KEY_BLOCK, (lo | MASK32) + 1)
        low = lo & MASK32
        lanes, hash_t, hash_b = _Lanes(hi - lo), _Hash(const, MULT_A), _Hash(INIT_B, MULT_B)
        words = [lanes.pack(range(low, low + hi - lo)),
                 *(lanes.spread(w) for w in _words(lo)[1:] + tail)]
        rows = [lanes.spread(x) for x in pool]
        for w in words:
            rows = [lanes.mix(x, hash_t(lanes, w)) for x in rows]
        w0, w1, w2, w3 = (hash_b(lanes, x) for x in rows)
        yield from zip(lanes.unpack(w0 | w1 << 32), lanes.unpack(w2 | w3 << 32))
        lo = hi


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
