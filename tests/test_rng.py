"""The keyed streams of a range of trials against rng_for, one stream at a time.

rng_for(seed, t, *indices) is the stream contract itself: numpy's own
SeedSequence and Philox.  philox_keys must give each trial numpy's key, and
the generator that streams yields for the trial must draw what rng_for's
draws, in each suite's order of draws.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborlab.rng import (
    KEY_BLOCK,
    complex_gaussian,
    complex_rows,
    complex_vectors,
    philox_keys,
    rng_for,
    streams,
)

SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**130))
INDICES = st.lists(st.one_of(st.integers(0, 5), st.integers(0, 2**40)), max_size=2)
# trials lie in [0, 2^32), and a test takes at most 70
STARTS = st.one_of(st.integers(0, 100), st.integers(2**32 - 80, 2**32 - 70),
                   st.integers(0, 2**32 - 70))


def _gaussian(rng, n):
    """complex_gaussian as the recorded runs drew it, one part at a time."""
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def _draws(rng, n):
    """Draws in the suites' orders: a family size, a trial's normals, the
    shift and modulation integers, and the normals of complex_gaussian."""
    size = int(rng.integers(1, 13))
    return (size, rng.standard_normal(n).tobytes(), int(rng.integers(-64, 64)),
            int(rng.integers(-15, 16)), complex_gaussian(rng, size).tobytes(),
            _gaussian(rng, 3).tobytes())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SEEDS, st.integers(0, 70), STARTS, INDICES, st.integers(1, 40))
@example(2**128 + 7, 3, 0, [1], 5)  # a seed of five words: no pool padding
@example(4294967297, 8, 2**32 - 8, [], 5)  # the last trials of the contract
@example(20260810, 4, 10, [2**33 + 5], 9)  # an index of two words
@example(20260810, 0, 17, [5], 3)  # no trials at all
@example(20260810, KEY_BLOCK + 1, 5, [1], 2)  # two blocks, the second of one trial
def test_keyed_streams_match_rng_for(seed, size, start, indices, n):
    trials = range(start, start + size)
    want = [rng_for(seed, t, *indices) for t in trials]
    assert list(philox_keys(seed, trials, *indices)) == [
        tuple(rng.bit_generator.state["state"]["key"].tolist()) for rng in want]
    got = [_draws(rng, n) for rng in streams(seed, trials, *indices)]
    assert got == [_draws(rng, n) for rng in want]
    rows = complex_rows(seed, trials, n, *indices)
    assert rows.shape == (size, n)
    assert rows.tobytes() == b"".join(
        _gaussian(rng_for(seed, t, *indices), n).tobytes() for t in trials)


def _plain(state):
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def test_a_keyed_generator_starts_as_a_fresh_philox():
    for rng, t in zip(streams(9, range(3), 2), range(3)):
        assert _plain(rng.bit_generator.state) == _plain(rng_for(9, t, 2).bit_generator.state)
        # leave a used counter, buffer and cached uint32 for the next trial
        rng.integers(0, 7, 3)


@pytest.mark.parametrize("trials", [range(0, 10, 2), range(-1, 3), range(2**32 - 1, 2**32 + 1)])
def test_trials_outside_the_contract_are_refused(trials):
    with pytest.raises(ValueError):
        philox_keys(1, trials)


@pytest.mark.parametrize("n", [3, 6000])
def test_complex_vectors_come_in_trial_order(n):
    # 6000 entries a trial: grids.row_chunks draws two or three trials at a time
    got = list(complex_vectors(5, range(4, 11), n, 1))
    assert [t for t, _ in got] == list(range(4, 11))
    assert [a.tobytes() for _, a in got] == [_gaussian(rng_for(5, t, 1), n).tobytes()
                                             for t in range(4, 11)]
