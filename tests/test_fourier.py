"""Band projections: pass/kill, projection algebra, Plancherel."""

import numpy as np
import pytest
from fractions import Fraction

from gaborlab.errors import OverlappingIntervals
from gaborlab.fourier import (
    FrequencyInterval,
    grid_frequencies,
    partial_sum,
    square_function_norm,
)
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm, modulate
from gaborlab.rng import complex_gaussian, rng_for

GRID = Grid.over(0, 4, -6)  # span 4, Nyquist 32, frequencies k/4


def tone(s):
    return modulate(SampledFunction.indicator(0, 4, GRID), s)


def noise(seed):
    return SampledFunction(GRID, complex_gaussian(rng_for(seed), GRID.count))


class TestPartialSum:
    def test_passes_in_band_tone(self):
        f = tone(Fraction(3, 4))
        out = partial_sum(f, FrequencyInterval(0.5, 1.0))
        assert np.abs(out.values - f.values).max() <= 1e-9

    def test_kills_out_of_band_tone(self):
        f = tone(Fraction(3, 4))
        out = partial_sum(f, FrequencyInterval(2.0, 3.0))
        assert np.abs(out.values).max() <= 1e-9

    def test_idempotent(self):
        f = noise(61)
        band = FrequencyInterval(-3.0, 5.25)
        once = partial_sum(f, band)
        twice = partial_sum(once, band)
        assert np.abs(twice.values - once.values).max() <= 1e-9

    def test_intersection_law(self):
        f = noise(62)
        a = FrequencyInterval(-8.0, 4.0)
        b = FrequencyInterval(-2.0, 10.0)
        ab = FrequencyInterval(-2.0, 4.0)
        lhs = partial_sum(partial_sum(f, a), b)
        rhs = partial_sum(f, ab)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-9

    def test_full_band_is_identity_every_p(self):
        f = noise(63)
        full = FrequencyInterval(-40.0, 40.0)
        out = partial_sum(f, full)
        assert np.abs(out.values - f.values).max() <= 1e-12
        for p in (1.5, 2.0, 3.0, 4.0):
            assert lp_norm(out, Exponent(p)) == pytest.approx(
                lp_norm(f, Exponent(p)), rel=1e-12
            )

    def test_plancherel_partition(self):
        f = noise(64)
        bands = [FrequencyInterval(-32 + 16 * i, -16 + 16 * i) for i in range(4)]
        total = sum(lp_norm(partial_sum(f, b), Exponent(2.0)) ** 2 for b in bands)
        assert total == pytest.approx(lp_norm(f, Exponent(2.0)) ** 2, rel=1e-10)


class TestSquareFunctionNorm:
    def test_single_full_interval(self):
        f = noise(65)
        for p in (2.0, 3.0):
            got = square_function_norm(f, [FrequencyInterval(-40, 40)], Exponent(p))
            assert got == pytest.approx(lp_norm(f, Exponent(p)), rel=1e-12)

    def test_p2_partition_is_plancherel(self):
        f = noise(66)
        bands = [FrequencyInterval(-32 + 8 * i, -24 + 8 * i) for i in range(8)]
        got = square_function_norm(f, bands, Exponent(2.0))
        assert got == pytest.approx(lp_norm(f, Exponent(2.0)), rel=1e-10)

    def test_rejects_overlap(self):
        f = noise(67)
        with pytest.raises(OverlappingIntervals):
            square_function_norm(
                f,
                [FrequencyInterval(0, 2), FrequencyInterval(1, 3)],
                Exponent(3.0),
            )

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            square_function_norm(noise(68), [FrequencyInterval(0, 1)], Exponent(1.5))


class TestGridFrequencies:
    def test_integer_multiples_of_reciprocal_span(self):
        freqs = grid_frequencies(GRID)
        assert freqs.max() == pytest.approx(31.75)
        assert freqs.min() == pytest.approx(-32.0)
        assert np.allclose(np.diff(np.sort(freqs)), 0.25)
