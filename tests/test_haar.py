"""Haar system: normalization, biorthogonality, expansion and reconstruction."""

import numpy as np
import pytest
from fractions import Fraction

from frame_oracles import haar_functional
from gaborlab.errors import GridTooCoarse, SupportOutOfRange
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm
from gaborlab.haar import HaarIndex, haar_function, haar_indices
from gaborlab.rng import complex_gaussian, rng_for

GRID = Grid.over(-2, 3, -5)
SOME_PS = [Exponent(x) for x in (1.5, 2.0, 3.0, 4.0)]


class TestHaarIndex:
    def test_father_support(self):
        assert HaarIndex(2).support == (Fraction(2), Fraction(3))

    def test_scaled_support(self):
        assert HaarIndex(0, 2, 1).support == (Fraction(1, 4), Fraction(1, 2))

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            HaarIndex(0, 1, 2)
        with pytest.raises(ValueError):
            HaarIndex(0, -1, 1)


class TestHaarFunction:
    def test_father_is_indicator(self):
        h = haar_function(HaarIndex(0), Exponent(3.0), GRID)
        ind = SampledFunction.indicator(0, 1, GRID)
        assert np.array_equal(h.values, ind.values)
        assert lp_norm(h, Exponent(3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_base_scale_values_p4(self):
        h = haar_function(HaarIndex(0, 0, 0), Exponent(4.0), GRID)
        lo = GRID.index_of(0)
        mid = GRID.index_of(Fraction(1, 2))
        assert np.allclose(h.values[lo:mid], 1.0)
        assert np.allclose(h.values[mid : GRID.index_of(1)], -1.0)
        assert lp_norm(h, Exponent(4.0)) == pytest.approx(1.0, abs=1e-12)

    def test_scale_two_values_p2(self):
        # closed form: amplitude 2^(j/p) = 2, halves [1/4, 3/8) and [3/8, 1/2)
        p = Exponent(2.0)
        h = haar_function(HaarIndex(0, 2, 1), p, GRID)
        a = GRID.index_of(Fraction(1, 4))
        b = GRID.index_of(Fraction(3, 8))
        c = GRID.index_of(Fraction(1, 2))
        assert np.allclose(h.values[a:b], 2.0)
        assert np.allclose(h.values[b:c], -2.0)
        # (2 * 2^(2j/p) * 2^(-j-1))^(1/p) with j=2, p=2 evaluates to 1
        assert lp_norm(h, p) == pytest.approx(
            (2 * 2 ** (2 * 2 / p.p) * 2 ** (-3)) ** (1 / p.p), abs=1e-12
        )

    @pytest.mark.parametrize("p", SOME_PS)
    def test_normalization_all_indices(self, p):
        for idx in haar_indices([-1, 0, 1], 3):
            assert lp_norm(haar_function(idx, p, GRID), p) == pytest.approx(
                1.0, abs=1e-12
            )
            dual = Exponent(p.conjugate)
            assert lp_norm(haar_function(idx, dual, GRID), dual) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            haar_function(HaarIndex(0, 5, 0), Exponent(2.0), GRID)

    def test_support_out_of_range(self):
        with pytest.raises(SupportOutOfRange):
            haar_function(HaarIndex(7), Exponent(2.0), GRID)


class TestBiorthogonality:
    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(3.0)])
    def test_kronecker_pairings(self, p):
        family = haar_indices([-1, 0], 2)
        for idx in family:
            h = haar_function(idx, p, GRID)
            for jdx in family:
                expect = 1.0 if idx == jdx else 0.0
                got = haar_functional(jdx, h, p)
                assert got == pytest.approx(expect, abs=1e-12)

    def test_mean_against_father(self):
        f = 3.0 * SampledFunction.indicator(0, 1, GRID)
        got = haar_functional(HaarIndex(0), f, Exponent(2.5))
        assert got == pytest.approx(3.0, abs=1e-12)


class TestExpandReconstruct:
    def test_roundtrip_on_step_function(self):
        # the functionals of every atom down to the grid step, then the sum of
        # coefficient times atom, give back the step function
        p = Exponent(3.0)
        f = SampledFunction(GRID, complex_gaussian(rng_for(21), GRID.count))
        back = np.zeros(GRID.count, dtype=np.complex128)
        for idx in haar_indices(range(-2, 3), max_scale=4):
            back += haar_functional(idx, f, p) * haar_function(idx, p, GRID).values
        assert np.abs(back - f.values).max() <= 1e-12

    def test_coefficient_roundtrip(self):
        # reconstruct-then-expand returns the same coefficients (biorthogonality)
        p = Exponent(1.5)
        family = haar_indices([0], 3)
        rng = rng_for(22)
        coeffs = {
            idx: complex(*rng.standard_normal(2)) for idx in family
        }
        f = SampledFunction(
            GRID, sum(c * haar_function(idx, p, GRID).values for idx, c in coeffs.items())
        )
        for idx in family:
            assert haar_functional(idx, f, p) == pytest.approx(coeffs[idx], abs=1e-12)
