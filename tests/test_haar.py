"""Haar system: normalization, biorthogonality, reconstruction, sign flips."""

import numpy as np
import pytest
from fractions import Fraction

from gaborlab.errors import GridTooCoarse, SupportOutOfRange, ZeroFunction
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm
from gaborlab.haar import (
    HaarIndex,
    haar_expand,
    haar_function,
    haar_functional,
    haar_indices,
    haar_reconstruct,
    haar_unconditionality_ratio,
    unconditionality_bound,
)
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
            assert lp_norm(haar_function(idx, p.dual(), GRID), p.dual()) == pytest.approx(
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
        p = Exponent(3.0)
        f = SampledFunction(GRID, complex_gaussian(rng_for(21), GRID.count))
        coeffs = haar_expand(f, p, range(-2, 3), max_scale=4)
        back = haar_reconstruct(coeffs, p, GRID)
        assert np.abs(back.values - f.values).max() <= 1e-12

    def test_empty_coefficients_zero(self):
        out = haar_reconstruct({}, Exponent(2.0), GRID)
        assert np.all(out.values == 0)

    def test_coefficient_roundtrip(self):
        # reconstruct-then-expand returns the same coefficients (biorthogonality)
        p = Exponent(1.5)
        family = haar_indices([0], 3)
        rng = rng_for(22)
        coeffs = {
            idx: complex(*rng.standard_normal(2)) for idx in family
        }
        f = haar_reconstruct(coeffs, p, GRID)
        back = haar_expand(f, p, [0], max_scale=3)
        for idx in family:
            assert back[idx] == pytest.approx(coeffs[idx], abs=1e-12)


class TestUnconditionality:
    def test_single_atom_ratio_one(self):
        p = Exponent(4.0)
        h = haar_function(HaarIndex(0, 1, 0), p, GRID)
        assert haar_unconditionality_ratio(h, p, trials=30, seed=5) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_disjoint_atoms_ratio_one(self):
        p = Exponent(3.0)
        f = haar_function(HaarIndex(0, 1, 0), p, GRID) + haar_function(
            HaarIndex(1, 2, 3), p, GRID
        )
        assert haar_unconditionality_ratio(f, p, trials=50, seed=6) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            haar_unconditionality_ratio(
                SampledFunction.zero(GRID), Exponent(2.0), 5, 1
            )

    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(4.0)])
    def test_corpus_below_bound(self, p):
        bound = unconditionality_bound(p)
        grid = Grid.over(0, 2, -4)
        worst = 0.0
        for trial in range(25):
            f = SampledFunction(grid, complex_gaussian(rng_for(23, trial), grid.count))
            worst = max(
                worst, haar_unconditionality_ratio(f, p, trials=40, seed=trial)
            )
        assert worst <= bound + 1e-9
