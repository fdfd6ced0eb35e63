"""Step-function grid core: exact norms, isometries, mixed norms, amalgam norm."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.errors import (
    AliasedFrequency,
    GridMismatch,
    NonAlignedShift,
)
from gaborlab.grids import (
    Exponent,
    Grid,
    SampledFunction,
    lp_ell2_norm,
    lp_norm,
    lp_norm_pth,
    modulate,
    restrict,
    time_freq_shift,
    time_freq_shift_rows,
    translate,
)
from gaborlab.rng import complex_gaussian, rng_for

PS = [Exponent(x) for x in (1.5, 2.0, 3.0, 4.0)]


def random_fn(grid, seed, *idx):
    return SampledFunction(grid, complex_gaussian(rng_for(seed, *idx), grid.count))


class TestExponent:
    def test_conjugate(self):
        assert Exponent(2.0).conjugate == 2.0
        assert Exponent(4.0).conjugate == pytest.approx(4.0 / 3.0, abs=0)
        assert Exponent(1.5).conjugate == pytest.approx(3.0, abs=1e-15)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            Exponent(1.0)


class TestGrid:
    def test_over_alignment(self):
        g = Grid.over(Fraction(1, 4), 2, -2)
        assert g.origin == Fraction(1, 4)
        assert g.count == 7

    def test_rejects_positive_step(self):
        with pytest.raises(ValueError):
            Grid(0, 1, 4)

    def test_json_roundtrip(self):
        g = Grid.over(0, 2, -3)
        f = random_fn(g, 3)
        back = SampledFunction.from_json(f.to_json())
        assert back.grid == f.grid
        assert np.allclose(back.values, f.values)


class TestLpNorm:
    def test_unit_indicator_any_p(self):
        g = Grid.over(0, 2, -4)
        f = SampledFunction.indicator(0, 1, g)
        assert lp_norm(f, Exponent(4.0)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_half_indicator(self):
        g = Grid.over(0, 1, -4)
        f = 2.0 * SampledFunction.indicator(0, Fraction(1, 2), g)
        assert lp_norm(f, Exponent(2.0)) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("p", PS)
    def test_exactness_against_closed_form(self, p):
        # indicator of [a, b) scaled by c has norm |c| (b-a)^(1/p)
        g = Grid.over(0, 4, -5)
        f = (1.7 - 0.3j) * SampledFunction.indicator(
            Fraction(3, 4), Fraction(9, 4), g
        )
        expect = abs(1.7 - 0.3j) * (1.5) ** (1.0 / p.p)
        assert lp_norm(f, p) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", PS)
    def test_triangle_inequality(self, p):
        g = Grid.over(0, 2, -5)
        for trial in range(20):
            f, h = random_fn(g, 10, trial, 0), random_fn(g, 10, trial, 1)
            assert lp_norm(f + h, p) <= lp_norm(f, p) + lp_norm(h, p) + 1e-12


class TestTranslate:
    def test_shifts_indicator(self):
        g = Grid.over(0, 2, -3)
        f = SampledFunction.indicator(0, 1, g)
        t = translate(f, 1)
        assert t.grid.origin == 1
        assert np.allclose(
            restrict(t, 1, 2).values, np.ones(8)
        )

    def test_zero_shift_identity(self):
        g = Grid.over(0, 1, -3)
        f = random_fn(g, 4)
        t = translate(f, 0)
        assert t.grid == f.grid
        assert np.array_equal(t.values, f.values)

    @pytest.mark.parametrize("p", PS)
    def test_isometry(self, p):
        g = Grid.over(0, 2, -5)
        for trial in range(10):
            f = random_fn(g, 5, trial)
            t = int(rng_for(6, trial).integers(-100, 100)) * g.step_fraction
            assert lp_norm(translate(f, t), p) == pytest.approx(
                lp_norm(f, p), rel=1e-12
            )

    def test_rejects_non_aligned(self):
        g = Grid.over(0, 1, -3)
        f = SampledFunction.indicator(0, 1, g)
        with pytest.raises(NonAlignedShift):
            translate(f, 0.3)

    def test_rejects_float_just_off_a_boundary(self):
        # a float shift is taken at its exact value, never rounded to a cell
        g = Grid.over(0, 1, -3)
        f = SampledFunction.indicator(0, 1, g)
        with pytest.raises(NonAlignedShift):
            translate(f, 0.125 + 2**-50)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        origin=st.integers(-64, 64),
        step_log2=st.integers(-8, 0),
        count=st.integers(1, 64),
        k=st.integers(-(10**6), 10**6),
        seed=st.integers(0, 2**31),
    )
    def test_aligned_shift_is_exact_isometry(self, origin, step_log2, count, k, seed):
        g = Grid(origin, step_log2, count)
        f = random_fn(g, seed)
        for t in (k * g.step_fraction, k * g.step):
            moved = translate(f, t)
            assert moved.grid.origin_index == g.origin_index + k
            assert moved.values.tobytes() == f.values.tobytes()
            for p in PS:
                assert lp_norm(moved, p) == lp_norm(f, p)
        with pytest.raises(NonAlignedShift):
            translate(f, k * g.step_fraction + g.step_fraction / 3)


class TestModulate:
    def test_zero_frequency_identity(self):
        g = Grid.over(0, 1, -4)
        f = random_fn(g, 7)
        m = modulate(f, 0)
        assert np.allclose(m.values, f.values, atol=0)

    def test_unimodular_factor(self):
        g = Grid.over(0, 1, -5)
        f = random_fn(g, 8)
        m = modulate(f, Fraction(5, 2))
        assert np.allclose(np.abs(m.values), np.abs(f.values), atol=1e-15)

    @pytest.mark.parametrize("p", PS)
    def test_isometry(self, p):
        g = Grid.over(0, 1, -5)
        f = random_fn(g, 9)
        assert lp_norm(modulate(f, 3), p) == pytest.approx(lp_norm(f, p), rel=1e-13)

    def test_rejects_aliased(self):
        g = Grid.over(0, 1, -3)  # Nyquist 4
        f = SampledFunction.indicator(0, 1, g)
        with pytest.raises(AliasedFrequency):
            modulate(f, 4)


class TestTimeFreqShift:
    def test_zero_shift_is_window(self):
        g = Grid.over(0, 1, -4)
        f = random_fn(g, 11)
        out = time_freq_shift(f, 0, 0)
        assert np.allclose(out.values, f.values, atol=0)

    @pytest.mark.parametrize("p", PS)
    def test_isometry(self, p):
        g = Grid.over(0, 1, -5)
        f = random_fn(g, 12)
        out = time_freq_shift(f, Fraction(3, 4), 2)
        assert lp_norm(out, p) == pytest.approx(lp_norm(f, p), rel=1e-12)

    def test_modulus_independent_of_frequency(self):
        g = Grid.over(0, 1, -6)
        f = random_fn(g, 13)
        t = Fraction(1, 2)
        base = np.abs(time_freq_shift(f, t, 0).values)
        for s in (1, 7, Fraction(31, 2), -5):
            assert np.array_equal(np.abs(time_freq_shift(f, t, s).values), base) or \
                np.allclose(np.abs(time_freq_shift(f, t, s).values), base, atol=1e-15)


class TestRowKernels:
    """The one-row calls take the float steps of the formulas written out,
    below and from the 16384 cells (256 KiB) at which numpy evaluates a
    product with an unnamed temporary in place."""

    @pytest.mark.parametrize("step_log2", [-6, -13, -14, -15])
    def test_modulate_matches_formula(self, step_log2):
        g = Grid.over(-1, 1, step_log2)
        f = random_fn(g, 14)
        nyq = 2 ** (-step_log2 - 1)
        for s in (Fraction(3, 2), Fraction(-nyq + 1), Fraction(nyq - 1, 3)):
            base, incr = float((s * g.origin) % 1), float(s) * g.step
            want = f.values * np.exp(2j * np.pi * (base + incr * (np.arange(g.count) + 0.5)))
            assert np.array_equal(modulate(f, s).values, want)

    @pytest.mark.parametrize("step_log2", [-6, -14])
    def test_norms_match_formula(self, step_log2):
        f = random_fn(Grid.over(0, 3, step_log2), 15)
        for p in PS:
            pth = float((np.abs(f.values) ** p.p).sum() * f.grid.step)
            assert lp_norm_pth(f, p) == pth
            assert lp_norm(f, p) == pth ** (1.0 / p.p)

    def test_shift_rows_match_one_row_calls(self):
        g = Grid.over(0, 2, -6)  # 10 rows of 128 cells: below 16384 cells
        values = np.array([random_fn(g, 16, r).values for r in range(10)])
        ts = [Fraction(r - 5, 4) for r in range(10)]
        ss = [Fraction(3 * r - 14, 2) for r in range(10)]
        rows = time_freq_shift_rows(values, g, ts, ss)
        for row, v, t, s in zip(rows, values, ts, ss):
            assert np.array_equal(row, time_freq_shift(SampledFunction(g, v), t, s).values)

    def test_shift_rows_reject_aliased_and_unaligned(self):
        g = Grid.over(0, 1, -3)  # Nyquist 4
        values = np.ones((2, g.count), dtype=complex)
        with pytest.raises(AliasedFrequency):
            time_freq_shift_rows(values, g, [0, 1], [1, -4])
        with pytest.raises(NonAlignedShift):
            time_freq_shift_rows(values, g, [0, Fraction(1, 16)], [1, 1])


class TestLpEll2:
    def test_single_function_reduces_to_lp(self):
        g = Grid.over(0, 1, -4)
        f = random_fn(g, 14)
        p = Exponent(3.0)
        assert lp_ell2_norm([f], p) == pytest.approx(lp_norm(f, p), rel=1e-13)

    def test_two_disjoint_unit_indicators_p2(self):
        g = Grid.over(0, 2, -3)
        f = SampledFunction.indicator(0, 1, g)
        h = SampledFunction.indicator(1, 2, g)
        assert lp_ell2_norm([f, h], Exponent(2.0)) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    @pytest.mark.parametrize("p", [Exponent(2.0), Exponent(3.0), Exponent(4.0)])
    def test_dominated_by_l2_sum_of_norms(self, p):
        # Minkowski with exponent p/2: mixed norm <= (sum ||f_j||_p^2)^(1/2)
        g = Grid.over(0, 2, -5)
        for trial in range(20):
            fs = [random_fn(g, 15, trial, j) for j in range(5)]
            rhs = np.sqrt(sum(lp_norm(f, p) ** 2 for f in fs))
            assert lp_ell2_norm(fs, p) <= rhs + 1e-12

    def test_grid_mismatch(self):
        f = SampledFunction.indicator(0, 1, Grid.over(0, 1, -3))
        h = SampledFunction.indicator(0, 1, Grid.over(0, 1, -4))
        with pytest.raises(GridMismatch):
            lp_ell2_norm([f, h], Exponent(2.0))

    @pytest.mark.parametrize("p", PS)
    def test_triangle_inequality(self, p):
        g = Grid.over(0, 1, -5)
        for trial in range(10):
            fs = [random_fn(g, 16, trial, j) for j in range(3)]
            hs = [random_fn(g, 17, trial, j) for j in range(3)]
            both = [f + h for f, h in zip(fs, hs)]
            assert lp_ell2_norm(both, p) <= lp_ell2_norm(fs, p) + lp_ell2_norm(
                hs, p
            ) + 1e-12
