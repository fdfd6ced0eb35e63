"""Gabor systems: atoms, synthesis linearity, sign flips, square function."""

import numpy as np
import pytest
from fractions import Fraction

from gaborlab.errors import UnknownPoint, ZeroFunction
from gaborlab.gabor import (
    CoefficientMap,
    GaborSystem,
    TimeFreqPoint,
    atom,
    points_from_json,
    points_to_json,
    sign_flip_ratio,
    square_function_equivalent,
    synthesize,
)
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm, restrict
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import rademacher_pnorm_exact


def bump_window(step_log2=-4, seed=31):
    grid = Grid(0, step_log2, 2**-step_log2)
    return SampledFunction(grid, complex_gaussian(rng_for(seed), grid.count))


def small_system(n_points=4, seed=32):
    window = bump_window()
    rng = rng_for(seed)
    pts = []
    while len(pts) < n_points:
        pt = TimeFreqPoint(
            Fraction(int(rng.integers(0, 4))), Fraction(int(rng.integers(-7, 8)))
        )
        if pt not in pts:
            pts.append(pt)
    return GaborSystem(window, pts)


class TestAtom:
    def test_zero_point_is_window(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        a = atom(sys, TimeFreqPoint(0, 0))
        assert np.allclose(
            restrict(a, 0, 1).values, sys.window.values, atol=0
        )

    def test_isometry_and_modulus(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(2, 5), TimeFreqPoint(2, 0)]
        )
        p = Exponent(3.0)
        a = atom(sys, TimeFreqPoint(2, 5))
        b = atom(sys, TimeFreqPoint(2, 0))
        assert lp_norm(a, p) == pytest.approx(lp_norm(sys.window, p), rel=1e-12)
        assert np.allclose(np.abs(a.values), np.abs(b.values), atol=1e-15)

    def test_unknown_point(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        with pytest.raises(UnknownPoint):
            atom(sys, TimeFreqPoint(1, 0))


class TestSynthesize:
    def test_single_unit_coefficient(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        out = synthesize(sys, CoefficientMap.from_vector(sys, [1.0]))
        assert np.allclose(restrict(out, 0, 1).values, sys.window.values, atol=0)

    def test_zero_map(self):
        sys = small_system()
        out = synthesize(sys, CoefficientMap({}))
        assert np.all(out.values == 0)

    def test_disjoint_supports_add_in_pth_power(self):
        window = bump_window()
        pts = [TimeFreqPoint(0, 0), TimeFreqPoint(2, 3)]
        sys = GaborSystem(window, pts)
        p = Exponent(2.5)
        out = synthesize(sys, CoefficientMap.from_vector(sys, [1.0, 1.0]))
        expect = (2 * lp_norm(window, p) ** p.p) ** (1 / p.p)
        assert lp_norm(out, p) == pytest.approx(expect, rel=1e-12)

    def test_linearity(self):
        sys = small_system()
        p = Exponent(3.0)
        rng = rng_for(33)
        a = complex_gaussian(rng, len(sys.points))
        b = complex_gaussian(rng, len(sys.points))
        lam = complex(*rng.standard_normal(2))
        fa = synthesize(sys, CoefficientMap.from_vector(sys, a))
        fb = synthesize(sys, CoefficientMap.from_vector(sys, b))
        fab = synthesize(sys, CoefficientMap.from_vector(sys, a + lam * b))
        assert np.abs(fab.values - (fa.values + lam * fb.values)).max() <= 1e-12

    def test_rejects_stray_coefficient(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        stray = CoefficientMap({TimeFreqPoint(1, 1): 1.0})
        with pytest.raises(UnknownPoint):
            synthesize(sys, stray)


class TestSignFlipRatio:
    def test_single_point(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        mx, mn = sign_flip_ratio(
            sys, CoefficientMap.from_vector(sys, [1.0]), Exponent(3.0), 8, 1
        )
        assert mx == pytest.approx(1.0, abs=1e-12)
        assert mn == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_atoms(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(0, 0), TimeFreqPoint(2, 1)]
        )
        mx, mn = sign_flip_ratio(
            sys, CoefficientMap.from_vector(sys, [1.0, 0.5]), Exponent(2.5), 8, 1
        )
        assert mx == pytest.approx(1.0, abs=1e-12)
        assert mn == pytest.approx(1.0, abs=1e-12)

    def test_zero_function_rejected(self):
        sys = small_system()
        with pytest.raises(ZeroFunction):
            sign_flip_ratio(sys, CoefficientMap({}), Exponent(2.0), 4, 1)

    def test_brackets_one(self):
        sys = small_system(6)
        p = Exponent(4.0)
        a = CoefficientMap.from_vector(
            sys, complex_gaussian(rng_for(34), len(sys.points))
        )
        mx, mn = sign_flip_ratio(sys, a, p, 64, 2)
        assert mn <= 1.0 + 1e-12 <= mx + 2e-12


class TestSquareFunction:
    def test_single_atom(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(1, 2)])
        p = Exponent(3.0)
        a = CoefficientMap.from_vector(sys, [2.0 - 1.0j])
        expect = abs(2.0 - 1.0j) * lp_norm(sys.window, p)
        assert square_function_equivalent(sys, a, p) == pytest.approx(
            expect, rel=1e-12
        )

    def test_disjoint_atoms_match_synthesis(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(0, 0), TimeFreqPoint(2, 3)]
        )
        p = Exponent(2.5)
        a = CoefficientMap.from_vector(sys, [1.0, -2.0])
        assert square_function_equivalent(sys, a, p) == pytest.approx(
            lp_norm(synthesize(sys, a), p), rel=1e-12
        )

    def test_invariant_under_frequency_change_at_fixed_times(self):
        window = bump_window()
        rng = rng_for(35)
        times = [Fraction(int(t)) for t in (0, 1, 1, 3)]
        p = Exponent(3.0)
        values = complex_gaussian(rng, 4)
        results = []
        for round_ in range(3):
            freqs = [Fraction(int(rng.integers(-7, 8))) for _ in times]
            pts = [TimeFreqPoint(t, s) for t, s in zip(times, freqs)]
            if len(set(pts)) < len(pts):
                continue
            sys = GaborSystem(window, pts)
            a = CoefficientMap.from_vector(sys, values)
            results.append(square_function_equivalent(sys, a, p))
        for r in results[1:]:
            assert r == pytest.approx(results[0], rel=1e-12)

    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(2.0), Exponent(4.0)])
    def test_exact_rademacher_sandwich(self, p):
        # one-sided constant 1: lower for p >= 2, upper for p <= 2
        sys = small_system(8, seed=36)
        hull = sys.hull_grid()
        a = complex_gaussian(rng_for(37), len(sys.points))
        sf = square_function_equivalent(sys, CoefficientMap.from_vector(sys, a), p)
        from gaborlab.gabor import _atom_matrix

        mat, _ = _atom_matrix(sys)
        fs = [SampledFunction(hull, c * row) for c, row in zip(a, mat)]
        mean = rademacher_pnorm_exact(fs, p)
        if p.p >= 2.0:
            assert mean >= sf * (1 - 1e-12)
        if p.p <= 2.0:
            assert mean <= sf * (1 + 1e-12)


class TestSerialization:
    def test_points_roundtrip(self):
        pts = [TimeFreqPoint(Fraction(1, 2), 2), TimeFreqPoint(-3, Fraction(7, 4))]
        assert points_from_json(points_to_json(pts)) == pts
