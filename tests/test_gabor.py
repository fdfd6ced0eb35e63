"""Gabor systems: atoms, synthesis linearity, sign flips, square function."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.gabor import (
    GaborSystem,
    TimeFreqPoint,
    points_from_json,
    points_to_json,
    synthesize,
)
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_ell2_norm, lp_norm, restrict
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import all_sign_patterns, combination_pth, rademacher_pnorms_exact


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


def atom(sys, row):
    """Row `row` of the atom matrix as a function on the hull."""
    return SampledFunction(sys.hull, sys.atom_matrix[row])


def scaled_atoms(sys, a):
    """The terms a_{ts} times atom of a combination, as a value matrix on the hull."""
    return np.asarray(a)[:, None] * sys.atom_matrix


class TestAtom:
    def test_zero_point_is_window(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        assert np.allclose(
            restrict(atom(sys, 0), 0, 1).values, sys.window.values, atol=0
        )

    def test_isometry_and_modulus(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(2, 5), TimeFreqPoint(2, 0)]
        )
        p = Exponent(3.0)
        a, b = atom(sys, 0), atom(sys, 1)
        assert lp_norm(a, p) == pytest.approx(lp_norm(sys.window, p), rel=1e-12)
        assert np.allclose(np.abs(a.values), np.abs(b.values), atol=1e-15)


class TestSynthesize:
    def test_single_unit_coefficient(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        out = synthesize(sys, [1.0])
        assert np.allclose(restrict(out, 0, 1).values, sys.window.values, atol=0)

    def test_zero_map(self):
        sys = small_system()
        out = synthesize(sys, np.zeros(len(sys.points)))
        assert np.all(out.values == 0)

    def test_empty_system_synthesizes_zero_on_the_window_grid(self):
        sys = GaborSystem(bump_window(), [])
        assert sys.atom_matrix.shape == (0, sys.window.grid.count)
        out = synthesize(sys, [])
        assert out.grid == sys.window.grid and np.all(out.values == 0)

    def test_disjoint_supports_add_in_pth_power(self):
        window = bump_window()
        pts = [TimeFreqPoint(0, 0), TimeFreqPoint(2, 3)]
        sys = GaborSystem(window, pts)
        p = Exponent(2.5)
        out = synthesize(sys, [1.0, 1.0])
        expect = (2 * lp_norm(window, p) ** p.p) ** (1 / p.p)
        assert lp_norm(out, p) == pytest.approx(expect, rel=1e-12)

    def test_linearity(self):
        sys = small_system()
        p = Exponent(3.0)
        rng = rng_for(33)
        a = complex_gaussian(rng, len(sys.points))
        b = complex_gaussian(rng, len(sys.points))
        lam = complex(*rng.standard_normal(2))
        fa = synthesize(sys, a)
        fb = synthesize(sys, b)
        fab = synthesize(sys, a + lam * b)
        assert np.abs(fab.values - (fa.values + lam * fb.values)).max() <= 1e-12

    def test_rejects_stray_coefficient(self):
        # one coefficient per point: a vector of any other length is refused
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        for a in ([1.0, 1.0], [], np.ones((1, 1))):
            with pytest.raises(ValueError):
                synthesize(sys, a)


def flip_extremes(sys, a, p):
    """Largest and smallest || sum theta_j a_j atom_j ||_p / || sum a_j atom_j ||_p
    over all sign patterns theta; row 0, all minus, has the norm of a."""
    pth = combination_pth(all_sign_patterns(len(a)) * np.asarray(a), sys.atom_matrix,
                          sys.hull.step, [p])[0]
    ratios = (pth / pth[0]) ** (1.0 / p.p)
    return ratios.max(), ratios.min()


class TestSignFlipRatio:
    def test_single_point(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(0, 0)])
        mx, mn = flip_extremes(sys, [1.0], Exponent(3.0))
        assert mx == pytest.approx(1.0, abs=1e-12)
        assert mn == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_atoms(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(0, 0), TimeFreqPoint(2, 1)]
        )
        mx, mn = flip_extremes(sys, [1.0, 0.5], Exponent(2.5))
        assert mx == pytest.approx(1.0, abs=1e-12)
        assert mn == pytest.approx(1.0, abs=1e-12)

    def test_brackets_one(self):
        sys = small_system(6)
        p = Exponent(4.0)
        a = complex_gaussian(rng_for(34), len(sys.points))
        mx, mn = flip_extremes(sys, a, p)
        assert mn <= 1.0 + 1e-12 <= mx + 2e-12


class TestSquareFunction:
    def test_single_atom(self):
        sys = GaborSystem(bump_window(), [TimeFreqPoint(1, 2)])
        p = Exponent(3.0)
        a = [2.0 - 1.0j]
        expect = abs(2.0 - 1.0j) * lp_norm(sys.window, p)
        got = lp_ell2_norm(scaled_atoms(sys, a), sys.hull.step, [p])[0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_disjoint_atoms_match_synthesis(self):
        sys = GaborSystem(
            bump_window(), [TimeFreqPoint(0, 0), TimeFreqPoint(2, 3)]
        )
        p = Exponent(2.5)
        a = [1.0, -2.0]
        assert lp_ell2_norm(scaled_atoms(sys, a), sys.hull.step, [p])[0] == pytest.approx(
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
            results.append(lp_ell2_norm(scaled_atoms(sys, values), sys.hull.step, [p])[0])
        for r in results[1:]:
            assert r == pytest.approx(results[0], rel=1e-12)

    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(2.0), Exponent(4.0)])
    def test_exact_rademacher_sandwich(self, p):
        # one-sided constant 1: lower for p >= 2, upper for p <= 2
        sys = small_system(8, seed=36)
        a = complex_gaussian(rng_for(37), len(sys.points))
        values = scaled_atoms(sys, a)
        sf = lp_ell2_norm(values, sys.hull.step, [p])[0]
        mean = rademacher_pnorms_exact(values, sys.hull.step, [p])[0]
        if p.p >= 2.0:
            assert mean >= sf * (1 - 1e-12)
        if p.p <= 2.0:
            assert mean <= sf * (1 + 1e-12)


class TestSerialization:
    def test_points_roundtrip(self):
        pts = [TimeFreqPoint(Fraction(1, 2), 2), TimeFreqPoint(-3, Fraction(7, 4))]
        assert points_from_json(points_to_json(pts)) == pts

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.fractions(), st.fractions())))
    def test_points_roundtrip_is_lossless(self, pairs):
        pts = [TimeFreqPoint(t, s) for t, s in pairs]
        assert points_from_json(json.loads(json.dumps(points_to_json(pts)))) == pts
