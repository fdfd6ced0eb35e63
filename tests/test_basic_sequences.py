"""The explicit window families and their predicted-norm formulas."""

import numpy as np
import pytest
from fractions import Fraction

from gaborlab.basic_sequences import (
    WeightSequence,
    cells_combination,
    cells_grid,
    cells_predicted_mass,
    cells_window,
    flat_cells_coefficients,
    growth_threshold_scan,
    peaks_decomposition_check,
    peaks_grid,
    peaks_interval_families,
    peaks_lattice,
    peaks_predicted_norm,
    peaks_window,
    quadratic_mass_growth,
    separated_translates_norm,
    verify_cells,
    verify_peaks,
    weight_growth_ratios,
)
from gaborlab.calibration import CALIBRATION, RECORDED_CONFIG
from gaborlab.errors import GridTooCoarse
from gaborlab.gabor import GaborSystem, synthesize
from gaborlab.grids import (
    Exponent,
    Grid,
    lp_norm,
    lp_norm_pth,
    restrict,
)
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import all_sign_patterns, combination_pth

P15 = Exponent(1.5)
P4 = Exponent(4.0)


class TestWeightSequence:
    def test_polynomial_weights_normalized(self):
        w = WeightSequence.polynomial(0.1, P15, length=8)
        assert w.w[0] == 1.0
        assert np.all(np.diff(w.w) <= 0)

    def test_tail_weight_identity(self):
        w = WeightSequence.polynomial(0.25, P15, length=64)
        # sum_{k >= j} |c_k|^p telescopes back to w_j (up to the horizon tail)
        mags = np.abs(np.array(w.c)) ** P15.p
        tails = np.flip(np.cumsum(np.flip(mags)))
        assert np.allclose(tails, np.array(w.w[:64]), atol=1e-12)

    def test_normalized_head(self):
        head = WeightSequence.polynomial(0.1, P15, length=8).normalized_head(8, P15)
        assert sum(abs(x) ** P15.p for x in head.c) == pytest.approx(1.0, abs=1e-12)
        assert head.w[0] == pytest.approx(1.0, abs=1e-12)


class TestPeaksWindow:
    def test_single_coefficient_window(self):
        grid = peaks_grid(J=2, K=2)
        g = peaks_window([1.0, 0.0], P15, K=2, grid=grid)
        # one step of height 2^(1/p) on [1, 1.5]
        cell = restrict(g, 1, Fraction(3, 2))
        assert np.allclose(cell.values, 2.0 ** (1.0 / P15.p))
        assert lp_norm(g, P15) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_head_norm_one(self):
        head = WeightSequence.polynomial(0.1, P15, length=8).normalized_head(8, P15)
        g = peaks_window(head.c, P15, 8, peaks_grid(8, 8))
        assert lp_norm(g, P15) ** P15.p == pytest.approx(1.0, abs=1e-10)

    def test_wiener_norm_is_peak_sum(self):
        # the amalgam norm: the sups of |g| over the unit cells [k, k+1) add
        head = WeightSequence.polynomial(0.1, P15, length=8).normalized_head(8, P15)
        g = peaks_window(head.c, P15, 8, peaks_grid(8, 8))
        cells = np.abs(g.values).reshape(-1, 2 ** -g.grid.step_log2)
        expect = sum(
            abs(head.c[k - 1]) * 2.0 ** (k / P15.p) for k in range(1, 9)
        )
        assert cells.max(axis=1).sum() == pytest.approx(expect, rel=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            peaks_window([1.0] * 8, P15, 8, Grid.over(0, 10, -4))


class TestPeaksLattice:
    def test_first_point(self):
        assert peaks_lattice(1) == [
            __import__("gaborlab.gabor", fromlist=["TimeFreqPoint"]).TimeFreqPoint(
                Fraction(1, 2), 2
            )
        ]

    def test_empty(self):
        assert peaks_lattice(0) == []

    def test_grid_aligned(self):
        grid = peaks_grid(8, 8)
        for pt in peaks_lattice(8):
            assert (pt.t / grid.step_fraction).denominator == 1


class TestPeaksPrediction:
    def test_first_unit_vector(self):
        w = WeightSequence.polynomial(0.1, P15, length=8)
        a = np.zeros(8, dtype=complex)
        a[0] = 1.0
        assert peaks_predicted_norm(a, w, P15) == pytest.approx(
            w.w[0] ** (1 / P15.p) + 1.0, rel=1e-14
        )

    def test_zero_vector(self):
        w = WeightSequence.polynomial(0.1, P15, length=8)
        assert peaks_predicted_norm(np.zeros(4), w, P15) == 0.0

    def test_all_ones(self):
        w = WeightSequence.polynomial(0.1, P15, length=8)
        n = 6
        a = np.ones(n)
        expect = sum(w.w[:n]) ** (1 / P15.p) + np.sqrt(n)
        assert peaks_predicted_norm(a, w, P15) == pytest.approx(expect, rel=1e-14)


@pytest.fixture(scope="module")
def phi():
    head = WeightSequence.polynomial(0.1, P15, length=8).normalized_head(8, P15)
    grid = peaks_grid(8, 8)
    window = peaks_window(head.c, P15, 8, grid)
    system = GaborSystem(window, peaks_lattice(8))
    a = complex_gaussian(rng_for(71), 8)
    f = synthesize(system, a)
    return head, a, f


class TestPeaksDecomposition:

    def test_families_are_disjoint_and_exact(self, phi):
        head, a, f = phi
        for k in range(1, 9):
            stats = peaks_decomposition_check(f, k, 8, P15)
            assert stats["outside_sup"] <= 1e-12

    def test_single_translate_intervals_have_constant_modulus(self, phi):
        # on a "single" interval only translate j contributes: |Phi| = |c_k| 2^(k/p) |a_j|
        head, a, f = phi
        k = 5
        fams = peaks_interval_families(k, 8)
        for j, (lo, hi) in enumerate(fams["single"], start=1):
            seg = restrict(f, lo, hi)
            expect = abs(head.c[k - 1]) * 2 ** (k / P15.p) * abs(a[j - 1])
            assert np.allclose(np.abs(seg.values), expect, atol=1e-12)

    def test_head_interval_matches_formula(self, phi):
        # on a "head" interval the first l-k+1 overlapping translates all contribute
        head, a, f = phi
        k, l = 3, 5
        fams = peaks_interval_families(k, 8)
        lo, hi = fams["head"][l - k]
        seg = restrict(f, lo, hi)
        x = seg.grid.midpoints()
        formula = (
            head.c[k - 1]
            * 2 ** (k / P15.p)
            * sum(a[j - 1] * np.exp(2j * np.pi * (2**j) * x) for j in range(k, l + 1))
        )
        assert np.abs(seg.values - formula).max() <= 1e-9

    def test_tail_interval_matches_formula(self, phi):
        head, a, f = phi
        k, l = 3, 5
        fams = peaks_interval_families(k, 8)
        lo, hi = fams["tail"][l - k]
        seg = restrict(f, lo, hi)
        x = seg.grid.midpoints()
        formula = (
            head.c[k - 1]
            * 2 ** (k / P15.p)
            * sum(a[j - 1] * np.exp(2j * np.pi * (2**j) * x) for j in range(l + 1, 9))
        )
        assert np.abs(seg.values - formula).max() <= 1e-9

    def test_degenerate_first_unit_vector_ratio(self, phi):
        head, _, _ = phi
        grid = peaks_grid(8, 8)
        window = peaks_window(head.c, P15, 8, grid)
        system = GaborSystem(window, peaks_lattice(8))
        e1 = np.zeros(8, dtype=complex)
        e1[0] = 1.0
        f = synthesize(system, e1)
        ratio = lp_norm(f, P15) / peaks_predicted_norm(e1, head, P15)
        # atom norm is 1, prediction is w_1^(1/p) + 1 = 2
        assert ratio == pytest.approx(1.0 / (head.w[0] ** (1 / P15.p) + 1.0), rel=1e-12)


class TestPeaksVerification:
    def test_sign_flip_ratio_bounded_by_equivalence_window(self, phi):
        # every sign pattern keeps the synthesized norm within the equivalence
        # window around the (sign-invariant) prediction, so the flip ratio is
        # at most the window's spread
        head, a, _ = phi
        grid = peaks_grid(8, 8)
        window = peaks_window(head.c, P15, 8, grid)
        system = GaborSystem(window, peaks_lattice(8))
        # all 2^8 patterns; row 0, all minus, has the norm of a
        pth = combination_pth(all_sign_patterns(8) * a, system.atom_matrix,
                              system.hull.step, [P15])[0]
        ratios = (pth / pth[0]) ** (1.0 / P15.p)
        mx, mn = ratios.max(), ratios.min()
        lo, hi = CALIBRATION["peaks"]["ratio"]
        spread = hi / lo
        assert mx <= spread * (1 + 1e-9)
        assert mn >= 1.0 / spread * (1 - 1e-9)

    def test_ratio_window_matches_calibration(self):
        cfg = RECORDED_CONFIG["peaks"]
        weights = WeightSequence.polynomial(
            cfg["alpha"], Exponent(cfg["p"]), length=cfg["K"]
        )
        rows, _ = verify_peaks(
            weights.normalized_head(cfg["K"], Exponent(cfg["p"])),
            Exponent(cfg["p"]),
            cfg["J"],
            cfg["K"],
            trials=50,
            seed=RECORDED_CONFIG["seed"],
        )
        ratios = [row["ratio"] for row in rows]
        cal = CALIBRATION["peaks"]
        assert min(ratios) >= cal["ratio"][0] * (1 - 1e-6)
        assert max(ratios) <= cal["ratio"][1] * (1 + 1e-6)
        assert len(rows) == 50

    def test_growth_ratio_monotone(self):
        w = WeightSequence.polynomial(0.1, P15, length=8)
        ratios = weight_growth_ratios(w, P15, 64)
        assert np.all(np.diff(ratios) > 0)


class TestCellsWindow:
    def test_single_coefficient(self):
        grid = cells_grid(0, 1)
        g = cells_window([1.0], K=0, grid=grid)
        assert lp_norm(g, P4) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(g.values[: 2**2]), 1.0)

    def test_normalized_norm_one(self):
        c = flat_cells_coefficients(6, P4)
        g = cells_window(c, 6, Grid.over(0, 7, -8))
        assert lp_norm(g, P4) ** 4 == pytest.approx(1.0, abs=1e-10)

    def test_pointwise_modulus_is_coefficient_profile(self):
        c = flat_cells_coefficients(3, P4)
        g = cells_window(c, 3, Grid.over(0, 4, -5))
        for k in range(4):
            seg = restrict(g, k, k + 1)
            assert np.allclose(np.abs(seg.values), abs(c[k]), atol=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            cells_window([1.0] * 7, 6, Grid.over(0, 7, -6))


class TestCellsPrediction:
    def test_first_unit_vector_exact(self):
        # a = e_1 shifts the window by one cell: both sides equal sum |c_k|^p
        c = flat_cells_coefficients(6, P4)
        grid = cells_grid(6, 1)
        window = cells_window(c, 6, Grid.over(0, 7, -8))
        phi = cells_combination(window, [1.0], grid)
        computed = lp_norm_pth(phi, P4)
        predicted = cells_predicted_mass([1.0], c, P4)
        assert computed == pytest.approx(predicted, rel=1e-12)
        assert computed == pytest.approx(1.0, abs=1e-10)

    def test_convolution_structure_on_one_cell(self):
        # on [l, l+1] the combination is sum_k a_{l-k} c_k e_{2^k} exactly
        c = flat_cells_coefficients(4, P4)
        n = 3
        grid = cells_grid(4, n)
        window = cells_window(c, 4, Grid.over(0, 5, -6))
        a = complex_gaussian(rng_for(72), n)
        phi = cells_combination(window, a, grid)
        l = 4
        seg = restrict(phi, l, l + 1)
        x = seg.grid.midpoints()
        formula = sum(
            a[l - k - 1] * c[k] * np.exp(2j * np.pi * (2**k) * x)
            for k in range(max(0, l - n), min(5, l))
        )
        assert np.abs(seg.values - formula).max() <= 1e-9


class TestCellsVerification:
    def test_ratio_window_matches_calibration(self):
        cfg = RECORDED_CONFIG["cells"]
        c = flat_cells_coefficients(cfg["K"], Exponent(cfg["p"]))
        rows = verify_cells(
            c,
            Exponent(cfg["p"]),
            cfg["K"],
            cfg["n_max"],
            trials=50,
            seed=RECORDED_CONFIG["seed"],
        )
        ratios = [row["ratio"] for row in rows]
        cal = CALIBRATION["cells"]
        assert min(ratios) >= cal["ratio"][0] * (1 - 1e-6)
        assert max(ratios) <= cal["ratio"][1] * (1 + 1e-6)

    def test_growth_threshold_scan(self):
        c = flat_cells_coefficients(6, P4)
        n_star = growth_threshold_scan(c, P4)
        ratios = quadratic_mass_growth(c, P4, n_star)
        assert ratios[-1] > 2.0
        assert np.all(ratios[:-1] <= 2.0)

    def test_separated_translates_below_bound(self):
        c = flat_cells_coefficients(6, P4)
        norm = separated_translates_norm(c, P4, K=6, n=8, separation=7)
        assert norm < 2.0 * 8 ** (1.0 / P4.p)
        # disjoint supports make the norm exactly n^(1/p)
        assert norm == pytest.approx(8 ** (1.0 / P4.p), rel=1e-10)
