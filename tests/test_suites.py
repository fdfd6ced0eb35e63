"""The suites' array kernels against per-trial loops of the single-call functions.

Each oracle below draws from the same per-trial streams as its suite and
evaluates every trial on its own with the public one-function, one-exponent
calls (time_freq_shift, lp_norm, restrict, khintchine_ratio, ...).  The
suite's rows and metrics must equal the oracle's bit for bit, on the default
grids and on one of 16384 cells or more, where numpy evaluates a product of
256 KiB in place.
"""

from fractions import Fraction

import numpy as np
import pytest

from gaborlab.basic_sequences import (
    WeightSequence,
    cells_combination,
    cells_grid,
    cells_predicted_mass,
    cells_window,
    flat_cells_coefficients,
    peaks_grid,
    peaks_lattice,
    peaks_local_predictions,
    peaks_predicted_norm,
    peaks_window,
)
from gaborlab.fourier import square_function_norm
from gaborlab.gabor import GaborSystem, synthesize
from gaborlab.grids import (
    Exponent,
    Grid,
    SampledFunction,
    lp_ell2_norm,
    lp_norm,
    lp_norm_pth,
    restrict,
    time_freq_shift,
)
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import (
    cotype2_ratio,
    khintchine_ratio,
    lacunary_pnorm,
    rademacher_pnorm_exact,
    type2_ratio,
)
from gaborlab.suites import (
    _band_partition,
    cells_suite,
    isometry_suite,
    khintchine_suite,
    lacunary_suite,
    peaks_suite,
    random_atoms,
    rdf_suite,
    squarefunc_suite,
    type_cotype_suite,
)

SEED = 77
ATOM_GRID = Grid.over(0, 4, -5)


def test_khintchine():
    ps = (1.5, 2.0, 3.0, 4.0)
    want = []
    for trial in range(20):
        rng = rng_for(SEED, trial)
        n = int(rng.integers(1, 13))
        a = complex_gaussian(rng, n)
        want += [(trial, n, p, khintchine_ratio(a, Exponent(p))) for p in ps]
    _, rows = khintchine_suite(SEED, trials=20)
    assert [(r["trial"], r["n"], r["p"], r["ratio"]) for r in rows] == want


def test_squarefunc():
    ps = (1.5, 2.0, 3.0, 4.0)
    want = []
    for trial in range(8):
        n = int(rng_for(SEED, trial, 1).integers(2, 11))
        fs = random_atoms(SEED, trial, n, ATOM_GRID)
        for p in ps:
            exp = Exponent(p)
            want.append((trial, n, p, rademacher_pnorm_exact(fs, exp) / lp_ell2_norm(fs, exp)))
    _, rows = squarefunc_suite(SEED, families=8)
    assert [(r["trial"], r["n"], r["p"], r["ratio"]) for r in rows] == want


def test_type_cotype():
    want = []
    for trial in range(8):
        n = int(rng_for(SEED, trial, 2).integers(2, 11))
        fs = random_atoms(SEED, trial, n, ATOM_GRID)
        want += [(trial, "cotype", n, p, cotype2_ratio(fs, Exponent(p))) for p in (1.5, 2.0)]
        want += [(trial, "type", n, p, type2_ratio(fs, Exponent(p))) for p in (2.0, 3.0, 4.0)]
    _, rows = type_cotype_suite(SEED, families=8)
    assert [(r["trial"], r["kind"], r["n"], r["p"], r["ratio"]) for r in rows] == want


@pytest.mark.parametrize("grid_log2, trials", [(-10, 40), (-14, 3)])
def test_lacunary(grid_log2, trials):
    # 40 trials on 1024 cells: two full chunks of the kernel and a partial one
    freqs = [2**j for j in range(9)]
    want = []
    for trial in range(trials):
        a = complex_gaussian(rng_for(SEED, trial, 3), 9)
        l2 = float(np.linalg.norm(a))
        want.append((trial,
                     lacunary_pnorm(a, freqs, Exponent(4.0), step_log2=grid_log2) / l2,
                     lacunary_pnorm(a, freqs, Exponent(2.0), step_log2=grid_log2) / l2))
    _, rows = lacunary_suite(SEED, trials=trials, grid_log2=grid_log2)
    assert [(r["trial"], r["ratio"], r["ratio_p2"]) for r in rows] == want


@pytest.mark.parametrize("grid_log2", [-6, -7])
def test_rdf(grid_log2):
    grid = Grid.over(0, 8, grid_log2)
    intervals = _band_partition(grid, 8)
    want, plancherel = [], 0.0
    for trial in range(10):
        f = SampledFunction(grid, complex_gaussian(rng_for(SEED, trial, 4), grid.count))
        two = Exponent(2.0)
        plancherel = max(plancherel, abs(square_function_norm(f, intervals, two)
                                         - lp_norm(f, two)))
        for p in (3.0, 4.0):
            exp = Exponent(p)
            want.append((trial, p, square_function_norm(f, intervals, exp) / lp_norm(f, exp)))
    report, rows = rdf_suite(SEED, corpus=10, grid_log2=grid_log2)
    assert [(r["trial"], r["p"], r["ratio"]) for r in rows] == want
    assert report.metrics["plancherel_deviation"] == plancherel


@pytest.mark.parametrize("grid_log2, span, triples", [(-6, 4, 1000), (-11, 4, 5), (-12, 4, 5)])
def test_isometry(grid_log2, span, triples):
    # all 1000 triples of the default grid, the last chunk partial; chunks of
    # 8192 cells; 16384 cells, where one trial's product is evaluated in place
    grid = Grid.over(0, span, grid_log2)
    ps = [Exponent(x) for x in (1.5, 2.0, 3.0, 4.0)]
    nyq = 2 ** (-grid.step_log2 - 1)
    worst_norm, worst_mod, want = 0.0, 0.0, []
    for trial in range(triples):
        rng = rng_for(SEED, trial, 5)
        g = SampledFunction(grid, complex_gaussian(rng, grid.count))
        t = int(rng.integers(-2 * grid.count, 2 * grid.count)) * grid.step_fraction
        s = Fraction(int(rng.integers(-nyq + 1, nyq)))
        shifted = time_freq_shift(g, t, s)
        translated = np.abs(time_freq_shift(g, t, Fraction(0)).values)
        worst_mod = max(worst_mod, float(np.abs(np.abs(shifted.values) - translated).max()))
        for p in ps:
            base = lp_norm(g, p)
            worst_norm = max(worst_norm, abs(lp_norm(shifted, p) - base) / base)
        if trial < 50:
            want.append({"trial": trial, "worst_norm": worst_norm, "worst_mod": worst_mod})
    report, rows = isometry_suite(SEED, triples, grid_log2, span)
    assert rows == want
    assert report.metrics == {"max_norm_deviation": worst_norm,
                              "max_modulus_deviation": worst_mod}


def test_peaks():
    p, J, K = Exponent(1.5), 8, 8
    head = WeightSequence.polynomial(0.1, p, length=K).normalized_head(K, p)
    system = GaborSystem(peaks_window(head.c, p, K, peaks_grid(J, K)), peaks_lattice(J))
    want, local = [], []
    for trial in range(20):
        a = complex_gaussian(rng_for(SEED, trial), J)
        phi = synthesize(system, a)
        computed, predicted = lp_norm(phi, p), peaks_predicted_norm(a, head, p)
        want.append((trial, computed, predicted, computed / predicted))
        for k, pred in enumerate(peaks_local_predictions(a, head.c, p), start=1):
            if pred > 0:
                local.append(lp_norm_pth(restrict(phi, Fraction(k), Fraction(k + 1)), p) / pred)
    report, rows = peaks_suite(SEED, trials=20)
    assert [(r["trial"], r["computed"], r["predicted"], r["ratio"]) for r in rows] == want
    assert (report.metrics["local_ratio_min"], report.metrics["local_ratio_max"]) == (
        min(local), max(local))


def test_peaks_local_predictions_by_cell():
    # each entry is |c_k|^p (sum_{j <= k} |a_j|^p + (sum_{j > k} |a_j|^2)^(p/2))
    p = Exponent(1.5)
    a = complex_gaussian(rng_for(SEED, 0), 5)
    c = [0.5, 0.25j, 0.0, 1.0, -0.75, 0.1, 0.3]
    got = peaks_local_predictions(a, c, p)
    for k, c_k in enumerate(c, start=1):
        head = float((np.abs(a[:k]) ** p.p).sum())
        tail = float((np.abs(a[k:]) ** 2).sum()) ** (p.p / 2.0) if k < len(a) else 0.0
        assert got[k - 1] == abs(c_k) ** p.p * (head + tail)


def test_cells():
    p, K, n_max = Exponent(4.0), 6, 8
    c = flat_cells_coefficients(K, p)
    window = cells_window(c, p, K, Grid.over(0, K + 1, -(K + 2)))
    grid = cells_grid(K, n_max)
    want = []
    for trial in range(20):
        a = complex_gaussian(rng_for(SEED, trial), n_max)
        computed = lp_norm_pth(cells_combination(window, a, grid), p)
        predicted = cells_predicted_mass(a, c, p)
        want.append((trial, computed, predicted, computed / predicted))
    _, rows = cells_suite(SEED, trials=20)
    assert [(r["trial"], r["computed"], r["predicted"], r["ratio"]) for r in rows] == want
