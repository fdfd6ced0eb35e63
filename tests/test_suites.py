"""The suites' array kernels against per-trial loops of single calls.

Each oracle below draws from the same per-trial streams as its suite and
evaluates every trial on its own: with the public one-function calls
(time_freq_shift, lp_norm, restrict, ...) and with one-exponent, one-row
calls of the kernels (khintchine_ratios(a, [p]), lacunary_pnorms([a], ...),
...).  The
suite's rows and metrics must equal the oracle's bit for bit, on the default
grids and on one of 16384 cells or more, where numpy evaluates a product of
256 KiB in place.  The last test pins which assertions each gated suite makes
at and around its recorded run.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.calibration import RECORDED_CONFIG
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
from gaborlab.fourier import square_function_norms
from gaborlab.gabor import GaborSystem, synthesize
from gaborlab.grids import (
    Exponent,
    Grid,
    SampledFunction,
    embed,
    lp_ell2_norm,
    lp_norm,
    lp_norm_pth,
    restrict,
    time_freq_shift,
)
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import (
    khintchine_ratios,
    lacunary_pnorms,
    rademacher_pnorms_exact,
    type_cotype_ratios,
)
from gaborlab.suites import (
    ATOM_SPAN,
    ATOMS_MAX_N,
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
        want += [(trial, n, p, khintchine_ratios(a, [Exponent(p)])[0]) for p in ps]
    _, rows = khintchine_suite(SEED, trials=20)
    assert [(r["trial"], r["n"], r["p"], r["ratio"]) for r in rows] == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, ATOMS_MAX_N), st.integers(0, 2**31), st.integers(-6, -1),
       st.integers(-2, 0), st.integers(3, 5))
def test_random_atoms_rows_are_single_atom_shifts(n, seed, step_log2, lo, hi):
    # the oracle redraws the window and each (t, s) from the same stream and
    # shifts the window one atom at a time
    grid = Grid.over(lo, hi, step_log2)
    got = random_atoms(rng_for(seed), n, grid)
    rng = rng_for(seed)
    cell = Grid(0, step_log2, 2**-step_log2)
    window = SampledFunction(cell, complex_gaussian(rng, cell.count))
    nyq = 2 ** (-step_log2 - 1)
    for row in got:
        t = int(rng.integers(0, ATOM_SPAN))
        s = Fraction(int(rng.integers(-nyq + 1, nyq)), 2)
        assert row.tobytes() == embed(time_freq_shift(window, t, s), grid).values.tobytes()


def test_squarefunc():
    ps = (1.5, 2.0, 3.0, 4.0)
    want = []
    for trial in range(8):
        n = int(rng_for(SEED, trial, 1).integers(2, 11))
        values = random_atoms(rng_for(SEED, trial), n, ATOM_GRID)
        for p in ps:
            exp = Exponent(p)
            mean = rademacher_pnorms_exact(values, ATOM_GRID.step, [exp])[0]
            want.append((trial, n, p, mean / lp_ell2_norm(values, ATOM_GRID.step, [exp])[0]))
    _, rows = squarefunc_suite(SEED, families=8)
    assert [(r["trial"], r["n"], r["p"], r["ratio"]) for r in rows] == want


def test_type_cotype():
    want = []
    for trial in range(8):
        n = int(rng_for(SEED, trial, 2).integers(2, 11))
        values = random_atoms(rng_for(SEED, trial), n, ATOM_GRID)
        step = ATOM_GRID.step
        want += [(trial, "cotype", n, p,
                  type_cotype_ratios(values, step, [Exponent(p)], [])[0][0])
                 for p in (1.5, 2.0)]
        want += [(trial, "type", n, p,
                  type_cotype_ratios(values, step, [], [Exponent(p)])[1][0])
                 for p in (2.0, 3.0, 4.0)]
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
        p4, p2 = (lacunary_pnorms([a], freqs, [Exponent(p)], step_log2=grid_log2)[0][0]
                  for p in (4.0, 2.0))
        want.append((trial, p4 / l2, p2 / l2))
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
        plancherel = max(plancherel, abs(square_function_norms(f, intervals, [two])[0]
                                         - lp_norm(f, two)))
        for p in (3.0, 4.0):
            exp = Exponent(p)
            sq = square_function_norms(f, intervals, [exp])[0]
            want.append((trial, p, sq / lp_norm(f, exp)))
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
    window = cells_window(c, K, Grid.over(0, K + 1, -(K + 2)))
    grid = cells_grid(K, n_max)
    want = []
    for trial in range(20):
        a = complex_gaussian(rng_for(SEED, trial), n_max)
        computed = lp_norm_pth(cells_combination(window, a, grid), p)
        predicted = cells_predicted_mass(a, c, p)
        want.append((trial, computed, predicted, computed / predicted))
    _, rows = cells_suite(SEED, trials=20)
    assert [(r["trial"], r["computed"], r["predicted"], r["ratio"]) for r in rows] == want


SIDES = ["lower_side_one_p2.0", "lower_side_one_p3.0", "lower_side_one_p4.0",
         "upper_side_one_p1.5", "upper_side_one_p2.0"]
# suite, trial counts of (the recorded run, a prefix of it, more than it),
# the assertions made everywhere, the recorded windows, and at which of the
# four shapes (recorded, prefix, more, another seed) the windows are asserted
GATED = {
    "squarefunc": (squarefunc_suite, (50, 8, 60), SIDES,
                   ["lower_calibrated_p1.5", "lower_calibrated_p2.0",
                    "upper_calibrated_p2.0", "upper_calibrated_p3.0",
                    "upper_calibrated_p4.0"], (True, False, False, False)),
    "type_cotype": (type_cotype_suite, (50, 8, 60), [],
                    ["cotype_p1.5_within", "cotype_p2.0_within", "type_p2.0_within",
                     "type_p3.0_within", "type_p4.0_within"],
                    (True, False, False, False)),
    "lacunary": (lacunary_suite, (100, 40, 120), ["p2_orthonormal"], ["window"],
                 (True, True, False, False)),
    "rdf": (rdf_suite, (100, 20, 120), ["plancherel_partition"],
            ["c_within_1pct_p3.0", "c_within_1pct_p4.0"], (True, False, False, False)),
    "peaks": (peaks_suite, (200, 50, 250), ["growth_monotone"],
              ["local_window", "ratio_window"], (True, True, False, False)),
    "cells": (cells_suite, (200, 50, 250), ["separated_translates"],
              ["ratio_window"], (True, True, False, False)),
}


SHAPES = ["recorded", "prefix", "more", "other_seed"]


@pytest.mark.parametrize("shape", range(4), ids=SHAPES)
@pytest.mark.parametrize("name", list(GATED))
def test_gated_assertions(name, shape):
    suite, (recorded, prefix, more), always, windows, gated = GATED[name]
    seed = SEED if SHAPES[shape] == "other_seed" else RECORDED_CONFIG["seed"]
    report, _ = suite(seed, (recorded, prefix, more, recorded)[shape])
    assert report.assertions == dict.fromkeys(always + (windows if gated[shape] else []), True)


# one keyword argument of a recorded run other than its trials, changed
OFF_RECORD = [("rdf", "grid_log2", -5), ("rdf", "span", 4), ("peaks", "p", 1.6),
              ("peaks", "J", 7), ("peaks", "K", 9), ("peaks", "alpha", 0.2),
              ("cells", "p", 3.0), ("cells", "K", 5), ("cells", "n_max", 7)]


@pytest.mark.parametrize("name,key,value", OFF_RECORD,
                         ids=[f"{name}-{key}" for name, key, _ in OFF_RECORD])
def test_other_config_drops_the_windows(name, key, value):
    """At the recorded seed and trials, a change to any other key of the
    recorded run drops the recorded windows and keeps the other assertions."""
    suite, _, always, _, _ = GATED[name]
    report, _ = suite(RECORDED_CONFIG["seed"], **{**RECORDED_CONFIG[name], key: value})
    assert report.config[key] == value
    assert sorted(report.assertions) == sorted(always)
