"""Verification suites shared by the command-line front door and the tests.

Each suite draws its randomness from counter-based streams keyed by an
explicit seed, computes named metrics, evaluates its pass criteria (hard
inequalities with constant 1 where available, recorded calibration windows
otherwise) and returns a Report plus per-trial rows for CSV output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import calibration
from .basic_sequences import (
    WeightSequence,
    flat_cells_coefficients,
    growth_threshold_scan,
    separated_translates_norm,
    verify_cells,
    verify_peaks,
    weight_growth_ratios,
)
from .fourier import FrequencyInterval, square_function_norm
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    embed,
    lp_ell2_norm,
    lp_norm,
    time_freq_shift,
)
from .reports import Report, Stopwatch
from .rng import complex_gaussian, rng_for
from .stochastic import (
    cotype2_ratio,
    khintchine_ratio,
    lacunary_pnorm,
    rademacher_pnorm_exact,
    type2_ratio,
)

EXACT_SIDE_TOL = 1e-12
WINDOW_SLACK = 1e-6  # absorbs cross-platform rounding in recorded windows


def _is_recorded_run(seed: int, name: str, **shape) -> bool:
    """Calibrated regression assertions apply only to the recorded run.

    Hard inequalities with constant 1 hold for every seed and are always
    asserted; the recorded windows are properties of one fixed seeded corpus,
    so other corpora report their observed constants without being judged
    against another corpus's extremes.
    """
    rec = calibration.RECORDED_CONFIG
    return seed == rec["seed"] and all(
        rec[name].get(key) == val for key, val in shape.items()
    )


def _window_contains(recorded: Sequence[float], lo: float, hi: float) -> bool:
    rlo, rhi = recorded
    return lo >= rlo * (1 - WINDOW_SLACK) and hi <= rhi * (1 + WINDOW_SLACK)


def random_atoms(
    seed: int, trial: int, n: int, grid: Grid, span_units: int = 3
) -> List[SampledFunction]:
    """n random Gabor atoms: time-frequency shifts of a random unit-cell window."""
    rng = rng_for(seed, trial)
    cell = Grid(0, grid.step_log2, 2 ** (-grid.step_log2))
    window = SampledFunction(cell, complex_gaussian(rng, cell.count))
    nyq = 2 ** (-grid.step_log2 - 1)
    out = []
    for _ in range(n):
        t = Fraction(int(rng.integers(0, span_units)))
        s = Fraction(int(rng.integers(-nyq + 1, nyq)), 2)
        out.append(embed(time_freq_shift(window, t, s), grid))
    return out


def khintchine_suite(
    seed: int,
    trials: int = 100,
    ps: Sequence[float] = (1.5, 2.0, 3.0, 4.0),
    max_n: int = 12,
) -> Tuple[Report, List[dict]]:
    """Exact-enumeration Khintchine ratios sit on the correct side of 1."""
    rows = []
    stats: Dict[float, List[float]] = {p: [] for p in ps}
    with Stopwatch() as sw:
        for trial in range(trials):
            rng = rng_for(seed, trial)
            n = int(rng.integers(1, max_n + 1))
            a = complex_gaussian(rng, n)
            for p in ps:
                r = khintchine_ratio(a, Exponent(p))
                stats[p].append(r)
                ok = (p < 2.0 or r >= 1.0 - EXACT_SIDE_TOL) and (
                    p > 2.0 or r <= 1.0 + EXACT_SIDE_TOL
                )
                rows.append(
                    {"trial": trial, "seed": seed, "n": n, "p": p, "ratio": r,
                     "bound": 1.0, "pass": ok}
                )
    metrics, assertions = {}, {}
    for p in ps:
        lo, hi = min(stats[p]), max(stats[p])
        metrics[f"ratio_min_p{p}"] = lo
        metrics[f"ratio_max_p{p}"] = hi
        if p >= 2.0:
            assertions[f"lower_side_one_p{p}"] = lo >= 1.0 - EXACT_SIDE_TOL
        if p <= 2.0:
            assertions[f"upper_side_one_p{p}"] = hi <= 1.0 + EXACT_SIDE_TOL
    report = Report(
        "inequalities:khintchine",
        {"seed": seed, "trials": trials, "ps": list(ps), "max_n": max_n},
        metrics,
        assertions,
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def squarefunc_suite(
    seed: int,
    families: int = 50,
    ps: Sequence[float] = (1.5, 2.0, 3.0, 4.0),
    max_n: int = 10,
) -> Tuple[Report, List[dict]]:
    """Exact Rademacher means against the square function, both sandwich sides."""
    grid = Grid.over(0, 4, -5)
    rows = []
    stats: Dict[float, List[float]] = {p: [] for p in ps}
    with Stopwatch() as sw:
        for trial in range(families):
            rng = rng_for(seed, trial, 1)
            n = int(rng.integers(2, max_n + 1))
            fs = random_atoms(seed, trial, n, grid)
            for p in ps:
                exp = Exponent(p)
                sf = lp_ell2_norm(fs, exp)
                mean = rademacher_pnorm_exact(fs, exp)
                r = mean / sf
                stats[p].append(r)
                bound = calibration.CALIBRATION["squarefunc"].get(str(p), 1.0)
                ok = (p < 2.0 or r >= 1.0 - EXACT_SIDE_TOL) and (
                    p > 2.0 or r <= 1.0 + EXACT_SIDE_TOL
                )
                rows.append(
                    {"trial": trial, "seed": seed, "n": n, "p": p, "ratio": r,
                     "bound": bound, "pass": ok}
                )
    metrics, assertions = {}, {}
    cal = calibration.CALIBRATION["squarefunc"]
    recorded = _is_recorded_run(seed, "squarefunc", families=families, max_n=max_n)
    for p in ps:
        lo, hi = min(stats[p]), max(stats[p])
        metrics[f"ratio_min_p{p}"] = lo
        metrics[f"ratio_max_p{p}"] = hi
        if p >= 2.0:
            assertions[f"lower_side_one_p{p}"] = lo >= 1.0 - EXACT_SIDE_TOL
            if recorded:
                assertions[f"upper_calibrated_p{p}"] = hi <= cal[str(p)] * (
                    1 + WINDOW_SLACK
                )
        if p <= 2.0:
            assertions[f"upper_side_one_p{p}"] = hi <= 1.0 + EXACT_SIDE_TOL
            if recorded:
                assertions[f"lower_calibrated_p{p}"] = lo >= cal[str(p) + "_lo"] * (
                    1 - WINDOW_SLACK
                )
    report = Report(
        "inequalities:squarefunc",
        {"seed": seed, "families": families, "ps": list(ps), "max_n": max_n},
        metrics,
        assertions,
        {"squarefunc": cal},
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def type_cotype_suite(
    seed: int,
    families: int = 50,
    ps_cotype: Sequence[float] = (1.5, 2.0),
    ps_type: Sequence[float] = (2.0, 3.0, 4.0),
    max_n: int = 10,
) -> Tuple[Report, List[dict]]:
    """Cotype-2 and type-2 ratios stay within the recorded corpus constants."""
    grid = Grid.over(0, 4, -5)
    rows = []
    stats: Dict[str, List[float]] = {}
    with Stopwatch() as sw:
        for trial in range(families):
            rng = rng_for(seed, trial, 2)
            n = int(rng.integers(2, max_n + 1))
            fs = random_atoms(seed, trial, n, grid)
            cal = calibration.CALIBRATION["type_cotype"]
            for p in ps_cotype:
                r = cotype2_ratio(fs, Exponent(p))
                stats.setdefault(f"cotype_p{p}", []).append(r)
                bound = cal[f"cotype_p{p}"]
                rows.append({"trial": trial, "seed": seed, "kind": "cotype",
                             "n": n, "p": p, "ratio": r, "bound": bound,
                             "pass": r <= bound * (1 + WINDOW_SLACK)})
            for p in ps_type:
                r = type2_ratio(fs, Exponent(p))
                stats.setdefault(f"type_p{p}", []).append(r)
                bound = cal[f"type_p{p}"]
                rows.append({"trial": trial, "seed": seed, "kind": "type",
                             "n": n, "p": p, "ratio": r, "bound": bound,
                             "pass": r <= bound * (1 + WINDOW_SLACK)})
    cal = calibration.CALIBRATION["type_cotype"]
    metrics, assertions = {}, {}
    recorded = _is_recorded_run(seed, "type_cotype", families=families)
    for key, vals in stats.items():
        metrics[f"{key}_max"] = max(vals)
        if recorded:
            assertions[f"{key}_within"] = max(vals) <= cal[key] * (1 + WINDOW_SLACK)
    report = Report(
        "inequalities:type_cotype",
        {"seed": seed, "families": families},
        metrics,
        assertions,
        {"type_cotype": cal},
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def lacunary_suite(
    seed: int,
    trials: int = 100,
    p: float = 4.0,
    n_freqs: int = 9,
    grid_log2: int = -10,
) -> Tuple[Report, List[dict]]:
    """Lacunary exponential sums behave like sign sums: l2-comparable norms."""
    freqs = [2**j for j in range(n_freqs)]  # 1, 2, 4, ..., 256
    exp = Exponent(p)
    cal_window = calibration.CALIBRATION["lacunary"][f"p{p}"]
    rows, ratios = [], []
    with Stopwatch() as sw:
        for trial in range(trials):
            a = complex_gaussian(rng_for(seed, trial, 3), n_freqs)
            val = lacunary_pnorm(a, freqs, exp, step_log2=grid_log2)
            r = val / float(np.linalg.norm(a))
            ratios.append(r)
            rows.append({"trial": trial, "seed": seed, "n": n_freqs, "p": p,
                         "ratio": r, "bound": cal_window["hi"],
                         "pass": cal_window["lo"] * (1 - WINDOW_SLACK)
                         <= r
                         <= cal_window["hi"] * (1 + WINDOW_SLACK)})
            # orthonormality: at p = 2 the ratio is 1 up to rounding
            two = lacunary_pnorm(a, freqs, Exponent(2.0), step_log2=grid_log2) / float(
                np.linalg.norm(a)
            )
            rows[-1]["ratio_p2"] = two
    lo, hi = min(ratios), max(ratios)
    p2_dev = max(abs(row["ratio_p2"] - 1.0) for row in rows)
    metrics = {"ratio_min": lo, "ratio_max": hi, "p2_deviation": p2_dev}
    assertions = {"p2_orthonormal": p2_dev <= 1e-10}
    if _is_recorded_run(seed, "lacunary", p=p, n_freqs=n_freqs) and trials <= (
        calibration.RECORDED_CONFIG["lacunary"]["trials"]
    ):
        # prefix subsets of the recorded trial stream stay inside the window
        assertions["window"] = _window_contains(
            (cal_window["lo"], cal_window["hi"]), lo, hi
        )
    report = Report(
        "inequalities:lacunary",
        {"seed": seed, "trials": trials, "p": p, "n_freqs": n_freqs,
         "grid_log2": grid_log2},
        metrics,
        assertions,
        {"lacunary": cal_window},
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def _band_partition(grid: Grid, bands: int) -> List[FrequencyInterval]:
    span = grid.count * grid.step
    nyq = grid.count / (2 * span)
    width = 2 * nyq / bands
    return [
        FrequencyInterval(-nyq + i * width, -nyq + (i + 1) * width)
        for i in range(bands)
    ]


def rdf_suite(
    seed: int,
    corpus: int = 100,
    ps: Sequence[float] = (3.0, 4.0),
    bands: int = 8,
    grid_log2: int = -6,
    span: int = 8,
) -> Tuple[Report, List[dict]]:
    """Band square-function norms against ||f||_p, with exact p = 2 identities."""
    grid = Grid.over(0, span, grid_log2)
    intervals = _band_partition(grid, bands)
    rows, stats = [], {p: [] for p in ps}
    plancherel_dev = 0.0
    with Stopwatch() as sw:
        for trial in range(corpus):
            f = SampledFunction(
                grid, complex_gaussian(rng_for(seed, trial, 4), grid.count)
            )
            two = Exponent(2.0)
            sq2 = square_function_norm(f, intervals, two)
            plancherel_dev = max(plancherel_dev, abs(sq2 - lp_norm(f, two)))
            for p in ps:
                exp = Exponent(p)
                r = square_function_norm(f, intervals, exp) / lp_norm(f, exp)
                stats[p].append(r)
                rows.append({"trial": trial, "seed": seed, "p": p, "ratio": r})
    cal = calibration.CALIBRATION["rdf"]
    rec = calibration.RECORDED_CONFIG["rdf"]
    recorded_shape = (
        _is_recorded_run(seed, "rdf", corpus=corpus, bands=bands)
        and list(ps) == rec["ps"]
        and grid_log2 == -6
        and span == 8
    )
    metrics = {"plancherel_deviation": plancherel_dev}
    assertions = {"plancherel_partition": plancherel_dev <= 1e-10}
    for p in ps:
        c_obs = max(stats[p])
        metrics[f"c_observed_p{p}"] = c_obs
        if recorded_shape:
            # the recorded run must reproduce its constant within 1 percent
            assertions[f"c_within_1pct_p{p}"] = (
                abs(c_obs - cal[f"p{p}"]) <= 0.01 * cal[f"p{p}"]
            )
    report = Report(
        "inequalities:rdf",
        {"seed": seed, "corpus": corpus, "ps": list(ps), "bands": bands,
         "grid_log2": grid_log2, "span": span},
        metrics,
        assertions,
        {"rdf": cal},
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def isometry_suite(
    seed: int, triples: int = 1000, grid_log2: int = -6, span: int = 4
) -> Tuple[Report, List[dict]]:
    """Translation/modulation norm preservation and s-independence of the modulus."""
    grid = Grid.over(0, span, grid_log2)
    ps = [Exponent(x) for x in (1.5, 2.0, 3.0, 4.0)]
    worst_norm, worst_mod = 0.0, 0.0
    rows = []
    with Stopwatch() as sw:
        for trial in range(triples):
            rng = rng_for(seed, trial, 5)
            g = SampledFunction(grid, complex_gaussian(rng, grid.count))
            t = int(rng.integers(-2 * grid.count, 2 * grid.count)) * grid.step_fraction
            nyq = 2 ** (-grid.step_log2 - 1)
            s = Fraction(int(rng.integers(-nyq + 1, nyq)), 1)
            shifted = time_freq_shift(g, t, s)
            tr_only = np.abs(
                time_freq_shift(g, t, Fraction(0)).values
            )
            worst_mod = max(worst_mod, float(np.abs(np.abs(shifted.values) - tr_only).max()))
            for p in ps:
                base = lp_norm(g, p)
                dev = abs(lp_norm(shifted, p) - base) / base
                worst_norm = max(worst_norm, dev)
            if trial < 50:
                rows.append({"trial": trial, "worst_norm": worst_norm, "worst_mod": worst_mod})
    metrics = {"max_norm_deviation": worst_norm, "max_modulus_deviation": worst_mod}
    assertions = {
        "isometry": worst_norm <= 1e-12,
        "modulus_independent_of_s": worst_mod <= 1e-12,
    }
    report = Report(
        "isometry",
        {"seed": seed, "triples": triples, "grid_log2": grid_log2, "span": span},
        metrics,
        assertions,
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def peaks_suite(
    seed: int,
    trials: int = 200,
    p: float = 1.5,
    J: int = 8,
    K: int = 8,
    alpha: float = 0.1,
) -> Tuple[Report, List[dict]]:
    """Peaks window family (1 < p < 2): synthesized against predicted norms."""
    exp = Exponent(p)
    cal = calibration.CALIBRATION["peaks"]
    with Stopwatch() as sw:
        weights = WeightSequence.polynomial(alpha, exp, length=K)
        rep, rows = verify_peaks(weights, exp, J, K, trials, seed)
        growth = weight_growth_ratios(weights, exp, 64)
    metrics = {
        **rep.to_json(),
        "growth_first": float(growth[0]),
        "growth_last": float(growth[-1]),
    }
    assertions = {"growth_monotone": bool(np.all(np.diff(growth) > 0))}
    if _is_recorded_run(seed, "peaks", p=p, J=J, K=K, alpha=alpha) and trials <= (
        calibration.RECORDED_CONFIG["peaks"]["trials"]
    ):
        assertions["ratio_window"] = _window_contains(
            cal["ratio"], rep.ratio_min, rep.ratio_max
        )
        assertions["local_window"] = _window_contains(
            cal["local"], rep.local_ratio_min, rep.local_ratio_max
        )
    report = Report(
        "counterexample:peaks",
        {"seed": seed, "trials": trials, "p": p, "J": J, "K": K, "alpha": alpha},
        metrics,
        assertions,
        {"peaks": cal},
    )
    report.wall_time_s = sw.elapsed
    return report, rows


def cells_suite(
    seed: int,
    trials: int = 200,
    p: float = 4.0,
    K: int = 6,
    n_max: int = 8,
) -> Tuple[Report, List[dict]]:
    """Cells window family (p > 2): translate combinations against predicted mass."""
    exp = Exponent(p)
    cal = calibration.CALIBRATION["cells"]
    with Stopwatch() as sw:
        c = flat_cells_coefficients(K, exp)
        rep, rows = verify_cells(c, exp, K, n_max, trials, seed)
        threshold = growth_threshold_scan(c, exp)
        sep_norm = separated_translates_norm(c, exp, K, n=8, separation=K + 1)
    bound = 2.0 * 8 ** (1.0 / p)
    metrics = {
        **rep.to_json(),
        "growth_threshold_n": threshold,
        "separated_norm": sep_norm,
        "separated_bound": bound,
    }
    assertions = {"separated_translates": sep_norm < bound}
    if _is_recorded_run(seed, "cells", p=p, K=K, n_max=n_max) and trials <= (
        calibration.RECORDED_CONFIG["cells"]["trials"]
    ):
        assertions["ratio_window"] = _window_contains(
            cal["ratio"], rep.ratio_min, rep.ratio_max
        )
    report = Report(
        "counterexample:cells",
        {"seed": seed, "trials": trials, "p": p, "K": K, "n_max": n_max},
        metrics,
        assertions,
        {"cells": cal},
    )
    report.wall_time_s = sw.elapsed
    return report, rows
