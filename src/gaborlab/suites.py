"""Verification suites shared by the command-line front door and the tests.

Each suite draws its randomness from counter-based streams keyed by an
explicit seed, computes named metrics, evaluates its pass criteria (hard
inequalities with constant 1 where available, recorded calibration windows
otherwise) and returns a Report plus per-trial rows for CSV output.

A suite runs as draw, kernel, reduce: it draws each trial's vectors from
that trial's own stream, hands them to the array kernels of stochastic,
fourier, grids and basic_sequences, which do the work shared by a trial's
exponents and bands once (and, for lacunary and isometry, evaluate chunks
of trials as (trials, cells) arrays), and folds the results into rows and
extremes in trial order.  Every value is the one the single-call functions
give for that trial, bit for bit.
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
from .fourier import FrequencyInterval, square_function_norms
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    embed,
    lp_ell2_norm,
    lp_norm,
    moduli_norms,
    time_freq_shift,
    time_freq_shift_rows,
)
from .reports import Report, Stopwatch
from .rng import complex_gaussian, rng_for
from .stochastic import (
    khintchine_ratios,
    lacunary_pnorms,
    rademacher_pnorms_exact,
    type_cotype_ratios,
)

EXACT_SIDE_TOL = 1e-12
WINDOW_SLACK = 1e-6  # absorbs cross-platform rounding in recorded windows
# cells per isometry chunk: 32 trials of the default 256 cells, 128 KiB per
# complex array, so memory grows with neither trials nor grid.  A chunk of
# several trials stays below the 16384 cells at which numpy evaluates the
# modulation product in place, and a grid of more than 4096 cells takes one
# trial per chunk, so each product takes the path of that trial's
# time_freq_shift, in place or not.
ISOMETRY_CELLS = 8192


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
    exps = [Exponent(p) for p in ps]
    with Stopwatch() as sw:
        for trial in range(trials):
            rng = rng_for(seed, trial)
            n = int(rng.integers(1, max_n + 1))
            a = complex_gaussian(rng, n)
            for p, r in zip(ps, khintchine_ratios(a, exps)):
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
    exps = [Exponent(p) for p in ps]
    with Stopwatch() as sw:
        for trial in range(families):
            rng = rng_for(seed, trial, 1)
            n = int(rng.integers(2, max_n + 1))
            fs = random_atoms(seed, trial, n, grid)
            means = rademacher_pnorms_exact(fs, exps)
            for p, exp, mean in zip(ps, exps, means):
                r = mean / lp_ell2_norm(fs, exp)
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
    exps_cotype = [Exponent(p) for p in ps_cotype]
    exps_type = [Exponent(p) for p in ps_type]
    cal = calibration.CALIBRATION["type_cotype"]
    with Stopwatch() as sw:
        for trial in range(families):
            rng = rng_for(seed, trial, 2)
            n = int(rng.integers(2, max_n + 1))
            fs = random_atoms(seed, trial, n, grid)
            cotype, type2 = type_cotype_ratios(fs, exps_cotype, exps_type)
            for kind, kps, ratios in (("cotype", ps_cotype, cotype), ("type", ps_type, type2)):
                for p, r in zip(kps, ratios):
                    stats.setdefault(f"{kind}_p{p}", []).append(r)
                    bound = cal[f"{kind}_p{p}"]
                    rows.append({"trial": trial, "seed": seed, "kind": kind,
                                 "n": n, "p": p, "ratio": r, "bound": bound,
                                 "pass": r <= bound * (1 + WINDOW_SLACK)})
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
        coeffs = [complex_gaussian(rng_for(seed, trial, 3), n_freqs) for trial in range(trials)]
        vals, twos = lacunary_pnorms(coeffs, freqs, [exp, Exponent(2.0)], step_log2=grid_log2)
        for trial, a, val, two in zip(range(trials), coeffs, vals, twos):
            l2 = float(np.linalg.norm(a))
            r = val / l2
            ratios.append(r)
            rows.append({"trial": trial, "seed": seed, "n": n_freqs, "p": p,
                         "ratio": r, "bound": cal_window["hi"],
                         "pass": cal_window["lo"] * (1 - WINDOW_SLACK)
                         <= r
                         <= cal_window["hi"] * (1 + WINDOW_SLACK),
                         # orthonormality: at p = 2 the ratio is 1 up to rounding
                         "ratio_p2": two / l2})
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
    two = Exponent(2.0)
    exps = [Exponent(p) for p in ps]
    with Stopwatch() as sw:
        for trial in range(corpus):
            f = SampledFunction(
                grid, complex_gaussian(rng_for(seed, trial, 4), grid.count)
            )
            sq2, *sqs = square_function_norms(f, intervals, [two, *exps])
            plancherel_dev = max(plancherel_dev, abs(sq2 - lp_norm(f, two)))
            for p, exp, sq in zip(ps, exps, sqs):
                r = sq / lp_norm(f, exp)
                stats[p].append(r)
                rows.append({"trial": trial, "seed": seed, "p": p, "ratio": r})
    cal = calibration.CALIBRATION["rdf"]
    recorded_shape = _is_recorded_run(seed, "rdf", corpus=corpus, ps=list(ps),
                                      bands=bands, grid_log2=grid_log2, span=span)
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
    nyq = 2 ** (-grid.step_log2 - 1)
    worst_norm, worst_mod = 0.0, 0.0
    rows = []
    per_chunk = max(1, ISOMETRY_CELLS // grid.count)
    with Stopwatch() as sw:
        for start in range(0, triples, per_chunk):
            chunk = range(start, min(start + per_chunk, triples))
            values, ts, ss = [], [], []
            for trial in chunk:
                rng = rng_for(seed, trial, 5)
                values.append(complex_gaussian(rng, grid.count))
                cells = int(rng.integers(-2 * grid.count, 2 * grid.count))
                ts.append(cells * grid.step_fraction)
                ss.append(Fraction(int(rng.integers(-nyq + 1, nyq)), 1))
            g = np.array(values)
            shifted = time_freq_shift_rows(g, grid, ts, ss)
            # translating g moves its grid origin and keeps its values, so the
            # translate's modulus is |g|
            g_abs, shifted_abs = np.abs(g), np.abs(shifted)
            mod_devs = np.abs(shifted_abs - g_abs).max(axis=1)
            norm_devs = np.array([
                [abs(n - b) / b for n, b in zip(moduli_norms(shifted_abs, grid.step, p),
                                                moduli_norms(g_abs, grid.step, p))]
                for p in ps
            ]).max(axis=0)
            for trial, mod_dev, norm_dev in zip(chunk, mod_devs, norm_devs):
                worst_mod = max(worst_mod, float(mod_dev))
                worst_norm = max(worst_norm, float(norm_dev))
                if trial < 50:
                    rows.append({"trial": trial, "worst_norm": worst_norm,
                                 "worst_mod": worst_mod})
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
            cal["local"], rep.extras["local_ratio_min"], rep.extras["local_ratio_max"]
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
