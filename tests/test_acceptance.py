"""Acceptance criteria, one test per criterion, with per-criterion timing.

Each test prints a single PASS/FAIL line (run pytest with -s or look at the
captured output) and asserts every quantity at its stated tolerance.
"""

import json
import math
import time

import numpy as np
import pytest

from frame_oracles import error_pth_direct
from gaborlab.calibration import RECORDED_CONFIG
from gaborlab.cli import main as cli_main
from gaborlab.frames import build_frame, select_translates, spread_candidates
from gaborlab.grids import Exponent, SampledFunction, lp_norm, lp_norm_pth
from gaborlab.operators import frame_operator_rows, reconstruct_rows, span_corpus
from gaborlab.plans import plan_from_sizes
from gaborlab.suites import (
    cells_suite,
    isometry_suite,
    khintchine_suite,
    peaks_suite,
    rdf_suite,
    squarefunc_suite,
)

SEED = RECORDED_CONFIG["seed"]
P4 = Exponent(4.0)


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}) [{elapsed:.2f}s <= {budget}s]")
    assert passed, f"criterion {criterion} failed: {detail}"
    assert elapsed <= budget, f"criterion {criterion} exceeded {budget}s"


@pytest.fixture(scope="module")
def certified_frame():
    plan = plan_from_sizes(P4, (72, 144, 288))
    candidates = spread_candidates(plan.total, base=4, ratio=5)
    return build_frame(plan, select_translates(candidates, plan))


@pytest.fixture(scope="module")
def corpus(certified_frame):
    return span_corpus(certified_frame, 50, seed=SEED)


def test_criterion_1_frame_certificate(certified_frame, corpus):
    start = time.perf_counter()
    frame = certified_frame
    q_target = 3.0 * math.sqrt(7.0 / 288.0)
    checks = {
        "q_value": abs(frame.q - q_target) <= 1e-12,
        "q_below_0.47": frame.q < 0.47,
        "disjointness": frame.certificate["difference_sets_disjoint"] is True,
        "window_norm": abs(frame.certificate["window_norm_pth"] - 7.0 / 288.0) <= 1e-10,
    }
    images = frame_operator_rows(frame, corpus)
    functions = [SampledFunction(frame.span_grid, values) for values in corpus]
    # || S f - f ||_p: the error pieces live off the span of f, so the masses add
    worst = max(
        (lp_norm_pth(SampledFunction(frame.span_grid, main) - f, P4) + float(error)) ** 0.25
        / lp_norm(f, P4)
        for main, error, f in zip(images.main, images.error_pth, functions))
    checks["contraction"] = worst <= frame.q + 1e-9
    # one unreduced piece-by-piece evaluation cross-checks the reduced path
    direct = error_pth_direct(frame, functions[0])
    fast = images.error_pth[0]
    checks["direct_cross_check"] = abs(direct - fast) <= 1e-9 * max(direct, 1e-30)
    elapsed = time.perf_counter() - start
    report(
        "1 frame-certificate",
        all(checks.values()),
        f"q={frame.q:.4f}, max dev ratio={worst:.4f}, checks={checks}",
        elapsed,
        30.0,
    )


def test_criterion_2_reconstruction(certified_frame, corpus):
    start = time.perf_counter()
    frame = certified_frame
    budget_iters = math.ceil(math.log(1e-8) / math.log(frame.q)) + 1
    assert budget_iters == 26
    rec = reconstruct_rows(frame, corpus, 1e-8)
    worst_err, worst_iters, worst_residual = (
        rec.relative_error.max(), rec.iterations.max(), rec.synthesis_residual.max())
    passed = worst_err <= 1e-8 and worst_iters <= 26 and worst_residual <= frame.q + 1e-9
    elapsed = time.perf_counter() - start
    report(
        "2 reconstruction",
        passed,
        f"max rel err={worst_err:.2e}, max iters={worst_iters}, "
        f"synthesis residual={worst_residual:.4f} (reported, bounded by q)",
        elapsed,
        60.0,
    )


def test_criterion_3_khintchine():
    start = time.perf_counter()
    rep, _ = khintchine_suite(SEED, trials=100)
    elapsed = time.perf_counter() - start
    report(
        "3 khintchine-exactness",
        rep.passed,
        {k: f"{v:.6f}" for k, v in rep.metrics.items()},
        elapsed,
        10.0,
    )


def test_criterion_4_square_function_sandwich():
    start = time.perf_counter()
    rep, _ = squarefunc_suite(SEED, families=50)
    elapsed = time.perf_counter() - start
    report(
        "4 square-function-sandwich",
        rep.passed,
        {k: v for k, v in rep.assertions.items()},
        elapsed,
        60.0,
    )


def window_criterion(criterion, suite, keys):
    """Run a window-family suite at the recorded seed; every key must be asserted true."""
    start = time.perf_counter()
    rep, _ = suite(SEED)
    elapsed = time.perf_counter() - start
    missing = [k for k in keys if k not in rep.assertions]
    m = rep.metrics
    report(
        criterion,
        not missing and rep.passed,
        f"ratio=[{m['ratio_min']:.4f},{m['ratio_max']:.4f}], "
        f"assertions={rep.assertions}, missing={missing}",
        elapsed,
        60.0,
    )


def test_criterion_5_peaks_equivalence():
    # the exact interval-decomposition check runs inside the suite
    window_criterion(
        "5 peaks-equivalence", peaks_suite,
        ("growth_monotone", "ratio_window", "local_window"),
    )


def test_criterion_6_cells_equivalence():
    window_criterion(
        "6 cells-equivalence", cells_suite, ("ratio_window", "separated_translates")
    )


def test_criterion_7_fourier_tools():
    start = time.perf_counter()
    from fractions import Fraction

    from gaborlab.fourier import FrequencyInterval, partial_sum
    from gaborlab.grids import Grid, SampledFunction, modulate

    grid = Grid.over(0, 4, -6)
    tone = modulate(SampledFunction.indicator(0, 4, grid), Fraction(3, 4))
    passed_tone = (
        np.abs(partial_sum(tone, FrequencyInterval(0.5, 1.0)).values - tone.values).max()
        <= 1e-9
    )
    killed_tone = (
        np.abs(partial_sum(tone, FrequencyInterval(2.0, 3.0)).values).max() <= 1e-9
    )
    from gaborlab.rng import complex_gaussian, rng_for

    f = SampledFunction(grid, complex_gaussian(rng_for(SEED, 70), grid.count))
    band = FrequencyInterval(-5.0, 7.25)
    once = partial_sum(f, band)
    idem = np.abs(partial_sum(once, band).values - once.values).max() <= 1e-9
    inter = (
        np.abs(
            partial_sum(partial_sum(f, FrequencyInterval(-8, 4)), FrequencyInterval(-2, 10)).values
            - partial_sum(f, FrequencyInterval(-2, 4)).values
        ).max()
        <= 1e-9
    )
    rep, _ = rdf_suite(SEED, corpus=100)
    passed = (
        passed_tone and killed_tone and idem and inter and rep.passed
    )
    elapsed = time.perf_counter() - start
    report(
        "7 fourier-tools",
        passed,
        f"tone pass/kill={passed_tone}/{killed_tone}, idem={idem}, "
        f"intersection={inter}, plancherel+rdf={rep.assertions}",
        elapsed,
        30.0,
    )


def test_criterion_8_isometry_suite():
    start = time.perf_counter()
    rep, _ = isometry_suite(SEED, triples=1000)
    elapsed = time.perf_counter() - start
    report(
        "8 isometry-suite",
        rep.passed,
        {k: f"{v:.2e}" for k, v in rep.metrics.items()},
        elapsed,
        10.0,
    )


def test_criterion_9_determinism(tmp_path, capsys):
    start = time.perf_counter()
    frame_path = tmp_path / "frame.json"
    cli_main(
        ["build-frame", "--p", "4", "--sizes", "72,144,288",
         "--frame-out", str(frame_path)]
    )
    capsys.readouterr()
    commands = [
        ["inequalities", "--suite", "khintchine", "--trials", "20", "--seed", "3"],
        ["inequalities", "--suite", "lacunary", "--trials", "10", "--seed", "3"],
        ["inequalities", "--suite", "rdf", "--trials", "20", "--seed", "3"],
        ["counterexample", "--family", "peaks", "--trials", "5", "--seed", "3"],
        ["counterexample", "--family", "cells", "--trials", "5", "--seed", "3"],
        ["verify-frame", "--frame", str(frame_path), "--corpus", "5", "--seed", "3"],
    ]
    identical = True
    for i, cmd in enumerate(commands):
        blocks = []
        for rerun in range(2):
            out = tmp_path / f"det_{i}_{rerun}.json"
            cli_main(cmd + ["--out", str(out)])
            capsys.readouterr()
            payload = json.loads(out.read_text())
            payload.pop("wall_time_s")
            blocks.append(json.dumps(payload, sort_keys=True).encode())
        identical = identical and blocks[0] == blocks[1]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(
            "9 determinism",
            identical,
            f"{len(commands)} stochastic commands byte-identical on rerun",
            elapsed,
            60.0,
        )
