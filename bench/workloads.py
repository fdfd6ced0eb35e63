"""Workloads of the gaborlab benchmark: seeded inputs and fixed command lists.

Every workload is a closed loop with one client: the commands of a pass run
one after another, each as its own `gaborlab` process, and the next starts
only when the previous one has exited.  All generated inputs (the generic
`--lambda-file` points and every command seed) derive from the benchmark's
`--seed`; the program receives only the generated files and flags.  At the
default seed, the recorded calibration seed, the suites' recorded windows
are asserted as well.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

RECORDED_SEED = 20260810

WHY = {
    "frame-build": (
        "Plan search, translate selection, the n^2 difference-interval certificate "
        "and window assembly do nearly all the work; memory grows with n^2."
    ),
    "frame-verify": (
        "The frames read path: loading and re-certifying a frame dominates the "
        "corpus-50 calls, the operator, Neumann and reconstruction loop the 2000 call."
    ),
    "suites": (
        "Seeded trial loops in grids, gabor, stochastic, fourier and basic_sequences "
        "do the work and frames is never called, so a certificate change moves nothing."
    ),
}

# 504-point plan shared by the explicit-size rungs and the frame-verify set-up
SIZES_504 = "72,144,288"
# the generic lambda file: |t| = 4*5^n with a seeded sign, s = k/16 in [-1/2, 1/2]
LAMBDA_POINTS = 504


@dataclass(frozen=True)
class Command:
    """One `gaborlab` invocation and what its correctness gate expects."""

    label: str
    argv: Tuple[str, ...]
    out: Path
    csv: Optional[Path] = None
    csv_rows: Optional[int] = None  # data rows the shape fixes; None: at least one
    frame_out: Optional[Path] = None
    expect_error: Optional[str] = None  # exit 3 with this GaborLabError on stderr

    @property
    def outputs(self) -> Tuple[Path, ...]:
        return tuple(p for p in (self.out, self.csv, self.frame_out) if p is not None)


def _build(work: Path, label: str, *flags: str) -> Command:
    out, frame_out = work / f"{label}.report.json", work / f"{label}.frame.json"
    argv = ("build-frame", *flags, "--out", str(out), "--frame-out", str(frame_out))
    return Command(label, argv, out, frame_out=frame_out)


def _with_csv(work: Path, label: str, argv: Tuple[str, ...], rows: Optional[int]) -> Command:
    out, csv = work / f"{label}.report.json", work / f"{label}.csv"
    return Command(label, argv + ("--out", str(out), "--csv", str(csv)), out, csv, rows)


def lambda_points(seed: int) -> list:
    """The generic candidate set, in `gaborlab.gabor.points_to_json` format."""
    rng = random.Random(f"lambda-file:{seed}")
    points = []
    for n in range(LAMBDA_POINTS):
        t = rng.choice((-1, 1)) * 4 * 5**n
        s = Fraction(rng.randint(-8, 8), 16)
        points.append([[t, 1], [s.numerator, s.denominator]])
    return points


def verify_seeds(seed: int) -> Tuple[int, int]:
    """The two corpus seeds of the 504-point verify calls: the run seed and a derived one."""
    return seed, random.Random(f"verify:{seed}").randrange(1, 2**31)


def frame_build(work: Path, seed: int) -> List[Command]:
    lam = work / "lambda.json"
    return [
        _build(work, "build_p5_K3", "--p", "5", "--blocks", "3"),
        _build(work, "build_p4_K3", "--p", "4", "--blocks", "3"),
        _build(work, "build_p4_504", "--p", "4", "--sizes", SIZES_504),
        _build(work, "build_p6_K4", "--p", "6", "--blocks", "4"),
        _build(work, "build_p4_K4", "--p", "4", "--blocks", "4"),
        _build(work, "build_p4_504_generic", "--p", "4", "--sizes", SIZES_504,
               "--lambda-file", str(lam)),
        Command("build_p2.05_K3_infeasible",
                ("build-frame", "--p", "2.05", "--blocks", "3",
                 "--out", str(work / "build_p2.05_K3_infeasible.report.json")),
                work / "build_p2.05_K3_infeasible.report.json",
                expect_error="InfeasiblePlan"),
    ]


def frame_verify_setup(work: Path) -> List[Command]:
    return [
        _build(work, "setup_frame_504", "--p", "4", "--sizes", SIZES_504),
        _build(work, "setup_frame_1020", "--p", "4", "--blocks", "4"),
    ]


def frame_verify(work: Path, seed: int) -> List[Command]:
    f504, f1020 = (str(c.frame_out) for c in frame_verify_setup(work))
    s1, s2 = verify_seeds(seed)

    def verify(label, frame, corpus, s):
        argv = ("verify-frame", "--frame", frame, "--corpus", str(corpus), "--seed", str(s))
        return _with_csv(work, label, argv, corpus)

    return [
        verify("verify_504_c50_a", f504, 50, s1),
        verify("verify_504_c50_b", f504, 50, s2),
        verify("verify_504_c2000", f504, 2000, s1),
        verify("verify_1020_c50", f1020, 50, s1),
    ]


def suites(work: Path, seed: int) -> List[Command]:
    s = str(seed)
    cmds = [
        _with_csv(work, "peaks", ("counterexample", "--family", "peaks", "--p", "1.5",
                                  "--trials", "200", "--seed", s), 200),
        _with_csv(work, "cells", ("counterexample", "--family", "cells", "--p", "4",
                                  "--trials", "200", "--seed", s), 200),
    ]
    for suite in ("khintchine", "squarefunc", "type-cotype", "lacunary", "rdf", "isometry"):
        cmds.append(_with_csv(work, suite, ("inequalities", "--suite", suite, "--seed", s), None))
    cmds.append(_with_csv(work, "rdf_g7_s8", ("inequalities", "--suite", "rdf", "--seed", s,
                                              "--grid-log2", "-7", "--span", "8"), None))
    return cmds


COMMANDS = {"frame-build": frame_build, "frame-verify": frame_verify, "suites": suites}
SETUP = {"frame-verify": frame_verify_setup}


def prepare(name: str, work: Path, seed: int) -> Tuple[List[Command], List[Command]]:
    """Write the workload's generated inputs; return (untimed set-up, pass) commands."""
    if name == "frame-build":
        (work / "lambda.json").write_text(json.dumps(lambda_points(seed)))
    setup = SETUP.get(name, lambda _work: [])(work)
    return setup, COMMANDS[name](work, seed)


def all_labels() -> List[str]:
    """Labels of every command of every workload, in workload order."""
    work = Path(".")
    return [c.label for name in COMMANDS for c in COMMANDS[name](work, RECORDED_SEED)]
