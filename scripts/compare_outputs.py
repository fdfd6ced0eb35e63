"""Compare the outputs of every benchmark command under two source trees.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N]

Runs every command of `bench/workloads.py` at the given seed, the set-up
builds of each workload included, and the GATE_SHAPES commands below (at the
recorded seed, but for build-frame, which takes none), each as a `gaborlab`
subprocess: once with PARENT_SRC and once with CHANGE_SRC on `PYTHONPATH`,
each side in its own directory under the same relative paths, so that echoed
paths match.  The input files that some shapes read (EDITED_FRAMES, hand
edits of a set-up frame, and GENERATED_INPUTS) are written on each side just
before the first command that reads them.  It compares the exit codes,
stdout (the printed report) and the JSON reports without `wall_time_s`,
stderr (with the side's absolute path replaced), the CSVs and the written
frame files byte for byte, prints every difference, and exits 1 if there is
one, else 0.  `bench/workloads.py` is
imported and never written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from gaborlab.cli import main; sys.exit(main())"
WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')
# suites runs at the recorded seed off the benchmark's shapes, where the
# recorded windows switch on or off: trial prefixes of the recorded runs (which
# keep the windows of lacunary, peaks and cells and drop the others'), more
# trials than recorded, and a peaks window family off the recorded alpha (at
# 0.3 its growth ratios do not rise, a config error; at 0.2 it runs)
GATE_SHAPES = [
    ("counterexample", "--family", "peaks", "--p", "1.5", "--trials", "5"),
    ("counterexample", "--family", "peaks", "--p", "1.5", "--trials", "5", "--alpha", "0.3"),
    ("counterexample", "--family", "peaks", "--p", "1.5", "--trials", "5", "--alpha", "0.2"),
    ("counterexample", "--family", "peaks", "--p", "1.5", "--trials", "250"),
    ("counterexample", "--family", "cells", "--p", "4", "--trials", "5"),
    ("counterexample", "--family", "cells", "--p", "4", "--trials", "250"),
    ("inequalities", "--suite", "lacunary", "--trials", "40"),
    ("inequalities", "--suite", "lacunary", "--trials", "120"),
    ("inequalities", "--suite", "squarefunc", "--trials", "8"),
    ("inequalities", "--suite", "type-cotype", "--trials", "8"),
    ("inequalities", "--suite", "rdf", "--trials", "20"),
    # no workload verifies a modulated frame: the generic one frame-build writes
    ("verify-frame", "--frame", "frame-build/build_p4_504_generic.frame.json",
     "--corpus", "50"),
    # no workload reaches a second Neumann iteration: near the rounding floor
    # some rows take two
    ("verify-frame", "--frame", "frame-verify/setup_frame_504.frame.json",
     "--corpus", "300", "--tol", "3e-16"),
    # no workload's corpus takes more than one chunk (grids.row_chunks): 5000
    # functions on the 4 span cells of the 504-point frame take two
    ("verify-frame", "--frame", "frame-verify/setup_frame_504.frame.json",
     "--corpus", "5000"),
    # no workload exits on a config error, whose path imports no numpy: its
    # exit code and stderr line
    ("inequalities", "--suite", "khintchine", "--trials", "0"),
    # the refusals that build-frame makes before it loads the frame code: a
    # plan that plan_from_sizes refuses (exit 3) and an --p that the
    # converter refuses (exit 2); the workloads refuse only plan_blocks' plan
    ("build-frame", "--p", "3", "--sizes", "1,1"),
    ("build-frame", "--p", "1"),
    # no workload breaks the growth rule |t| >= 4|t_prev| + 4, so none reaches
    # the n^2 enumeration certificate (frames._certify_by_enumeration): a
    # frame it certifies (exit 0) and one whose named pairs overlap (exit 3)
    ("verify-frame", "--frame", "gates/ratio4_504.frame.json", "--corpus", "50"),
    ("verify-frame", "--frame", "gates/overlap_504.frame.json", "--corpus", "50"),
    # no workload raises NoConvergence: a tolerance below the rounding floor
    ("verify-frame", "--frame", "frame-verify/setup_frame_504.frame.json",
     "--corpus", "50", "--tol", "1e-17"),
    # no workload builds K >= 5 blocks, whose unmodulated pieces on 8 span
    # cells are the first to sum 8 or more terms (grids.pairwise_sum's
    # accumulator loop)
    ("build-frame", "--p", "4", "--blocks", "5"),
    # one point at s = 32 makes the span grid 256 cells, so every unmodulated
    # piece beside it sums past 128 terms (pairwise_sum's split)
    ("build-frame", "--lambda-file", "gates/s32.lambda.json", "--p", "4",
     "--sizes", "110,110,110"),
    # 16 blocks: atoms up to scale 3, past what block_atoms enumerated cheaply
    ("build-frame", "--p", "100", "--sizes", ",".join(["240"] * 16)),
    # no workload reads --config: its flags with an underscore key and a
    # number, and a --trials on the command line that wins over the file's
    ("inequalities", "--config", "gates/rdf.config.json", "--trials", "3"),
    # output paths refused before any work (exit 2): a directory, and a file
    # in a missing folder; --out comes first, so it names the label
    ("build-frame", "--out", "gates", "--p", "3"),
    ("build-frame", "--out", "missing/report.json", "--p", "3"),
]
# frames that break the growth rule; select_translates always keeps it, so no
# --lambda-file yields one.  Each is frame-verify's 504-point frame with its
# last translate t_503 set from t_501 and t_502, given as Fractions
EDITED_SOURCE = "frame-verify/setup_frame_504.frame.json"
EDITED_FRAMES = {
    # 4|t_502| < 4|t_502| + 4, yet every difference set stays apart
    "gates/ratio4_504.frame.json": lambda t501, t502: 4 * t502,
    # t_503 - t_502 = t_502 - t_501: two difference sets coincide
    "gates/overlap_504.frame.json": lambda t501, t502: 2 * t502 - t501,
}
# the other inputs that some shapes read, as JSON: the 330 candidates
# t = 4 * 5^n, each at s = 0 but the 100th, at s = 32; and a --config file
GENERATED_INPUTS = {
    "gates/s32.lambda.json": [[[4 * 5**n, 1], [32 if n == 100 else 0, 1]] for n in range(330)],
    "gates/rdf.config.json": {"suite": "rdf", "grid_log2": -7, "span": 8, "trials": 50},
}

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def commands(side: Path, seed: int) -> list:
    """Every workload's set-up and pass commands, inputs written under side,
    then the GATE_SHAPES commands."""
    here = os.getcwd()
    os.chdir(side)
    try:
        out = []
        for name in workloads.COMMANDS:
            Path(name).mkdir()
            setup, passes = workloads.prepare(name, Path(name), seed)
            out += setup + passes
        Path("gates").mkdir()
        for argv in GATE_SHAPES:
            label = f"gate_{Path(argv[2]).name.split('.')[0]}_{argv[-1]}"
            report, csv = Path("gates") / f"{label}.json", Path("gates") / f"{label}.csv"
            if "--out" in argv:  # refused: report is never written
                out.append(workloads.Command(label, argv, report))
                continue
            if argv[0] == "build-frame":  # takes neither a seed nor a CSV
                out.append(workloads.Command(label, argv + ("--out", str(report)), report))
                continue
            argv += ("--seed", str(workloads.RECORDED_SEED), "--out", str(report),
                     "--csv", str(csv))
            out.append(workloads.Command(label, argv, report, csv))
        return out
    finally:
        os.chdir(here)


def write_inputs(side: Path, argv) -> None:
    """Write under side each input file that argv reads and that is not there
    yet: an EDITED_FRAMES file is EDITED_SOURCE with its last translate
    edited, a GENERATED_INPUTS file its JSON."""
    for path in (*EDITED_FRAMES, *GENERATED_INPUTS):
        if path not in argv or (side / path).exists():
            continue
        if path in GENERATED_INPUTS:
            (side / path).write_text(json.dumps(GENERATED_INPUTS[path]))
            continue
        frame = json.loads((side / EDITED_SOURCE).read_text())
        points = frame["selection"]
        t = EDITED_FRAMES[path](*(Fraction(*pt[0]) for pt in points[-3:-1]))
        points[-1] = [[t.numerator, t.denominator], points[-1][1]]
        (side / path).write_text(json.dumps(frame))


def run_side(src: Path, side: Path, seed: int) -> dict:
    """Exit code, stdout, stderr and output files of every command, by label."""
    side.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    results = {}
    # a refused output path is echoed as an absolute path, which names the side
    here = os.fsencode(side.resolve())
    for cmd in commands(side, seed):
        write_inputs(side, cmd.argv)
        done = subprocess.run([sys.executable, "-c", CLI_ENTRY, *cmd.argv], cwd=side,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        files = {}
        for path in cmd.outputs:
            data = (side / path).read_bytes() if (side / path).exists() else None
            files[str(path)] = WALL_TIME.sub(b"", data) if path == cmd.out and data else data
        stdout = WALL_TIME.sub(b"", done.stdout)
        results[cmd.label] = (done.returncode, stdout, done.stderr.replace(here, b"SIDE"), files)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_side(args.parent_src, Path(tmp) / "parent", args.seed)
        change = run_side(args.change_src, Path(tmp) / "change", args.seed)
    differences, files = [], 0
    for label, (code, out, err, outputs) in parent.items():
        code2, out2, err2, outputs2 = change[label]
        if code != code2:
            differences.append(f"{label}: exit code {code} -> {code2}")
        if out != out2:
            differences.append(f"{label}: stdout differs")
        if err != err2:
            differences.append(f"{label}: stderr differs")
        for path, data in outputs.items():
            files += 1
            if data != outputs2[path]:
                differences.append(f"{label}: {path} differs")
    for line in differences:
        print(line)
    print(f"seed {args.seed}: {len(parent)} commands, {files} output files, "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
