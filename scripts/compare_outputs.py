"""Compare the outputs of every benchmark command under two source trees.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N]

Runs every command of `bench/workloads.py`, the set-up builds of each
workload included, as a `gaborlab` subprocess: once with PARENT_SRC and once
with CHANGE_SRC on `PYTHONPATH`, each side in its own directory under the
same relative paths, so that echoed paths match.  It compares the exit codes,
stdout (the printed report) and the JSON reports without `wall_time_s`,
stderr, the CSVs and the written frame files byte for byte, prints every
difference, and exits 1 if there is one, else 0.  `bench/workloads.py` is
imported and never written.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from gaborlab.cli import main; sys.exit(main())"
WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def commands(side: Path, seed: int) -> list:
    """Every workload's set-up and pass commands, inputs written under side."""
    here = os.getcwd()
    os.chdir(side)
    try:
        out = []
        for name in workloads.COMMANDS:
            Path(name).mkdir()
            setup, passes = workloads.prepare(name, Path(name), seed)
            out += setup + passes
        return out
    finally:
        os.chdir(here)


def run_side(src: Path, side: Path, seed: int) -> dict:
    """Exit code, stdout, stderr and output files of every command, by label."""
    side.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    results = {}
    for cmd in commands(side, seed):
        done = subprocess.run([sys.executable, "-c", CLI_ENTRY, *cmd.argv], cwd=side,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        files = {}
        for path in cmd.outputs:
            data = (side / path).read_bytes() if (side / path).exists() else None
            files[str(path)] = WALL_TIME.sub(b"", data) if path == cmd.out and data else data
        stdout = WALL_TIME.sub(b"", done.stdout)
        results[cmd.label] = (done.returncode, stdout, done.stderr, files)
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
