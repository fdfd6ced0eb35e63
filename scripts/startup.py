"""Time gaborlab processes from spawn to exit, with their peak resident set.

    python3 scripts/startup.py [SRC] [--spawns N] [--seed N]

Spawns each probe N times (default 9), the probes taken in turn so that a
drift of the machine's speed spreads over all of them, and prints for each
the median time from spawn to exit in ms and the median peak resident set
in MiB, from the `os.wait4` rusage of the child as `bench/run.py` reads it.
The probes are a bare interpreter, `import numpy`, `import numpy.random`,
`import gaborlab.cli`, and every pass command of `bench/workloads.py` at the
seed (default the recorded one), run through the benchmark's process entry,
`gaborlab.cli.main()`.  The differences between the first four rows give
the shares of a command's time that Python, numpy and gaborlab's import
take.  The package is imported from SRC, default this checkout's `src`.
Each workload's inputs and set-up frames are made once, untimed, in a
temporary directory, where every command runs.  `bench/workloads.py` is
imported and never written.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_ENTRY = "import sys; from gaborlab.cli import main; sys.exit(main())"
IMPORTS = {
    "interpreter": "pass",
    "import numpy": "import numpy",
    "import numpy.random": "import numpy.random",
    "import gaborlab.cli": "import gaborlab.cli",
}

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def spawn(argv: list, cwd: Path, env: dict) -> tuple:
    """(seconds from spawn to exit, peak RSS in MiB, exit code) of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def probes(seed: int) -> tuple:
    """(label -> argv of every probe, the set-up argvs to run before them),
    each workload's inputs written under the working directory."""
    out = {label: [sys.executable, "-c", code] for label, code in IMPORTS.items()}
    setup = []
    for name in workloads.COMMANDS:
        Path(name).mkdir()
        before, passes = workloads.prepare(name, Path(name), seed)
        setup += [[sys.executable, "-c", CLI_ENTRY, *cmd.argv] for cmd in before]
        out.update({cmd.label: [sys.executable, "-c", CLI_ENTRY, *cmd.argv] for cmd in passes})
    return out, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, nargs="?", default=ROOT / "src")
    parser.add_argument("--spawns", type=int, default=9)
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEED)
    args = parser.parse_args(argv)
    if args.spawns < 1:
        parser.error("--spawns must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            commands, setup = probes(args.seed)
            for command in setup:
                subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)
            runs = {label: [] for label in commands}
            for _ in range(args.spawns):
                for label, command in commands.items():
                    runs[label].append(spawn(command, Path(tmp), env))
        finally:
            os.chdir(here)
    print(f"{args.src}: median of {args.spawns} spawns, Python {sys.version.split()[0]}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'probe':<28} {'ms':>9} {'MiB':>8}  exit")
    for label, results in runs.items():
        seconds, rss, codes = zip(*results)
        print(f"{label:<28} {1e3 * statistics.median(seconds):9.1f} "
              f"{statistics.median(rss):8.2f}  {','.join(map(str, sorted(set(codes))))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
