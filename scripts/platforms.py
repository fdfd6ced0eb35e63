"""Rerun the tests that pin outputs bit for bit under other CPU numerics.

    python3 scripts/platforms.py [SRC]

Runs PINNED, the tests that compare outputs by bytes (the benchmark's
suites and frame commands at the recorded seed, their reports and CSVs, the
recorded calibration, the half sign-pattern enumeration against the full
one, and the keyed streams against numpy's one-stream path), the exact
references at p = 2 and 4, which allow an error bound that holds for any
order of summation, and the plain-Python p-mass of an unmodulated window
piece against numpy's, which allows numpy's power 1 ulp where it is not
libm's; these two should pass under every setting.  They run in one child
pytest process per setting: the environment as it is, then each of
SETTINGS.  A setting is a set of environment variables of the child only:
`OPENBLAS_NUM_THREADS`, `OPENBLAS_CORETYPE` (another OpenBLAS kernel, for a
build with DYNAMIC_ARCH) or `NPY_DISABLE_CPU_FEATURES` (numpy without some
of its SIMD dispatch targets; only targets this numpy dispatches on this
CPU are named).  The package is imported from SRC, default this checkout's
`src`; the tests are always this checkout's.  For each setting it prints
the count of tests run and each test that fails.  It exits 0 when every
child ran its tests, and 1 when one could not (a collection error or a
crash), whatever the tests found.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PINNED = [
    "tests/test_cli.py::TestRecordedSeedSuites",
    "tests/test_cli.py::TestRecordedSeedFrames",
    "tests/test_calibration.py",
    "tests/test_stochastic.py::TestHalfEnumeration",
    "tests/test_stochastic.py::TestExactReferences",
    "tests/test_frames.py::TestWindow::test_unmodulated_piece_mass_is_lp_norm_pth",
    "tests/test_rng.py",
]
OPENBLAS_SETTINGS = [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    *({"OPENBLAS_CORETYPE": core} for core in ("SkylakeX", "Sandybridge", "Nehalem", "Prescott")),
]


def numpy_settings() -> List[Dict[str, str]]:
    """numpy without AVX-512 (X86_V4 and the AVX512_* targets), then without
    AVX2 (X86_V3) as well, each naming only the targets dispatched here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    avx512 = [name for name in dispatched if name == "X86_V4" or name.startswith("AVX512")]
    avx2 = [name for name in dispatched if name == "X86_V3"]
    return [{"NPY_DISABLE_CPU_FEATURES": " ".join(names)}
            for names in (avx512, avx2 + avx512) if names]


SUMMARY = re.compile(r"(\d+) (passed|failed|error|errors)\b")


def run_pinned(src: Path, setting: Dict[str, str]) -> Tuple[int, List[str], bool]:
    """(tests run, the failing test ids, whether pytest ran them) of PINNED
    in a child with setting added to its environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **setting)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *PINNED],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines() or [""]
    failing = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    counts = {kind: int(n) for n, kind in SUMMARY.findall(lines[-1])}
    errors = any(kind.startswith("error") for kind in counts)
    return sum(counts.values()), failing, done.returncode in (0, 1) and not errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="directory that holds the gaborlab package")
    src = Path(parser.parse_args().src).resolve()
    every_child_ran = True
    print(f"package from {src}")
    for setting in [{}, *OPENBLAS_SETTINGS, *numpy_settings()]:
        name = " ".join(f"{k}={v!r}" for k, v in setting.items()) or "as is"
        ran, failing, ok = run_pinned(src, setting)
        every_child_ran &= ok
        print(f"{name}: {ran} run, {len(failing)} failing"
              + ("" if ok else " (pytest did not run every test)"))
        for test in failing:
            print(f"    {test}")
    return 0 if every_child_ran else 1


if __name__ == "__main__":
    sys.exit(main())
