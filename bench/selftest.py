"""Self-tests of the benchmark's own checks.

    python3 bench/selftest.py

* the exact oracle flags the non-dyadic reproducer (sizes (1, 1, 1),
  t = 31/3, 62/5, 27/2, s = 0) and accepts a geometric selection;
* the self-time arithmetic is exact on nested spans.

It also prints what the program's own certificate says on the reproducer,
which is a false positive while `_common_denominator` takes the largest
denominator instead of the lcm.  Exits 1 if a self-test fails.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import oracle
import spans


def program_verdict() -> str:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from gaborlab.frames import BlockPlan, TranslateSelection, block_atoms, certify_selection
    from gaborlab.gabor import TimeFreqPoint
    from gaborlab.grids import Exponent

    plan = BlockPlan(Exponent(4.0), (1, 1, 1), require_condition=False)
    ts = (Fraction(31, 3), Fraction(62, 5), Fraction(27, 2))
    try:
        selection = TranslateSelection(tuple(TimeFreqPoint(t, 0) for t in ts))
        disjoint = certify_selection(selection, block_atoms(plan), plan.block_of_index())[0]
    except Exception as exc:  # a program that refuses non-dyadic input may raise anything
        return f"rejects the input: {type(exc).__name__}: {exc}"
    return f"disjoint={disjoint}" + (" (false positive)" if disjoint else "")


def main() -> int:
    oracle_failures, span_failures = oracle.selftest(), spans.selftest()
    print("oracle flags the reproducer and accepts a geometric selection:",
          "ok" if not oracle_failures else "FAILED")
    print("self-time arithmetic on nested spans:", "ok" if not span_failures else "FAILED")
    print("program certificate on the reproducer:", program_verdict())
    for failure in oracle_failures + span_failures:
        print(f"FAILED {failure}")
    return 1 if oracle_failures or span_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
