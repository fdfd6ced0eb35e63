"""Independent exact oracle for the frame certificates.

Re-checks a written frame JSON with plain `fractions.Fraction` comparisons,
without calling the certificate in `gaborlab.frames`:

* every difference set supp(h_k(i)) + t_j - t_i, i != j, is pairwise
  disjoint from every other one;
* none of them meets the base cell [0, 1).

The program sorts integer-scaled intervals; the oracle instead buckets the
exact intervals by the floor of their left end.  Every interval is at most
one unit long, so two intervals can meet only if their buckets are equal or
adjacent, and each such pair is compared exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Interval = Tuple[Fraction, Fraction]


def block_supports(blocks: int) -> List[Interval]:
    """Supports of the plan's block atoms: the first Haar indices on cell 0.

    The order is the frame's definition (`frames.block_atoms`): the father
    1_[0,1), then scale j = 0, 1, ... with positions 0 .. 2^j - 1.
    """
    out: List[Interval] = [(Fraction(0), Fraction(1))]
    scale = 0
    while len(out) < blocks:
        w = Fraction(1, 2**scale)
        out += [(i * w, (i + 1) * w) for i in range(2**scale)]
        scale += 1
    return out[:blocks]


def certify(sizes: Sequence[int], translates: Sequence[Fraction]) -> Tuple[bool, bool, str]:
    """Return (difference sets pairwise disjoint, all clear of [0, 1), detail)."""
    if len(translates) != sum(sizes):
        raise ValueError("translate count differs from the plan total")
    supports = block_supports(len(sizes))
    block_of = [k for k, n in enumerate(sizes) for _ in range(n)]
    buckets: Dict[int, List[Tuple[Fraction, Fraction]]] = defaultdict(list)
    clear = True
    for i, ti in enumerate(translates):
        lo_k, hi_k = supports[block_of[i]]
        width, lo_i = hi_k - lo_k, lo_k - ti
        for j, tj in enumerate(translates):
            if i == j:
                continue
            lo = tj + lo_i
            if -width < lo < 1:  # [lo, lo + width) meets [0, 1)
                clear = False
            buckets[math.floor(lo)].append((lo, width))
    for key, here in buckets.items():
        near = here + buckets.get(key + 1, [])
        for a, (alo, aw) in enumerate(here):
            for blo, bw in near[a + 1:]:
                if alo < blo + bw and blo < alo + aw:
                    return False, clear, f"[{alo}, {alo + aw}) meets [{blo}, {blo + bw})"
    return True, clear, "pairwise disjoint"


def certify_frame_json(frame: dict) -> Tuple[bool, bool, str]:
    """Run the oracle on a frame as written by `gaborlab build-frame --frame-out`."""
    translates = [Fraction(tn, td) for (tn, td), _s in frame["selection"]]
    return certify(frame["plan"]["sizes"], translates)


def selftest() -> List[str]:
    """Failures of the oracle on a known overlap and a known disjoint selection.

    The overlap is the reproducer of the integer-truncation false positive:
    sizes (1, 1, 1), t = 31/3, 62/5, 27/2, s = 0, where [11/10, 21/10) and
    [31/15, 46/15) meet.
    """
    failures = []
    ok, _clear, _ = certify((1, 1, 1), [Fraction(31, 3), Fraction(62, 5), Fraction(27, 2)])
    if ok:
        failures.append("oracle missed the overlap of the non-dyadic reproducer")
    ok, clear, detail = certify((1, 1, 1), [Fraction(4 * 5**n) for n in range(3)])
    if not (ok and clear):
        failures.append(f"oracle rejected a geometric selection: {detail}")
    return failures
