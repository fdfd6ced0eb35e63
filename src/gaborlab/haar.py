"""The Haar system on R, normalized in L^p, with biorthogonal functionals.

Each base interval [n, n+1] carries a father function (scale -1) plus the
dyadic Haar functions at scales j >= 0.  An atom of scale j takes the values
+-2^(j/p) on the two halves of its support, which makes ||h||_p = 1 exactly;
the biorthogonal partner h* has the same shape normalized in the conjugate
exponent, so <h, h*> = 1 and distinct atoms pair to zero.

layout gives an atom normalized in any L^r as its cell slices and amplitude:
haar_function samples it in L^p, and at r = p' it is the dual atom, which a
frame lays out once to apply every functional to many rows without
resampling atoms.  Only haar_function makes an array.  haar_indices is the
enumeration of the whole system up to a scale; frames.block_atoms makes its
first K entries on cell 0 directly, and the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import GridTooCoarse, SupportOutOfRange
from .grids import Grid, SampledFunction
from .plans import Exponent, _Frozen


class HaarIndex(_Frozen):
    """Index (cell, scale, position): scale -1 is the father 1_[n, n+1]."""

    _compared = ("cell", "scale", "position")

    def __init__(self, cell: int, scale: int = -1, position: int = 0):
        vars(self).update(cell=cell, scale=scale, position=position)
        if scale < -1:
            raise ValueError("scale must be >= -1")
        if scale == -1 and position != 0:
            raise ValueError("father function has position 0")
        if scale >= 0 and not (0 <= position < 2**scale):
            raise ValueError(f"position {position} outside [0, 2^{scale})")

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        if self.scale == -1:
            return Fraction(self.cell), Fraction(self.cell + 1)
        w = Fraction(1, 2**self.scale)
        lo = self.cell + self.position * w
        return lo, lo + w


def haar_indices(cells: Iterable[int], max_scale: int) -> List[HaarIndex]:
    """Fixed enumeration: cells interleaved by |n|, then (scale, position)."""
    ordered = sorted(set(cells), key=lambda n: (abs(n), n < 0))
    out: List[HaarIndex] = []
    for n in ordered:
        out.append(HaarIndex(n, -1, 0))
        for j in range(0, max_scale + 1):
            for i in range(2**j):
                out.append(HaarIndex(n, j, i))
    return out


def layout(idx: HaarIndex, r: float, grid: Grid) -> Tuple[int, int, int, float]:
    """The atom idx normalized in L^r on grid as (i, mid, j, amp): amp on the
    cells [i, mid) and -amp on [mid, j), amp = 2^(scale / r); the father has
    mid = j and amp = 1."""
    if grid.step_log2 > min(-(idx.scale + 1), 0):  # half-support width 2^-(j+1)
        raise GridTooCoarse(
            f"step 2^{grid.step_log2} cannot resolve scale {idx.scale}"
        )
    lo, hi = idx.support
    try:
        i = grid.index_of(lo)
        j = grid.index_of(hi)
    except Exception as exc:
        raise SupportOutOfRange(str(exc)) from exc
    if not (0 <= i < j <= grid.count):
        raise SupportOutOfRange(f"support [{lo}, {hi}) outside grid span")
    if idx.scale == -1:
        return i, j, j, 1.0
    return i, (i + j) // 2, j, 2.0 ** (idx.scale / r)


def haar_function(idx: HaarIndex, p: Exponent, grid: Grid) -> SampledFunction:
    """The L^p-normalized Haar atom as a step function on the grid."""
    i, mid, j, amp = layout(idx, p.p, grid)
    f = SampledFunction.zero(grid)
    f.values[i:mid] = amp
    f.values[mid:j] = -amp
    return f

