"""The Haar system on R, normalized in L^p, with biorthogonal functionals.

Each base interval [n, n+1] carries a father function (scale -1) plus the
dyadic Haar functions at scales j >= 0.  An atom of scale j takes the values
+-2^(j/p) on the two halves of its support, which makes ||h||_p = 1 exactly;
the biorthogonal partner h* has the same shape normalized in the conjugate
exponent, so <h, h*> = 1 and distinct atoms pair to zero.

functional_layout gives a dual atom as its cell slices once, so a frame can
apply every functional to many rows without resampling atoms.  The sign-flip
constant K_p, unconditionality_bound, is defined in plans beside the block
plans that read it, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np

from .errors import GridTooCoarse, SupportOutOfRange
from .grids import Grid, SampledFunction
from .plans import Exponent, unconditionality_bound  # noqa: F401  (re-exported)


@dataclass(frozen=True, order=True)
class HaarIndex:
    """Index (cell, scale, position): scale -1 is the father 1_[n, n+1]."""

    cell: int
    scale: int = -1
    position: int = 0

    def __post_init__(self):
        if self.scale < -1:
            raise ValueError("scale must be >= -1")
        if self.scale == -1 and self.position != 0:
            raise ValueError("father function has position 0")
        if self.scale >= 0 and not (0 <= self.position < 2**self.scale):
            raise ValueError(
                f"position {self.position} outside [0, 2^{self.scale})"
            )

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


def _check_resolution(idx: HaarIndex, grid: Grid) -> None:
    needed = -(idx.scale + 1)  # half-support width 2^-(j+1)
    if grid.step_log2 > min(needed, 0):
        raise GridTooCoarse(
            f"step 2^{grid.step_log2} cannot resolve scale {idx.scale}"
        )


def _support_slice(idx: HaarIndex, grid: Grid) -> tuple[int, int]:
    lo, hi = idx.support
    try:
        i = grid.index_of(lo)
        j = grid.index_of(hi)
    except Exception as exc:
        raise SupportOutOfRange(str(exc)) from exc
    if not (0 <= i < j <= grid.count):
        raise SupportOutOfRange(f"support [{lo}, {hi}) outside grid span")
    return i, j


def haar_function(idx: HaarIndex, p: Exponent, grid: Grid) -> SampledFunction:
    """The L^p-normalized Haar atom as a step function on the grid."""
    _check_resolution(idx, grid)
    i, j = _support_slice(idx, grid)
    v = np.zeros(grid.count, dtype=np.complex128)
    if idx.scale == -1:
        v[i:j] = 1.0
    else:
        amp = 2.0 ** (idx.scale / p.p)
        mid = (i + j) // 2
        v[i:mid] = amp
        v[mid:j] = -amp
    return SampledFunction(grid, v)


def functional_layout(
    idx: HaarIndex, p: Exponent, grid: Grid
) -> Tuple[int, int, int, float]:
    """The dual atom of idx on grid as (i, mid, j, amp).

    The dual atom is amp on the cells [i, mid) and -amp on [mid, j); the
    father has mid = j and amp = 1.
    """
    _check_resolution(idx, grid)
    i, j = _support_slice(idx, grid)
    if idx.scale == -1:
        return i, j, j, 1.0
    return i, i + (j - i) // 2, j, 2.0 ** (idx.scale / p.conjugate)


def haar_functional(idx: HaarIndex, f: SampledFunction, p: Exponent) -> complex:
    """Coefficient functional: integral of f against the dual atom."""
    i, mid, j, amp = functional_layout(idx, p, f.grid)
    if mid == j:
        return complex(f.values[i:j].sum() * f.grid.step)
    return complex(
        (f.values[i:mid].sum() - f.values[mid:j].sum()) * amp * f.grid.step
    )

