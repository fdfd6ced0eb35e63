"""The Haar system on R, normalized in L^p, with biorthogonal functionals.

Each base interval [n, n+1] carries a father function (scale -1) plus the
dyadic Haar functions at scales j >= 0.  An atom of scale j takes the values
+-2^(j/p) on the two halves of its support, which makes ||h||_p = 1 exactly;
the biorthogonal partner h* has the same shape normalized in the conjugate
exponent, so <h, h*> = 1 and distinct atoms pair to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List

import numpy as np

from .errors import GridTooCoarse, SupportOutOfRange, ZeroFunction
from .grids import Exponent, Grid, SampledFunction, lp_norm
from .rng import rng_for


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

    def to_json(self) -> dict:
        return {"cell": self.cell, "scale": self.scale, "position": self.position}


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


def haar_functional(idx: HaarIndex, f: SampledFunction, p: Exponent) -> complex:
    """Coefficient functional: integral of f against the dual atom."""
    grid = f.grid
    _check_resolution(idx, grid)
    i, j = _support_slice(idx, grid)
    seg = f.values[i:j]
    if idx.scale == -1:
        return complex(seg.sum() * grid.step)
    amp = 2.0 ** (idx.scale / p.conjugate)
    mid = (j - i) // 2
    return complex((seg[:mid].sum() - seg[mid:].sum()) * amp * grid.step)


def haar_expand(
    f: SampledFunction, p: Exponent, cells: Iterable[int], max_scale: int
) -> Dict[HaarIndex, complex]:
    """Coefficients of f against every index over the given cells and scales."""
    return {
        idx: haar_functional(idx, f, p) for idx in haar_indices(cells, max_scale)
    }


def haar_reconstruct(
    coeffs: Dict[HaarIndex, complex], p: Exponent, grid: Grid
) -> SampledFunction:
    """Sum of coeff * atom; inverts haar_expand at full grid scale."""
    out = np.zeros(grid.count, dtype=np.complex128)
    for idx, c in coeffs.items():
        if c == 0:
            continue
        out += c * haar_function(idx, p, grid).values
    return SampledFunction(grid, out)


def span_cells(f: SampledFunction) -> range:
    """Integer cells [n, n+1) meeting the grid span of f."""
    cpu = 2 ** (-f.grid.step_log2)
    lo = f.grid.origin_index // cpu
    hi = -((-(f.grid.origin_index + f.grid.count)) // cpu)
    return range(lo, hi)


def haar_unconditionality_ratio(
    f: SampledFunction, p: Exponent, trials: int, seed: int
) -> float:
    """Largest sampled sign-flip norm ratio max_theta ||sum theta_k c_k h_k||_p / ||f||_p.

    f is expanded in the full-scale Haar system of its grid, so the expansion
    reproduces f exactly and the ratio for the all-plus pattern is 1.
    """
    base = lp_norm(f, p)
    if base == 0.0:
        raise ZeroFunction("cannot form a ratio against the zero function")
    max_scale = -f.grid.step_log2 - 1
    items = [
        (idx, c)
        for idx, c in haar_expand(f, p, span_cells(f), max_scale).items()
        if c != 0
    ]
    atoms = np.array([haar_function(idx, p, f.grid).values for idx, _ in items])
    coeffs = np.array([c for _, c in items])
    rng = rng_for(seed)
    best = 1.0  # the identity pattern is always admissible
    for _ in range(trials):
        signs = rng.integers(0, 2, size=len(items)) * 2 - 1
        g = SampledFunction(f.grid, (signs * coeffs) @ atoms)
        best = max(best, lp_norm(g, p) / base)
    return best


def unconditionality_bound(p: Exponent) -> float:
    """Checked upper bound for the Haar sign-flip constant: max(p-1, 1/(p-1))."""
    return max(p.p - 1.0, 1.0 / (p.p - 1.0))

