"""Frequency-band projections on periodized grids.

The band projection for an interval I keeps exactly the discrete frequencies
q / L (L = grid span) lying in [lo, hi), treating the grid as one period.
Because the mask is 0/1 on the discrete spectrum, projections are idempotent
and compose by interval intersection up to floating-point rounding.

band_parts forms every band of one function from one spectrum as one
(intervals, cells) matrix, and square_function_norms evaluates the band
square function at several exponents from it and the grid step
(grids.lp_ell2_norm); partial_sum is the one-band call of band_parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import OverlappingIntervals
from .grids import Exponent, Grid, SampledFunction, first_overlap, lp_ell2_norm


@dataclass(frozen=True)
class FrequencyInterval:
    """Half-open frequency band [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi})")


def grid_frequencies(grid: Grid) -> np.ndarray:
    """The discrete frequencies q / span carried by the periodized grid."""
    span = grid.count * grid.step
    q = np.fft.fftfreq(grid.count, d=1.0 / grid.count)  # integers -N/2..N/2-1
    return q / span


def band_parts(f: SampledFunction, intervals: Sequence[FrequencyInterval]) -> np.ndarray:
    """The band projections of f onto every interval, one row per interval,
    from one spectrum."""
    freqs = grid_frequencies(f.grid)
    masks = [(freqs >= iv.lo) & (freqs < iv.hi) for iv in intervals]
    masks = np.array(masks).reshape(-1, f.grid.count)  # (0, count) for no bands
    return np.fft.ifft(np.fft.fft(f.values) * masks, axis=1)


def partial_sum(f: SampledFunction, interval: FrequencyInterval) -> SampledFunction:
    """Band projection: inverse transform of the spectrum restricted to [lo, hi)."""
    return SampledFunction(f.grid, band_parts(f, [interval])[0])


def square_function_norms(
    f: SampledFunction, intervals: Sequence[FrequencyInterval], ps: Sequence[Exponent]
) -> List[float]:
    """|| (sum_k |D_{I_k} f|^2)^(1/2) ||_p at each p, for pairwise disjoint
    bands and p >= 2, from one set of band parts."""
    if any(p.p < 2.0 for p in ps):
        raise ValueError("the square-function bound is formed for p >= 2")
    overlap = first_overlap([(iv.lo, iv.hi, k) for k, iv in enumerate(intervals)])
    if overlap is not None:
        a, b = (intervals[k] for _, _, k in overlap)
        raise OverlappingIntervals(f"{a} overlaps {b}")
    return lp_ell2_norm(band_parts(f, intervals), f.grid.step, ps)
