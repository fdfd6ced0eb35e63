"""Finite Gabor systems: atoms, synthesis and sign-perturbation experiments.

A system is a window together with a finite ordered list of time-frequency
points (t, s); the atom at (t, s) is x -> g(x - t) exp(2 pi i s x).  Sign-flip
ratios are enumerated exactly for systems of at most 12 points and sampled
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import UnknownPoint, ZeroFunction
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    _as_fraction,
    embed,
    lp_ell2_norm,
    time_freq_shift,
)
from .rng import rng_for, sign_matrix
from .stochastic import EXACT_FUNCTION_CUTOFF, all_sign_patterns


@dataclass(frozen=True)
class TimeFreqPoint:
    """A point (t, s) of the time-frequency plane, stored exactly."""

    t: Fraction
    s: Fraction

    def __init__(self, t, s):
        object.__setattr__(self, "t", _as_fraction(t, "t"))
        object.__setattr__(self, "s", _as_fraction(s, "s"))

    def to_json(self) -> list:
        return [
            [self.t.numerator, self.t.denominator],
            [self.s.numerator, self.s.denominator],
        ]

    @classmethod
    def from_json(cls, obj) -> "TimeFreqPoint":
        (tn, td), (sn, sd) = obj
        return cls(Fraction(tn, td), Fraction(sn, sd))


@dataclass(frozen=True)
class GaborSystem:
    """A window and a finite ordered point set; atoms share one common grid."""

    window: SampledFunction
    points: Tuple[TimeFreqPoint, ...]

    def __init__(self, window: SampledFunction, points: Sequence[TimeFreqPoint]):
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "points", tuple(points))

    def hull_grid(self) -> Grid:
        """Smallest grid containing every translated copy of the window."""
        if not self.points:
            return self.window.grid
        shifted = [translate_span(self.window.grid, pt.t) for pt in self.points]
        lo = min(g.origin_index for g in shifted)
        hi = max(g.origin_index + g.count for g in shifted)
        return Grid(lo, self.window.grid.step_log2, hi - lo)


def translate_span(grid: Grid, t: Fraction) -> Grid:
    cells = t / grid.step_fraction
    if cells.denominator != 1:
        from .errors import NonAlignedShift

        raise NonAlignedShift(f"shift {t} is not a multiple of the grid step")
    return grid.shifted(int(cells))


@dataclass(frozen=True)
class CoefficientMap:
    """Complex coefficients indexed by time-frequency points."""

    entries: Dict[TimeFreqPoint, complex]

    def __init__(self, entries: Dict[TimeFreqPoint, complex]):
        object.__setattr__(self, "entries", dict(entries))

    @classmethod
    def from_vector(
        cls, sys: GaborSystem, a: Sequence[complex]
    ) -> "CoefficientMap":
        if len(a) != len(sys.points):
            raise ValueError("coefficient vector length differs from point count")
        return cls(dict(zip(sys.points, a)))

    def vector(self, sys: GaborSystem) -> np.ndarray:
        return np.array(
            [self.entries.get(pt, 0.0) for pt in sys.points], dtype=np.complex128
        )


def atom(sys: GaborSystem, pt: TimeFreqPoint) -> SampledFunction:
    """The time-frequency shifted window at a system point, on the hull grid."""
    if pt not in sys.points:
        raise UnknownPoint(f"{pt} is not a point of the system")
    shifted = time_freq_shift(sys.window, pt.t, pt.s)
    return embed(shifted, sys.hull_grid())


def _atom_matrix(sys: GaborSystem) -> Tuple[np.ndarray, Grid]:
    hull = sys.hull_grid()
    rows = [
        embed(time_freq_shift(sys.window, pt.t, pt.s), hull).values
        for pt in sys.points
    ]
    return np.array(rows), hull


def synthesize(sys: GaborSystem, a: CoefficientMap) -> SampledFunction:
    """The finite combination sum a_{ts} g(x - t) exp(2 pi i s x)."""
    for pt in a.entries:
        if pt not in sys.points:
            raise UnknownPoint(f"coefficient at {pt} outside the system")
    if not sys.points:
        return SampledFunction.zero(sys.window.grid)
    mat, hull = _atom_matrix(sys)
    return SampledFunction(hull, a.vector(sys) @ mat)


def square_function_equivalent(
    sys: GaborSystem, a: CoefficientMap, p: Exponent
) -> float:
    """|| (sum |a_{ts}|^2 |atom|^2)^(1/2) ||_p, the square-function comparison."""
    mat, hull = _atom_matrix(sys)
    vec = a.vector(sys)
    fs = [SampledFunction(hull, c * row) for c, row in zip(vec, mat)]
    return lp_ell2_norm(fs, p)


def sign_flip_ratio(
    sys: GaborSystem,
    a: CoefficientMap,
    p: Exponent,
    trials: int,
    seed: int,
) -> Tuple[float, float]:
    """Extremes over sign patterns of ||sum theta a atom||_p / ||sum a atom||_p.

    Enumerates all patterns when the system has at most 12 points; otherwise
    samples `trials` patterns from the seeded stream (the identity pattern is
    always included, so both extremes bracket 1).
    """
    mat, hull = _atom_matrix(sys)
    vec = a.vector(sys)
    base = float((np.abs(vec @ mat) ** p.p).sum() * hull.step) ** (1.0 / p.p)
    if base == 0.0:
        raise ZeroFunction("base combination is the zero function")
    n = len(sys.points)
    if n <= EXACT_FUNCTION_CUTOFF:
        signs = all_sign_patterns(n)
    else:
        signs = sign_matrix(rng_for(seed), trials, n)
        signs[0, :] = 1
    sums = (signs * vec) @ mat
    norms = ((np.abs(sums) ** p.p).sum(axis=1) * hull.step) ** (1.0 / p.p)
    return float(norms.max() / base), float(norms.min() / base)


def points_to_json(points: Sequence[TimeFreqPoint]) -> list:
    return [pt.to_json() for pt in points]


def points_from_json(items: Sequence) -> List[TimeFreqPoint]:
    return [TimeFreqPoint.from_json(o) for o in items]

