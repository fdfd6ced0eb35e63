"""Finite Gabor systems: atoms and synthesis.

A system is a window together with a finite ordered list of time-frequency
points (t, s); the atom at (t, s) is x -> g(x - t) exp(2 pi i s x).
Coefficients are plain vectors with one entry per point, in point order.
Points and their JSON form need no numpy: only a system's atoms and its
synthesis import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .grids import (
    Grid,
    SampledFunction,
    _as_fraction,
    embed,
    time_freq_shift,
    translate,
)
from .plans import _Frozen


class TimeFreqPoint(_Frozen):
    """A point (t, s) of the time-frequency plane, stored exactly."""

    _compared = ("t", "s")

    def __init__(self, t, s):
        vars(self).update(t=_as_fraction(t, "t"), s=_as_fraction(s, "s"))

    def to_json(self) -> list:
        return [
            [self.t.numerator, self.t.denominator],
            [self.s.numerator, self.s.denominator],
        ]

    @classmethod
    def from_json(cls, obj) -> "TimeFreqPoint":
        (tn, td), (sn, sd) = obj
        return cls(Fraction(tn, td), Fraction(sn, sd))


class GaborSystem(_Frozen):
    """A window and a finite ordered point set; atoms share one common grid.

    The hull (the smallest grid containing every translated copy of the
    window) and the atom matrix (one row per point, the atom on the hull) are
    built once, on construction; an empty system's hull is the window's grid
    and its matrix has shape (0, cells), so it synthesizes zero there.
    Systems compare, hash and print by window and points alone.
    """

    _compared = ("window", "points")

    def __init__(self, window: SampledFunction, points: Sequence[TimeFreqPoint]):
        import numpy as np

        points = tuple(points)
        hull = window.grid
        if points:
            shifted = [translate(window, pt.t).grid for pt in points]
            lo = min(g.origin_index for g in shifted)
            hi = max(g.origin_index + g.count for g in shifted)
            hull = Grid(lo, window.grid.step_log2, hi - lo)
        rows = [embed(time_freq_shift(window, pt.t, pt.s), hull).values for pt in points]
        vars(self).update(window=window, points=points, hull=hull,
                          atom_matrix=np.array(rows).reshape(len(points), hull.count))


def synthesize(sys: GaborSystem, a: Sequence[complex]) -> SampledFunction:
    """The finite combination sum a_{ts} g(x - t) exp(2 pi i s x).

    a holds one coefficient per system point, in the order of sys.points.
    """
    import numpy as np

    vec = np.asarray(a, dtype=np.complex128)
    if vec.shape != (len(sys.points),):
        raise ValueError("coefficient vector length differs from point count")
    return SampledFunction(sys.hull, vec @ sys.atom_matrix)


def points_to_json(points: Sequence[TimeFreqPoint]) -> list:
    return [pt.to_json() for pt in points]


def points_from_json(items: Sequence) -> List[TimeFreqPoint]:
    return [TimeFreqPoint.from_json(o) for o in items]

