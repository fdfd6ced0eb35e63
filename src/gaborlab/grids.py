"""Step functions on dyadic grids and their L^p computations.

Functions are represented as complex-valued step functions: constant on each
cell [origin + i*step, origin + (i+1)*step) of a uniform grid whose step is an
exact power of two.  The function *is* the step function, so every L^p norm is
an exact integral (up to floating-point rounding), not a quadrature estimate.

Modulation is realized by midpoint sampling of the exponential, which keeps the
pointwise modulus exact (the sampled factor is unimodular); integrals of a
modulated step function against another function carry a quadrature error of
order step * frequency, which callers are expected to record in reports.

Shifts and modulations are exact integer arithmetic on the grid's 2^-m
scale: a shift t = a/b moves the origin by a * 2^m / b cells, the Nyquist
check compares 2|a| with b * 2^m, and the phase base of a frequency s = a/b
is (a * origin_index mod b * 2^m) / (b * 2^m).  Python's int true division
is correctly rounded, as float(Fraction) is, so each float is the one the
exact rational gives, without building a Fraction.

Every p-mass is formed by one kernel, powers_pth, from moduli already raised
to the p-th power; moduli_pth raises them, and a caller that needs both the
whole mass and the masses of pieces raises them once.  The one mass made
without an array, a window piece's (frames._piece_pth), is that kernel's sum
in closed form.  A family of functions reaches lp_ell2_norm and moduli_pth as
(values, step): its (n, cells) matrix.

The module imports numpy only inside the functions that make arrays, so the
exact grid geometry (Grid, check_cells, first_overlap, exact ratios) runs
without loading it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from numbers import Rational
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AliasedFrequency,
    ConfigError,
    GridMismatch,
    GridTooSmall,
    NonAlignedGrid,
    NonAlignedShift,
)
from .plans import Exponent, _Frozen  # Exponent re-exported: every norm here takes it

# the suites and the frame commands refuse a grid of more than MAX_CELLS cells
# before any work: at 2^20 cells rdf, the largest suite per cell, peaks near
# 400 MB, and verify-frame, which solves two or three functions at a time
# there (see row_chunks), near 340 MB whatever its corpus
MAX_CELLS = 2**20
# the row-batched kernels (combination_pth's sign-pattern products, the
# lacunary sums and verify-frame's corpus) take CHUNK_CELLS cells of rows at a
# time (see row_chunks): 256 KiB per complex array, so their memory grows with
# neither the rows nor, up to 8192 cells, the grid
CHUNK_CELLS = 2**14


def check_cells(hi: int, step_log2: int) -> None:
    """Refuse the grid [0, hi) of step 2^step_log2 past MAX_CELLS cells,
    without forming 2^-step_log2 for a huge -step_log2."""
    if -step_log2 > MAX_CELLS.bit_length() or hi * 2 ** -step_log2 > MAX_CELLS:
        raise ConfigError(f"the grid [0, {hi}) of step 2^{step_log2} has more than "
                          f"{MAX_CELLS} cells")


def row_chunks(count: int, cells: int) -> Iterator[slice]:
    """Consecutive slices covering rows 0 to count - 1 of a batch whose rows
    have the given cells: CHUNK_CELLS // cells rows each, but at least two,
    and a lone last row joins the chunk before it.  numpy multiplies a
    one-row matrix through a vector product, whose bits can differ from
    those of the same row in a matrix product; so a chunk has one row only
    when the batch has one, and each row's product has the bits of the
    whole batch's."""
    per_chunk = max(2, CHUNK_CELLS // cells)
    for start in range(0, count, per_chunk):
        if start + per_chunk >= count - 1:
            yield slice(start, count)
            return
        yield slice(start, start + per_chunk)


def first_overlap(intervals: List[tuple]) -> Optional[tuple]:
    """Sort half-open intervals (lo, hi, *tags) in place; return the first
    overlapping neighbours.  Tags are compared on equal endpoints, so they
    are indices, never the objects the intervals came from."""
    intervals.sort()
    for a, b in pairwise(intervals):
        if b[0] < a[1]:
            return a, b
    return None


def _ratio(x, what: str = "value") -> Tuple[int, int]:
    """The exact value of an int, a Fraction or a binary float as a pair of
    ints (numerator, positive denominator)."""
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")
        return x.as_integer_ratio()
    raise TypeError(f"{what} must be a real number, got {type(x).__name__}")


def _as_fraction(x, what: str = "value") -> Fraction:
    """Convert ints, Fractions and binary floats to an exact Fraction; a
    Fraction is returned as it is."""
    if type(x) is Fraction:
        return x
    return Fraction(*_ratio(x, what))


class Grid(_Frozen):
    """Uniform dyadic grid: cells [origin + i*step, origin + (i+1)*step).

    ``step = 2**step_log2`` with ``step_log2 <= 0``, and the origin is an exact
    integer multiple of the step (stored as that integer).  This makes every
    integer in the span a cell boundary and keeps shift alignment checks exact.
    """

    _compared = ("origin_index", "step_log2", "count")

    def __init__(self, origin_index: int, step_log2: int, count: int):
        vars(self).update(origin_index=origin_index, step_log2=step_log2, count=count)
        if step_log2 > 0:
            raise ValueError("grid step must be 2**(-m) with m >= 0")
        if count <= 0:
            raise ValueError("grid must contain at least one cell")

    @classmethod
    def over(cls, lo, hi, step_log2: int) -> "Grid":
        """Grid of step 2**step_log2 covering [lo, hi); endpoints must be grid-aligned."""
        step = Fraction(1, 2 ** (-step_log2))
        lo_f, hi_f = _as_fraction(lo, "lo"), _as_fraction(hi, "hi")
        oi = lo_f / step
        n = (hi_f - lo_f) / step
        if oi.denominator != 1 or n.denominator != 1:
            raise NonAlignedGrid(f"[{lo}, {hi}) is not aligned to step 2^{step_log2}")
        return cls(int(oi), step_log2, int(n))

    @property
    def step(self) -> float:
        return 2.0 ** self.step_log2

    @property
    def step_fraction(self) -> Fraction:
        return Fraction(1, 2 ** (-self.step_log2))

    @property
    def origin(self) -> Fraction:
        return self.origin_index * self.step_fraction

    def midpoints(self) -> np.ndarray:
        import numpy as np

        return (float(self.origin) + (np.arange(self.count) + 0.5) * self.step)

    def index_of(self, x) -> int:
        """Cell index of a grid-aligned point x (the cell starting at x)."""
        q = _as_fraction(x, "x") / self.step_fraction
        if q.denominator != 1:
            raise NonAlignedGrid(f"{x} is not a cell boundary of {self}")
        return int(q) - self.origin_index

    def shifted(self, cells: int) -> "Grid":
        return Grid(self.origin_index + cells, self.step_log2, self.count)


class SampledFunction(_Frozen):
    """A complex step function on a Grid; values[i] is the constant on cell i."""

    _compared = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        import numpy as np

        v = np.asarray(values, dtype=np.complex128)
        if v.shape != (grid.count,):
            raise ValueError(
                f"values shape {v.shape} does not match grid count {grid.count}"
            )
        vars(self).update(grid=grid, values=v)

    def _key(self) -> tuple:
        """Functions compare and hash bitwise: by grid and the bytes of the values."""
        return self.grid, self.values.tobytes()

    @classmethod
    def zero(cls, grid: Grid) -> "SampledFunction":
        import numpy as np

        return cls(grid, np.zeros(grid.count, dtype=np.complex128))

    @classmethod
    def indicator(cls, lo, hi, grid: Grid) -> "SampledFunction":
        """Indicator of [lo, hi); endpoints must be grid-aligned and inside the span."""
        i = grid.index_of(lo)
        j = grid.index_of(hi)
        if not (0 <= i <= j <= grid.count):
            raise GridTooSmall(f"[{lo}, {hi}) not contained in the grid span")
        f = cls.zero(grid)
        f.values[i:j] = 1.0
        return f

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _require_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatch(f"grids differ: {f.grid} vs {g.grid}")


def embed(f: SampledFunction, grid: Grid) -> SampledFunction:
    """Zero-extend f onto a larger grid with the same step."""
    if grid.step_log2 != f.grid.step_log2:
        raise GridMismatch("embedding requires equal steps")
    off = f.grid.origin_index - grid.origin_index
    if off < 0 or off + f.grid.count > grid.count:
        raise GridTooSmall("target grid does not contain the source span")
    out = SampledFunction.zero(grid)
    out.values[off : off + f.grid.count] = f.values
    return out


def powers_pth(powers: np.ndarray, step: float) -> np.ndarray:
    """sum_i powers[r, i] * step for every row r: the p-mass of each row's
    step function, given its moduli on cells of the given step raised to the
    p-th power."""
    return powers.sum(axis=1) * step


def moduli_pth(mods: np.ndarray, step: float, p: Exponent) -> np.ndarray:
    """sum_i mods[r, i]^p * step for every row r: the p-mass of each row's
    step function, given its moduli on cells of the given step."""
    return powers_pth(mods**p.p, step)


def pth_roots(pth: np.ndarray, p: Exponent) -> List[float]:
    """pth ** (1/p) entry by entry, each root taken as a Python float power
    (numpy's array power can differ from it in the last bit)."""
    return [float(x) ** (1.0 / p.p) for x in pth]


def moduli_norms(mods: np.ndarray, step: float, p: Exponent) -> List[float]:
    """The L^p norm of each row."""
    return pth_roots(moduli_pth(mods, step, p), p)


def lp_norm(f: SampledFunction, p: Exponent) -> float:
    """Exact L^p(R) norm of the step function: (sum |v_i|^p * step)**(1/p)."""
    return moduli_norms(abs(f.values)[None], f.grid.step, p)[0]


def lp_norm_pth(f: SampledFunction, p: Exponent) -> float:
    """The p-th power of lp_norm, computed directly."""
    return float(moduli_pth(abs(f.values)[None], f.grid.step, p)[0])


def _translated(grid: Grid, t) -> Grid:
    """grid moved by t, which must be a whole number of its cells."""
    num, den = _ratio(t, "t")
    cells, rest = divmod(num << -grid.step_log2, den)
    if rest:
        raise NonAlignedShift(f"shift {t} is not a multiple of step {grid.step_fraction}")
    return grid.shifted(cells)


def translate(f: SampledFunction, t) -> SampledFunction:
    """Shift f by t: result(x) = f(x - t).  t must be a multiple of the step.

    A float shift is taken at its exact binary value, like every coordinate.

    The shift is realized by moving the grid origin; values are untouched, so
    translation is an exact isometry for every norm computed here.
    """
    return SampledFunction(_translated(f.grid, t), f.values)


def modulation_phase(grid: Grid, s) -> Tuple[float, float]:
    """(base, incr): exp(2*pi*i*s*x) at the midpoint of cell i has the phase
    base + incr * (i + 1/2) turns.

    base is s * origin mod 1, reduced exactly in integers, which keeps the
    phase accurate for huge origins.
    """
    num, den = _ratio(s, "s")
    period = den << -grid.step_log2
    return (num * grid.origin_index) % period / period, num / den * grid.step


def phase_samples(base, incr, count: int) -> np.ndarray:
    """exp(2*pi*i*(base + incr*(i + 1/2))) on cells i = 0..count-1.

    base and incr are floats, or (rows, 1) columns giving one row of samples
    per (base, incr) pair with the same float operations.
    """
    import numpy as np

    phases = base + incr * (np.arange(count) + 0.5)
    return np.exp(2j * np.pi * phases)


def modulate_rows(values: np.ndarray, grids: Sequence[Grid], ss) -> np.ndarray:
    """Row r of values, a function on grids[r], times exp(2*pi*i*ss[r]*x)
    sampled at cell midpoints; the grids share one step and count.

    Requires |s| < 1/(2*step); beyond that bound the sampled exponential
    aliases onto a lower frequency.

    The product's exponential operand is an unnamed temporary, which numpy
    overwrites in place once it reaches 256 KiB (16384 cells), and an
    in-place complex product can differ in the last bit.  A row therefore
    gets the values of its one-row call when rows * count stays below 16384
    or the call has one row.
    """
    import numpy as np

    phases = []
    for grid, s in zip(grids, ss):
        num, den = _ratio(s, "s")
        if 2 * abs(num) >= den << -grid.step_log2:
            raise AliasedFrequency(
                f"|s|={abs(num) / den} at or beyond Nyquist {0.5 / grid.step}"
            )
        phases.append(modulation_phase(grid, s))
    base, incr = np.array(phases).reshape(-1, 2, 1).transpose(1, 0, 2)
    return values * phase_samples(base, incr, values.shape[1])


def modulate(f: SampledFunction, s) -> SampledFunction:
    """Multiply f by exp(2*pi*i*s*x) sampled at cell midpoints: the one-row
    call of modulate_rows."""
    return SampledFunction(f.grid, modulate_rows(f.values[None], [f.grid], [s])[0])


def time_freq_shift_rows(values: np.ndarray, grid: Grid, ts, ss) -> np.ndarray:
    """The values of the Gabor atoms x -> g_r(x - ts[r]) * exp(2*pi*i*ss[r]*x),
    g_r row r of values on grid; atom r lives on grid moved by ts[r]."""
    return modulate_rows(values, [_translated(grid, t) for t in ts], ss)


def time_freq_shift(g: SampledFunction, t, s) -> SampledFunction:
    """The Gabor atom x -> g(x - t) * exp(2*pi*i*s*x)."""
    return modulate(translate(g, t), s)


def lp_ell2_norm(values: np.ndarray, step: float, ps: Sequence[Exponent]) -> List[float]:
    """Mixed norms || (sum_j |v_j|^2)^(1/2) ||_p of the rows v_j of values, one
    per p, from one sum_j |v_j|^2, added row by row whatever the layout of
    values (numpy's axis-0 sum of a column-major matrix adds them pairwise)."""
    import numpy as np

    sq = np.zeros(values.shape[1])
    for row in values:
        sq += abs(row) ** 2
    return [pth_roots(powers_pth(sq[None] ** (p.p / 2.0), step), p)[0] for p in ps]


def restrict(f: SampledFunction, lo, hi) -> SampledFunction:
    """Restriction of f to [lo, hi) as a function on the sub-grid."""
    i = f.grid.index_of(lo)
    j = f.grid.index_of(hi)
    if not (0 <= i <= j <= f.grid.count):
        raise GridTooSmall(f"[{lo}, {hi}) not contained in the grid span")
    sub = Grid(f.grid.origin_index + i, f.grid.step_log2, j - i)
    return SampledFunction(sub, f.values[i:j])
