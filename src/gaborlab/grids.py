"""Step functions on dyadic grids and their L^p computations.

Functions are represented as complex-valued step functions: constant on each
cell [origin + i*step, origin + (i+1)*step) of a uniform grid whose step is an
exact power of two.  The function *is* the step function, so every L^p norm is
an exact integral (up to floating-point rounding), not a quadrature estimate.

Modulation is realized by midpoint sampling of the exponential, which keeps the
pointwise modulus exact (the sampled factor is unimodular); integrals of a
modulated step function against another function carry a quadrature error of
order step * frequency, which callers are expected to record in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import (
    AliasedFrequency,
    ConfigError,
    GridMismatch,
    GridTooSmall,
    NonAlignedGrid,
    NonAlignedShift,
)
from .plans import Exponent  # re-exported: the exponent every norm here takes

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


def _as_fraction(x, what: str = "value") -> Fraction:
    """Convert ints, Fractions and binary floats to an exact Fraction; a
    Fraction is returned as it is."""
    if type(x) is Fraction:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not np.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")
        return Fraction(x)
    raise TypeError(f"{what} must be a real number, got {type(x).__name__}")


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic grid: cells [origin + i*step, origin + (i+1)*step).

    ``step = 2**step_log2`` with ``step_log2 <= 0``, and the origin is an exact
    integer multiple of the step (stored as that integer).  This makes every
    integer in the span a cell boundary and keeps shift alignment checks exact.
    """

    origin_index: int
    step_log2: int
    count: int

    def __post_init__(self):
        if self.step_log2 > 0:
            raise ValueError("grid step must be 2**(-m) with m >= 0")
        if self.count <= 0:
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
        return (float(self.origin) + (np.arange(self.count) + 0.5) * self.step)

    def index_of(self, x) -> int:
        """Cell index of a grid-aligned point x (the cell starting at x)."""
        q = _as_fraction(x, "x") / self.step_fraction
        if q.denominator != 1:
            raise NonAlignedGrid(f"{x} is not a cell boundary of {self}")
        return int(q) - self.origin_index

    def shifted(self, cells: int) -> "Grid":
        return Grid(self.origin_index + cells, self.step_log2, self.count)


@dataclass(frozen=True)
class SampledFunction:
    """A complex step function on a Grid; values[i] is the constant on cell i."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.count,):
            raise ValueError(
                f"values shape {v.shape} does not match grid count {self.grid.count}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, grid: Grid) -> "SampledFunction":
        return cls(grid, np.zeros(grid.count, dtype=np.complex128))

    @classmethod
    def indicator(cls, lo, hi, grid: Grid) -> "SampledFunction":
        """Indicator of [lo, hi); endpoints must be grid-aligned and inside the span."""
        i = grid.index_of(lo)
        j = grid.index_of(hi)
        if not (0 <= i <= j <= grid.count):
            raise GridTooSmall(f"[{lo}, {hi}) not contained in the grid span")
        v = np.zeros(grid.count, dtype=np.complex128)
        v[i:j] = 1.0
        return cls(grid, v)

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
    v = np.zeros(grid.count, dtype=np.complex128)
    v[off : off + f.grid.count] = f.values
    return SampledFunction(grid, v)


def moduli_pth(mods: np.ndarray, step: float, p: Exponent) -> np.ndarray:
    """sum_i mods[r, i]^p * step for every row r: the p-mass of each row's
    step function, given its moduli on cells of the given step."""
    return (mods**p.p).sum(axis=1) * step


def pth_roots(pth: np.ndarray, p: Exponent) -> List[float]:
    """pth ** (1/p) entry by entry, each root taken as a Python float power
    (numpy's array power can differ from it in the last bit)."""
    return [float(x) ** (1.0 / p.p) for x in pth]


def moduli_norms(mods: np.ndarray, step: float, p: Exponent) -> List[float]:
    """The L^p norm of each row."""
    return pth_roots(moduli_pth(mods, step, p), p)


def lp_norm(f: SampledFunction, p: Exponent) -> float:
    """Exact L^p(R) norm of the step function: (sum |v_i|^p * step)**(1/p)."""
    return moduli_norms(np.abs(f.values)[None], f.grid.step, p)[0]


def lp_norm_pth(f: SampledFunction, p: Exponent) -> float:
    """The p-th power of lp_norm, computed directly."""
    return float(moduli_pth(np.abs(f.values)[None], f.grid.step, p)[0])


def _translated(grid: Grid, t) -> Grid:
    step = grid.step_fraction
    q = _as_fraction(t, "t") / step
    if q.denominator != 1:
        raise NonAlignedShift(f"shift {t} is not a multiple of step {step}")
    return grid.shifted(int(q))


def translate(f: SampledFunction, t) -> SampledFunction:
    """Shift f by t: result(x) = f(x - t).  t must be a multiple of the step.

    A float shift is taken at its exact binary value, like every coordinate.

    The shift is realized by moving the grid origin; values are untouched, so
    translation is an exact isometry for every norm computed here.
    """
    return SampledFunction(_translated(f.grid, t), f.values)


def _phase_base(s: Fraction, origin: Fraction) -> float:
    # reduce s*origin mod 1 exactly; keeps the phase accurate for huge origins
    return float((s * origin) % 1)


def modulation_phase(grid: Grid, s) -> Tuple[float, float]:
    """(base, incr): exp(2*pi*i*s*x) at the midpoint of cell i has the phase
    base + incr * (i + 1/2) turns."""
    s_f = _as_fraction(s, "s")
    return _phase_base(s_f, grid.origin), float(s_f) * grid.step


def phase_samples(base, incr, count: int) -> np.ndarray:
    """exp(2*pi*i*(base + incr*(i + 1/2))) on cells i = 0..count-1.

    base and incr are floats, or (rows, 1) columns giving one row of samples
    per (base, incr) pair with the same float operations.
    """
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
    phases = []
    for grid, s in zip(grids, ss):
        s_f = _as_fraction(s, "s")
        if 2 * abs(s_f) * grid.step_fraction >= 1:
            raise AliasedFrequency(
                f"|s|={float(abs(s_f))} at or beyond Nyquist {0.5 / grid.step}"
            )
        phases.append(modulation_phase(grid, s_f))
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


def lp_ell2_norm(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """Mixed norm || (sum_j |f_j|^2)^(1/2) ||_p of functions on one grid."""
    if not fs:
        raise ValueError("need at least one function")
    g = fs[0].grid
    for f in fs[1:]:
        if f.grid != g:
            raise GridMismatch("all functions must share one grid")
    sq = np.zeros(g.count)
    for f in fs:
        sq += np.abs(f.values) ** 2
    return float((sq ** (p.p / 2.0)).sum() * g.step) ** (1.0 / p.p)


def restrict(f: SampledFunction, lo, hi) -> SampledFunction:
    """Restriction of f to [lo, hi) as a function on the sub-grid."""
    i = f.grid.index_of(lo)
    j = f.grid.index_of(hi)
    if not (0 <= i <= j <= f.grid.count):
        raise GridTooSmall(f"[{lo}, {hi}) not contained in the grid span")
    sub = Grid(f.grid.origin_index + i, f.grid.step_log2, j - i)
    return SampledFunction(sub, f.values[i:j])
