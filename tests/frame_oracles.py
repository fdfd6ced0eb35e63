"""Dense test oracles of the certified frames, outside the package.

The package's frame code never places a piece at a translate: the window is
kept as its K block rows and the operator works on the span grid.  These
oracles place every piece densely instead, one at a time: window_piece,
window_pieces and window_on_grid for the window, whose modulated pieces the
package never samples (it takes each piece's p-mass from its modulus),
error_pieces and error_pth_direct for the unreduced error term of the frame
operator, and frame_operator_dense for the operator itself on an explicit
grid.  span_coefficients applies one
haar_functional per atom, the oracle of the batched functionals that
operators reads from each frame's layout; error_pieces samples each relative
modulation with modulation_values.  window_on_grid and
frame_operator_dense raise NonAlignedShift for a piece that does not start
on a grid point.  candidates gives the signed or modulated translates that no
command builds a frame on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from gaborlab.errors import GridTooSmall, NonAlignedShift
from gaborlab.frames import ConstructedFrame, spread_candidates
from gaborlab.gabor import TimeFreqPoint
from gaborlab.grids import (
    Exponent,
    Grid,
    SampledFunction,
    modulate,
    modulation_phase,
    phase_samples,
)
from gaborlab.haar import HaarIndex, layout
from gaborlab.operators import frame_operator_rows


def candidates(count: int, base: int, ratio: int, alternate_signs: bool = False,
               s: Fraction = Fraction(0)) -> List[TimeFreqPoint]:
    """spread_candidates(count, base, ratio) at frequency s, with every
    odd-numbered translate negated if alternate_signs."""
    return [TimeFreqPoint(-pt.t if alternate_signs and n % 2 else pt.t, s)
            for n, pt in enumerate(spread_candidates(count, base, ratio))]


def haar_functional(idx: HaarIndex, f: SampledFunction, p: Exponent) -> complex:
    """Coefficient functional: integral of f against the dual atom."""
    i, mid, j, amp = layout(idx, p.conjugate, f.grid)
    if mid == j:
        return complex(f.values[i:j].sum() * f.grid.step)
    return complex(
        (f.values[i:mid].sum() - f.values[mid:j].sum()) * amp * f.grid.step
    )


def modulation_values(grid: Grid, s) -> np.ndarray:
    """Midpoint samples of exp(2*pi*i*s*x) on the grid cells."""
    return phase_samples(*modulation_phase(grid, s), grid.count)


def window_piece(local: Grid, row: np.ndarray, size: int, s: Fraction) -> SampledFunction:
    """An atom row scaled by size^(-1/2) and modulated by -s, on local."""
    return modulate(SampledFunction(local, row) * (size ** -0.5), -s)


def window_pieces(frame: ConstructedFrame) -> Iterator[Tuple[Fraction, SampledFunction]]:
    """(offset, local step function on [0, 1]) of every point of the window,
    in point order."""
    sizes = frame.plan.sizes
    for pt, k in zip(frame.selection.points, frame.plan.block_of_index()):
        yield -pt.t, window_piece(frame.span_grid, frame.rows[k], sizes[k], pt.s)


def _place(out: np.ndarray, grid: Grid, at: Fraction, values: np.ndarray) -> None:
    """Add a piece whose first cell starts at x = at into the dense values of grid."""
    start = at / grid.step_fraction - grid.origin_index
    if start.denominator != 1:
        raise NonAlignedShift(f"piece at {at} is not a multiple of the grid step")
    if not (0 <= start and start + len(values) <= grid.count):
        raise GridTooSmall(f"piece at {at} falls outside the grid")
    out[int(start) : int(start) + len(values)] += values


def window_on_grid(frame: ConstructedFrame, grid: Grid) -> SampledFunction:
    """Materialize the frame's window densely; raises GridTooSmall if the span
    is short and NonAlignedShift if a piece does not start on a grid point."""
    if grid.step_log2 != frame.span_grid.step_log2:
        raise GridTooSmall("grid step differs from the window step")
    out = np.zeros(grid.count, dtype=np.complex128)
    for offset, f in window_pieces(frame):
        _place(out, grid, offset + f.grid.origin, f.values)
    return SampledFunction(grid, out)


def span_coefficients(frame: ConstructedFrame, f: SampledFunction) -> np.ndarray:
    """Dual-atom coefficients b_l of f against the plan's K atoms, one
    haar_functional call each: the test oracle of frame_operator_rows."""
    return np.array(
        [haar_functional(a, f, frame.p) for a in frame.atoms], dtype=np.complex128
    )


def error_pieces(
    frame: ConstructedFrame, f: SampledFunction
) -> Iterable[Tuple[int, int, Fraction, np.ndarray]]:
    """Materialize every error-term piece (i, j, offset, values) for direct checks.

    This is the unreduced route: one placed piece per ordered pair (i, j),
    including exact phase and relative-modulation factors when s != 0.
    """
    b = span_coefficients(frame, f)
    block_of = frame.plan.block_of_index()
    pts = frame.selection.points
    mod_cache: Dict[Fraction, np.ndarray] = {}
    for i, pi in enumerate(pts):
        k = int(block_of[i])
        base = frame.rows[k] * (frame.plan.sizes[k] ** -0.5)
        for j, pj in enumerate(pts):
            if i == j:
                continue
            l = int(block_of[j])
            coeff = frame.plan.sizes[l] ** -0.5 * b[l]
            d = pj.t - pi.t
            vals = base
            if pj.s != pi.s:
                rel = pj.s - pi.s
                if rel not in mod_cache:
                    mod_cache[rel] = modulation_values(frame.span_grid, rel)
                vals = vals * mod_cache[rel]
            if pj.s != 0:
                phase = float((pj.s * d) % 1)
                coeff = coeff * np.exp(2j * np.pi * phase)
            yield i, j, d, coeff * vals


def error_pth_direct(frame: ConstructedFrame, f: SampledFunction) -> float:
    """Error-term p-mass summed piece by piece from the materialized values."""
    p = frame.p.p
    step = frame.span_grid.step
    total = 0.0
    for _, _, _, vals in error_pieces(frame, f):
        total += float((np.abs(vals) ** p).sum() * step)
    return total


def frame_operator_dense(
    frame: ConstructedFrame, f: SampledFunction, grid: Grid
) -> SampledFunction:
    """Materialize S f on an explicit grid (small frames only)."""
    if grid.step_log2 != frame.span_grid.step_log2:
        raise GridTooSmall("grid step differs from the frame step")
    main = frame_operator_rows(frame, f.values[None, :]).main[0]
    out = np.zeros(grid.count, dtype=np.complex128)
    _place(out, grid, frame.span_grid.origin, main)
    for _, _, d, vals in error_pieces(frame, f):
        _place(out, grid, d, vals)
    return SampledFunction(grid, out)
