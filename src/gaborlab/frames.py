"""Block-structured Gabor frames built from translated Haar atoms.

The construction pairs K Haar atoms (taken on the base cell with increasing
scale) with K blocks of time-frequency points.  Block k has N_k points, the
block sizes satisfy the strict admissibility condition

    sum_k N_k^(1 - p/2) < (2 K_p)^(-p/2),      K_p = p - 1,  p > 2,

and the window is the disjoint union of scaled copies of the atoms placed at
the negated translates.  Applying the coefficient functionals (scaled dual
Haar atoms) to a function on the base-cell span V reproduces it exactly (the
main term), plus an error term whose summands live on the pairwise-disjoint
difference sets supp(h_k) + t_j - t_i.  The certified contraction constant

    q = K_p * (sum_k N_k^(1 - p/2))^(2/p) < 1

bounds the error term's norm relative to the input.

Selected translates grow geometrically (|t_{i+1}| >= 4 |t_i| + 4), which
forces every pairwise difference apart by more than the unit support length.
Disjointness is nevertheless verified exactly, never assumed: one certificate,
certify_selection, runs once for every built or loaded frame.  It scales all
intervals by the lcm of every denominator and compares them as integers, so
its verdict is exact for any rational input.  Translates are kept as exact
rationals throughout: at the certified block sizes they exceed the
double-precision range, so no code path converts them to floats.

Because the difference sets avoid the base-cell span, the error term of one
application contributes nothing to the coefficient functionals of the next.
The Neumann iteration for the frame inverse is therefore carried out on the
span V, where one application already reproduces the input exactly and the
certified bound ceil(log tol / log q) + 1 on the iteration count holds with
room to spare; the off-span error term is reported separately as the
synthesis residual and checked against q rather than against the tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    GridTooSmall,
    InfeasiblePlan,
    InsufficientSpread,
    NoConvergence,
    NonAlignedShift,
)
from .gabor import TimeFreqPoint, points_from_json, points_to_json
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    lp_norm,
    lp_norm_pth,
    modulate,
)
from .haar import HaarIndex, haar_function, haar_functional, haar_indices
from .rng import complex_gaussian, rng_for, sign_matrix

MAX_LEAD_SIZE = 10**6


def haar_constant(p: Exponent) -> float:
    """Sign-flip constant of the Haar basis used by the plans (p > 2)."""
    return p.p - 1.0


@dataclass(frozen=True)
class BlockPlan:
    """Admissible block sizes N_1..N_K for an exponent p > 2.

    The strict admissibility condition is enforced by default; degenerate
    demonstration plans (a single size-one block has no error pairs at all,
    yet no size list summing to at least 1 can satisfy the condition) may
    be built with require_condition=False, forfeiting the q < 1 guarantee.
    """

    p: Exponent
    sizes: Tuple[int, ...]
    require_condition: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.p.p <= 2.0:
            raise InfeasiblePlan("block plans require p > 2")
        if not self.sizes or any(n <= 0 for n in self.sizes):
            raise ValueError("sizes must be positive integers")
        if self.require_condition and not self.condition_holds(self.p, self.sizes):
            raise InfeasiblePlan(
                f"sizes {self.sizes} violate the strict block condition at p={self.p.p}"
            )

    @staticmethod
    def condition_holds(p: Exponent, sizes: Sequence[int]) -> bool:
        bound = (2.0 * haar_constant(p)) ** (-p.p / 2.0)
        return _block_sum(p, sizes) < bound

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def block_sum(self) -> float:
        return _block_sum(self.p, self.sizes)

    @property
    def contraction(self) -> float:
        """The certified contraction constant q = K_p * (sum N_k^(1-p/2))^(2/p)."""
        return haar_constant(self.p) * self.block_sum ** (2.0 / self.p.p)

    def block_of_index(self) -> np.ndarray:
        """Block number of each point index 0..total-1 (consecutive runs)."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    def to_json(self) -> dict:
        return {"p": self.p.p, "sizes": list(self.sizes)}


def _block_sum(p: Exponent, sizes: Sequence[int]) -> float:
    return sum(n ** (1.0 - p.p / 2.0) for n in sizes)


def plan_blocks(p: Exponent, num_blocks: int, growth: float = 2.0) -> BlockPlan:
    """Smallest geometric plan: N_k = ceil(N_1 * growth^(k-1)), N_1 minimal.

    The strict block condition is monotone in N_1: every ceil(N_1 growth^k)
    is nondecreasing in N_1, and n^(1 - p/2) decreases in n for p > 2.  So
    the least N_1 is found by bisection over [1, 10^6], after checking that
    N_1 = 10^6 satisfies the condition at all.  Raises InfeasiblePlan if it
    does not, or if p <= 2 (the condition's exponent 1 - p/2 is then
    nonnegative and the sum cannot be made small).
    """
    if p.p <= 2.0:
        raise InfeasiblePlan("no admissible plan exists for p <= 2")
    if num_blocks <= 0:
        raise ValueError("need at least one block")
    if growth < 2.0:
        raise ValueError("growth must be at least 2")

    def sizes(lead: int) -> Tuple[int, ...]:
        return tuple(math.ceil(lead * growth**k) for k in range(num_blocks))

    if not BlockPlan.condition_holds(p, sizes(MAX_LEAD_SIZE)):
        raise InfeasiblePlan(f"no leading size up to {MAX_LEAD_SIZE} satisfies the condition")
    lo, hi = 1, MAX_LEAD_SIZE  # the condition holds at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if BlockPlan.condition_holds(p, sizes(mid)):
            hi = mid
        else:
            lo = mid + 1
    return BlockPlan(p, sizes(lo))


def plan_from_sizes(p: Exponent, sizes: Sequence[int]) -> BlockPlan:
    """Plan with explicitly given block sizes (validated)."""
    return BlockPlan(p, tuple(int(n) for n in sizes))


def block_atoms(plan: BlockPlan) -> List[HaarIndex]:
    """One Haar atom per block: base cell 0, increasing scale, fixed order."""
    return haar_indices([0], max_scale=len(plan.sizes))[: len(plan.sizes)]


@dataclass(frozen=True)
class TranslateSelection:
    """Selected points (t_i, s_i), |t_i| strictly increasing, exact rationals."""

    points: Tuple[TimeFreqPoint, ...]

    def __post_init__(self):
        mags = [abs(pt.t) for pt in self.points]
        if any(b <= a for a, b in zip(mags, mags[1:])):
            raise ValueError("|t_i| must be strictly increasing")

    def to_json(self) -> list:
        return points_to_json(self.points)

    @classmethod
    def from_json(cls, obj) -> "TranslateSelection":
        return cls(tuple(points_from_json(obj)))


def select_translates(
    candidates: Sequence[TimeFreqPoint], plan: BlockPlan
) -> TranslateSelection:
    """Greedy pick of plan.total candidates, in order, with |t| >= 4|t_prev| + 4.

    The rule alone makes the selection certifiable, whatever the signs and
    denominators of the candidates.  Write a_i = |t_i|, so a_{i+1} >= 4 a_i + 4.
    For two distinct ordered pairs (i, j) != (i', j'), i != j, i' != j', let m
    be the largest index in t_j - t_i - (t_j' - t_i').  If t_m cancels, the
    expression is a difference t_b - t_a of two distinct translates, of size
    at least a_b - a_a >= 3 a_a + 4 >= 4 for a < b.  Otherwise t_m enters
    with coefficient +-1 or +-2 against at most 2 a_{m-1} + a_{m-2} from the
    rest, leaving at least 2 a_{m-1} + 4 - a_{m-2} >= 4.  So the differences
    d = t_j - t_i are at least 4 apart, and |d| >= 4.  Atom supports lie in
    [0, 1), so the difference sets d + supp(h_k) are pairwise disjoint and
    clear of the base cell, and the window summands supp(h_k) - t_i are
    disjoint too.  build_frame still verifies all of this exactly.
    """
    chosen: List[TimeFreqPoint] = []
    prev: Optional[Fraction] = None
    for pt in candidates:
        mag = abs(pt.t)
        if prev is None or mag >= 4 * prev + 4:
            chosen.append(pt)
            prev = mag
            if len(chosen) == plan.total:
                return TranslateSelection(tuple(chosen))
    raise InsufficientSpread(
        f"only {len(chosen)} of {plan.total} points reachable with "
        f"growth rule |t| >= 4|t_prev| + 4"
    )


def certify_selection(
    selection: TranslateSelection,
    atoms: Sequence[HaarIndex],
    block_of: np.ndarray,
) -> Tuple[bool, str, bool, bool]:
    """The exact certificate of a selection, from one interval enumeration.

    Returns (difference sets pairwise disjoint, detail, difference sets clear
    of the base cell [0, 1), window summands disjoint).  The difference sets
    are supp(h_k) + t_j - t_i over ordered pairs i != j, with k the block of
    i; the window summands are supp(h_k) - t_i.  Every endpoint is scaled by
    the lcm of all denominators and compared as an integer, so the verdict is
    exact for rational translates of any size and denominator.
    """
    supports = [a.support for a in atoms]
    den = math.lcm(
        *(pt.t.denominator for pt in selection.points),
        *(x.denominator for support in supports for x in support),
    )
    ts = [int(pt.t * den) for pt in selection.points]
    ordered = sorted(ts)
    scaled = [(int(lo * den), int(hi * den)) for lo, hi in supports]
    intervals: List[Tuple[int, int]] = []
    summands: List[Tuple[int, int]] = []
    clear = True
    for i, ti in enumerate(ts):
        lo_k, hi_k = scaled[block_of[i]]
        lo, hi = lo_k - ti, hi_k - ti
        summands.append((lo, hi))
        intervals += [(tj + lo, tj + hi) for tj in ts[:i] + ts[i + 1 :]]
        # [tj + lo, tj + hi) meets the base cell [0, den) iff -hi < tj < den - lo;
        # tj = ti always does, so the row is clear iff no other translate does
        meeting = bisect_left(ordered, den - lo) - bisect_right(ordered, -hi)
        clear = clear and meeting == 1
    summands_ok = _first_overlap(summands) is None
    overlap = _first_overlap(intervals)
    if overlap is None:
        return True, "pairwise disjoint", clear, summands_ok
    (alo, ahi), (blo, bhi) = overlap
    detail = f"overlap between scaled intervals [{alo},{ahi}) and [{blo},{bhi})"
    return False, detail, clear, summands_ok


def _first_overlap(intervals: List[Tuple[int, int]]) -> Optional[tuple]:
    """Sort half-open intervals in place; return the first overlapping neighbours."""
    intervals.sort()
    for a, b in pairwise(intervals):
        if b[0] < a[1]:
            return a, b
    return None


@dataclass
class SparseWindow:
    """The window as placed pieces: (offset, local step function on [0, 1])."""

    step_log2: int
    pieces: List[Tuple[Fraction, SampledFunction]]

    def lp_norm_pth(self, p: Exponent) -> float:
        # piece supports are certified pairwise disjoint, so the p-mass adds
        return float(sum(lp_norm_pth(f, p) for _, f in self.pieces))

    def lp_norm(self, p: Exponent) -> float:
        return self.lp_norm_pth(p) ** (1.0 / p.p)


def _window_step(plan: BlockPlan, selection: TranslateSelection) -> int:
    max_scale = max(a.scale for a in block_atoms(plan))
    step = -(max_scale + 1)
    smax = max((abs(pt.s) for pt in selection.points), default=Fraction(0))
    # resolve relative modulations up to 2*max|s| strictly below Nyquist
    while smax > 0 and 4 * smax * Fraction(1, 2**-step) >= 1:
        step -= 1
    return step


def build_window(
    plan: BlockPlan,
    selection: TranslateSelection,
    step_log2: Optional[int] = None,
) -> SparseWindow:
    """Assemble the window sum_k sum_{i in J_k} N_k^(-1/2) tau_{-t_i}(e_{-s_i} h_k)."""
    if len(selection.points) != plan.total:
        raise ValueError("selection size differs from the plan total")
    if step_log2 is None:
        step_log2 = _window_step(plan, selection)
    atoms = block_atoms(plan)
    block_of = plan.block_of_index()
    local = Grid.over(0, 1, step_log2)
    base = [haar_function(a, plan.p, local) for a in atoms]
    pieces: List[Tuple[Fraction, SampledFunction]] = []
    for i, pt in enumerate(selection.points):
        k = int(block_of[i])
        f = base[k] * (plan.sizes[k] ** -0.5)
        if pt.s != 0:
            f = modulate(f, -pt.s)
        pieces.append((-pt.t, f))
    return SparseWindow(step_log2, pieces)


def _place(out: np.ndarray, grid: Grid, at: Fraction, values: np.ndarray) -> None:
    """Add a piece whose first cell starts at x = at into the dense values of grid."""
    start = at / grid.step_fraction - grid.origin_index
    if start.denominator != 1:
        raise NonAlignedShift(f"piece at {at} is not a multiple of the grid step")
    if not (0 <= start and start + len(values) <= grid.count):
        raise GridTooSmall(f"piece at {at} falls outside the grid")
    out[int(start) : int(start) + len(values)] += values


def window_on_grid(window: SparseWindow, grid: Grid) -> SampledFunction:
    """Materialize the window densely; raises GridTooSmall if the span is short
    and NonAlignedShift if a piece does not start on a grid point."""
    if grid.step_log2 != window.step_log2:
        raise GridTooSmall("grid step differs from the window step")
    out = np.zeros(grid.count, dtype=np.complex128)
    for offset, f in window.pieces:
        _place(out, grid, offset + f.grid.origin, f.values)
    return SampledFunction(grid, out)


@dataclass
class ConstructedFrame:
    """A built frame: plan, selection, window, certificates and fast-path layout."""

    plan: BlockPlan
    selection: TranslateSelection
    window: SparseWindow
    atoms: List[HaarIndex]
    q: float
    certificate: dict
    span_grid: Grid
    # f-independent error-term layout (ordered pairs i != j)
    _pair_block: np.ndarray = field(repr=False, default=None)
    _pair_weight_by_block: np.ndarray = field(repr=False, default=None)
    _atom_values: List[np.ndarray] = field(repr=False, default=None)

    @property
    def p(self) -> Exponent:
        return self.plan.p

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "selection": self.selection.to_json(),
            "step_log2": self.window.step_log2,
            "q": self.q,
            "certificate": self.certificate,
        }


def build_frame(
    plan: BlockPlan,
    selection: TranslateSelection,
    step_log2: Optional[int] = None,
) -> ConstructedFrame:
    """Window assembly plus the exact disjointness and norm certificates."""
    window = build_window(plan, selection, step_log2)
    atoms = block_atoms(plan)
    block_of = plan.block_of_index()
    ok, detail, clear, summands_ok = certify_selection(selection, atoms, block_of)
    q = plan.contraction
    norm_pth = window.lp_norm_pth(plan.p)
    certificate = {
        "difference_sets_disjoint": ok,
        "difference_sets_detail": detail,
        "difference_sets_clear_of_base": clear,
        "window_summands_disjoint": summands_ok,
        "window_norm_pth": norm_pth,
        "window_norm_target": plan.block_sum,
        "window_norm_error": abs(norm_pth - plan.block_sum),
        "q": q,
    }
    span_grid = Grid.over(0, 1, window.step_log2)
    frame = ConstructedFrame(
        plan, selection, window, atoms, q, certificate, span_grid
    )
    _attach_layout(frame)
    return frame


def frame_from_json(obj: dict) -> ConstructedFrame:
    plan = plan_from_sizes(Exponent(obj["plan"]["p"]), obj["plan"]["sizes"])
    selection = TranslateSelection.from_json(obj["selection"])
    return build_frame(plan, selection, obj["step_log2"])


def _attach_layout(frame: ConstructedFrame) -> None:
    """Precompute the f-independent error-term reduction.

    For input coefficients b_l = <f, h_l*>, the error term is the sum over
    ordered pairs (i, j), i != j, of

        N_k(i)^(-1/2) N_l(j)^(-1/2) b_l(j) * (phase) * (shifted modulated h_k(i)),

    supported on the pairwise-disjoint difference sets.  Its p-mass is then
    the sum over pairs of |coeff|^p * ||h_k||_p^p, which depends on f only
    through |b_l|^p with one weight per block pair (k, l) counting its ordered
    pairs.  The disjointness certificate is what licenses adding piece masses
    without merging; error_pth_direct walks the unreduced pieces instead.
    """
    p = frame.p.p
    block_of = frame.plan.block_of_index()
    sizes = np.array(frame.plan.sizes, dtype=np.float64)
    local = frame.span_grid
    frame._atom_values = [
        haar_function(a, frame.p, local).values.copy() for a in frame.atoms
    ]
    unit_pth = np.array(
        [float((np.abs(v) ** p).sum() * local.step) for v in frame._atom_values]
    )
    n = frame.plan.total
    counts = np.zeros((len(sizes), len(sizes)))
    for k, nk in enumerate(frame.plan.sizes):
        for l, nl in enumerate(frame.plan.sizes):
            counts[k, l] = nk * nl - (nk if k == l else 0)
    amp_p = np.outer(sizes ** (-p / 2.0) * unit_pth, sizes ** (-p / 2.0))
    frame._pair_block = block_of
    frame._pair_weight_by_block = (counts * amp_p).sum(axis=0)


def span_coefficients(frame: ConstructedFrame, f: SampledFunction) -> np.ndarray:
    """Dual-atom coefficients b_l of f against the plan's K atoms."""
    return np.array(
        [haar_functional(a, f, frame.p) for a in frame.atoms], dtype=np.complex128
    )


def _span_synthesis(frame: ConstructedFrame, b: np.ndarray) -> SampledFunction:
    """sum_l b_l h_l on the frame's span grid."""
    vals = np.zeros(frame.span_grid.count, dtype=np.complex128)
    for coeff, av in zip(b, frame._atom_values):
        vals += coeff * av
    return SampledFunction(frame.span_grid, vals)


def project_onto_span(
    frame: ConstructedFrame, f: SampledFunction
) -> Tuple[SampledFunction, float]:
    """Projection of f onto the span of the plan's atoms and the residual norm."""
    if f.grid != frame.span_grid:
        raise GridTooSmall("input must live on the frame's span grid")
    proj = _span_synthesis(frame, span_coefficients(frame, f))
    return proj, lp_norm(f - proj, frame.p)


@dataclass
class FrameImage:
    """Result of applying the frame operator: span part plus off-span error mass."""

    main: SampledFunction
    error_pth: float
    coefficients: np.ndarray

    def deviation_from(self, f: SampledFunction, p: Exponent) -> float:
        """|| S f - f ||_p; the error pieces live off the span of f, so masses add."""
        return (lp_norm_pth(self.main - f, p) + self.error_pth) ** (1.0 / p.p)


def frame_operator(frame: ConstructedFrame, f: SampledFunction) -> FrameImage:
    """Apply S f = sum_j g*_j(f) e_{s_j} tau_{t_j} g directly.

    f must live on the frame's span grid.  The span part of the image is the
    reproduced function sum_l b_l h_l; the off-span part is reported through
    its exact p-mass (piece masses add by the disjointness certificate, and
    they stay clear of the base cell by the clearance certificate).
    """
    if f.grid != frame.span_grid:
        raise GridTooSmall("input must live on the frame's span grid")
    if not (
        frame.certificate["difference_sets_disjoint"]
        and frame.certificate["difference_sets_clear_of_base"]
    ):
        raise InsufficientSpread(
            "selection lacks the disjointness/clearance certificates the "
            "operator's mass accounting relies on"
        )
    b = span_coefficients(frame, f)
    error_pth = float(frame._pair_weight_by_block @ (np.abs(b) ** frame.p.p))
    return FrameImage(_span_synthesis(frame, b), error_pth, b)


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
    local = frame.span_grid
    mod_cache: Dict[Fraction, np.ndarray] = {}
    for i, pi in enumerate(pts):
        k = int(block_of[i])
        base = frame._atom_values[k] * (frame.plan.sizes[k] ** -0.5)
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
                    from .grids import modulation_values

                    mod_cache[rel] = modulation_values(local, rel)
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


def operator_deviation(frame: ConstructedFrame, f: SampledFunction) -> float:
    """|| S f - f ||_p for f on the span grid."""
    return frame_operator(frame, f).deviation_from(f, frame.p)


def frame_operator_dense(
    frame: ConstructedFrame, f: SampledFunction, grid: Grid
) -> SampledFunction:
    """Materialize S f on an explicit grid (small frames only)."""
    if grid.step_log2 != frame.span_grid.step_log2:
        raise GridTooSmall("grid step differs from the frame step")
    img = frame_operator(frame, f)
    out = np.zeros(grid.count, dtype=np.complex128)
    _place(out, grid, img.main.grid.origin, img.main.values)
    for _, _, d, vals in error_pieces(frame, f):
        _place(out, grid, d, vals)
    return SampledFunction(grid, out)


@dataclass
class NeumannResult:
    solution: SampledFunction
    iterations: int
    residual: float
    projection_residual: float


def invert_neumann(
    frame: ConstructedFrame, f: SampledFunction, tol: float
) -> NeumannResult:
    """Solve S y = f on the span by the geometric iteration y <- f + (I - S) y.

    The iteration runs on the span of the plan's atoms, where the certified
    contraction q < 1 bounds the iteration budget by ceil(log tol / log q) + 1;
    exceeding the budget signals an implementation bug, not a data condition.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    proj, proj_residual = project_onto_span(frame, f)
    base = lp_norm(proj, frame.p)
    if base == 0.0:
        return NeumannResult(proj, 0, 0.0, proj_residual)
    if frame.q < 1.0:
        budget = math.ceil(math.log(tol) / math.log(frame.q)) + 1
    else:
        budget = 1  # degenerate demo plans: one application reproduces the span

    y = proj
    for n in range(1, budget + 1):
        sy = frame_operator(frame, y).main
        residual = lp_norm(sy - proj, frame.p)
        if residual <= tol * base:
            return NeumannResult(y, n, residual / base, proj_residual)
        y = proj + (y - sy)
    raise NoConvergence(
        f"residual above {tol} after the certified budget of {budget} iterations"
    )


@dataclass
class ReconstructionResult:
    approximation: SampledFunction
    relative_error: float
    synthesis_residual: float
    iterations: int


def reconstruct(
    frame: ConstructedFrame, f: SampledFunction, tol: float
) -> ReconstructionResult:
    """Frame reconstruction sum_j g*_j(S^{-1} f) e_{s_j} tau_{t_j} g.

    The span part of the synthesis is the approximation whose relative error
    meets the tolerance; the off-span error mass is returned as the synthesis
    residual, bounded by the contraction constant q (not by the tolerance).
    """
    inv = invert_neumann(frame, f, tol)
    image = frame_operator(frame, inv.solution)
    base = lp_norm(f, frame.p)
    if base == 0.0:
        return ReconstructionResult(image.main, 0.0, 0.0, inv.iterations)
    rel = lp_norm(image.main - f, frame.p) / base
    residual = image.deviation_from(f, frame.p) / base
    return ReconstructionResult(image.main, rel, residual, inv.iterations)


def sign_flip_synthesis_max(
    frame: ConstructedFrame,
    f: SampledFunction,
    patterns: int,
    seed: int,
    tol: float = 1e-8,
) -> float:
    """Max over sampled sign patterns of ||sum_j theta_j c_j u_j||_p / ||f||_p.

    c_j are the reconstruction coefficients g*_j(S^{-1} f).  Flipping signs
    rescales each block's span contribution by the block's mean sign and
    leaves every error piece's modulus unchanged, so the norm is evaluated
    exactly from the layout.
    """
    inv = invert_neumann(frame, f, tol)
    image = frame_operator(frame, inv.solution)
    b, error_pth = image.coefficients, image.error_pth
    p = frame.p.p
    block_of = frame.plan.block_of_index()
    signs = sign_matrix(rng_for(seed), patterns, frame.plan.total).astype(np.float64)
    base = lp_norm(f, frame.p)
    atom_mat = np.array(frame._atom_values)
    best = 0.0
    sizes = np.array(frame.plan.sizes, dtype=np.float64)
    for row in signs:
        means = np.bincount(block_of, weights=row, minlength=len(sizes)) / sizes
        span_vals = (means * b) @ atom_mat
        span_pth = float((np.abs(span_vals) ** p).sum() * frame.span_grid.step)
        best = max(best, (span_pth + error_pth) ** (1.0 / p) / base)
    return best


def span_corpus(
    frame: ConstructedFrame, size: int, seed: int
) -> List[SampledFunction]:
    """Seeded random elements of the span of the plan's atoms."""
    out = []
    atom_mat = np.array(frame._atom_values)
    for trial in range(size):
        coeffs = complex_gaussian(rng_for(seed, trial), len(frame.atoms))
        out.append(SampledFunction(frame.span_grid, coeffs @ atom_mat))
    return out


def spread_candidates(
    count: int,
    base: int = 4,
    ratio: int = 5,
    alternate_signs: bool = False,
    s_value: Fraction = Fraction(0),
) -> List[TimeFreqPoint]:
    """Geometric candidate translates (base * ratio^n, s), exact integers."""
    pts = []
    t = base
    for n in range(count):
        sign = -1 if (alternate_signs and n % 2) else 1
        pts.append(TimeFreqPoint(Fraction(sign * t), s_value))
        t *= ratio
    return pts
