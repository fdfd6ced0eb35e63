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
Disjointness is checked exactly, never assumed: one certificate,
certify_selection, runs once for every built or loaded frame.  When the
growth rule holds and the atom supports lie in [0, 1) it settles the
certificate in n - 1 exact integer comparisons; any other selection (a
hand-edited frame or candidate file) falls back to enumerating all n^2
difference intervals, scaled by the lcm of every denominator and compared as
integers.  Both paths are exact for any rational input.  Translates are kept
as exact rationals throughout: at the certified block sizes they exceed the
double-precision range, so no code path converts them to floats.

Because the difference sets avoid the base-cell span, the error term of one
application contributes nothing to the coefficient functionals of the next.
reconstruct_rows therefore solves S y = f on the span V by the Neumann
iteration, for a batch of functions at once: the rows of an (n, count)
matrix on the span grid, as span_corpus returns them for a range of trials
(verify-frame solves its corpus one grids.row_chunks chunk at a time).  S f
yields both the projection of f onto V and the contraction ratio, and the
image S y of the converged iterate is the result.  On V one application
reproduces the input up to rounding, so most rows stop after one step, well
inside the certified budget ceil(log tol / log q) + 1; near the rounding
floor a row refines further until its image meets the tolerance against f,
or the batch exhausts the budget.  Converged rows leave the batch, and each
row takes exactly the floating-point steps it would take alone, so one
function is solved as a one-row matrix, and the chunks of a corpus do not
change its results; frame_operator_rows is the operator in the same form.  The
coefficient functionals read the per-frame layout that build_frame computes
once, each atom's (i, mid, j) cell slice and dual amplitude;
span_coefficients, one haar_functional call per atom, is their test oracle.
The off-span error term is reported separately as the synthesis residual and
checked against q rather than against the tolerance.

Translates need not be dyadic.  The certificate is exact for any rational
translate, and the operator works on the atom rows of the span grid, so no
product path places a piece at a translate.  Only the dense oracles
(window_on_grid, frame_operator_dense) place pieces, and they raise
NonAlignedShift for a piece that does not start on a grid point.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import stochastic
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
    check_cells,
    lp_norm,
    lp_norm_pth,
    moduli_pth,
    modulate,
    modulation_values,
    pth_roots,
)
from .haar import (
    HaarIndex,
    functional_layout,
    haar_function,
    haar_functional,
    haar_indices,
    unconditionality_bound,
)
from .rng import complex_gaussian, rng_for

MAX_LEAD_SIZE = 10**6
# reconstruct_rows treats an input within this relative distance of its
# projection onto the span as a span input: far above the projection's rounding
# error (a few ulps of the norm), far below any deliberate off-span component
SPAN_RTOL = 2.0**-40


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
        bound = (2.0 * unconditionality_bound(p)) ** (-p.p / 2.0)
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
        return unconditionality_bound(self.p) * self.block_sum ** (2.0 / self.p.p)

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
    """Plan with explicitly given block sizes (validated).  Each size must be
    an int: a float is refused, not truncated, and so is a bool."""
    if not all(type(n) is int for n in sizes):
        raise ValueError(f"block sizes {sizes} are not all integers")
    return BlockPlan(p, tuple(sizes))


def block_atoms(plan: BlockPlan) -> List[HaarIndex]:
    """One Haar atom per block: base cell 0, increasing scale, fixed order."""
    return haar_indices([0], max_scale=len(plan.sizes))[: len(plan.sizes)]


@dataclass(frozen=True)
class TranslateSelection:
    """Selected points (t_i, s_i), |t_i| strictly increasing, exact rationals."""

    points: Tuple[TimeFreqPoint, ...]

    def __post_init__(self):
        if not all(_grows(a.t, b.t) for a, b in pairwise(self.points)):
            raise ValueError("|t_i| must be strictly increasing")

    def to_json(self) -> list:
        return points_to_json(self.points)

    @classmethod
    def from_json(cls, obj) -> "TranslateSelection":
        return cls(tuple(points_from_json(obj)))


def _grows(prev: Fraction, t: Fraction) -> bool:
    """|t| > |prev|, compared as integers: |a| d > |c| b for t = a/b, prev = c/d."""
    return abs(t.numerator) * prev.denominator > abs(prev.numerator) * t.denominator


def _meets_growth_rule(prev: Fraction, t: Fraction) -> bool:
    """The growth rule between consecutive translates, |t| >= 4|prev| + 4,
    compared as integers: |a| d >= 4 (|c| + d) b for t = a/b, prev = c/d."""
    return (abs(t.numerator) * prev.denominator
            >= 4 * (abs(prev.numerator) + prev.denominator) * t.denominator)


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
    disjoint too.  certify_selection checks exactly these two premises.
    """
    chosen: List[TimeFreqPoint] = []
    for pt in candidates:
        if not chosen or _meets_growth_rule(chosen[-1].t, pt.t):
            chosen.append(pt)
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
    """The exact certificate of a selection.

    Returns (difference sets pairwise disjoint, detail, difference sets clear
    of the base cell [0, 1), window summands disjoint).  The difference sets
    are supp(h_k) + t_j - t_i over ordered pairs i != j, with k the block of
    i; the window summands are supp(h_k) - t_i.

    When consecutive magnitudes follow the growth rule |t_{i+1}| >= 4|t_i| + 4
    and every atom support lies in [0, 1), all three properties hold by the
    argument in select_translates, so n - 1 exact integer comparisons settle
    the certificate.  Any other selection (only a hand-edited frame or
    candidate file yields one) goes to _certify_by_enumeration, which is exact
    for every rational input.
    """
    if all(_meets_growth_rule(a.t, b.t) for a, b in pairwise(selection.points)) and all(
        0 <= lo and hi <= 1 for lo, hi in (a.support for a in atoms)
    ):
        return True, "pairwise disjoint", True, True
    return _certify_by_enumeration(selection, atoms, block_of)


def _certify_by_enumeration(
    selection: TranslateSelection,
    atoms: Sequence[HaarIndex],
    block_of: np.ndarray,
) -> Tuple[bool, str, bool, bool]:
    """certify_selection by enumerating all n(n - 1) difference intervals.

    Every endpoint is scaled by the lcm of all denominators and compared as an
    integer, so the verdict is exact for rational translates of any size and
    denominator.  A failed disjointness verdict names two overlapping ordered
    pairs (i, j) and the blocks of i and j.  This is also the test oracle for
    the growth-rule path of certify_selection.
    """
    supports = [a.support for a in atoms]
    den = math.lcm(
        *(pt.t.denominator for pt in selection.points),
        *(x.denominator for support in supports for x in support),
    )
    ts = [int(pt.t * den) for pt in selection.points]
    ordered = sorted(ts)
    scaled = [(int(lo * den), int(hi * den)) for lo, hi in supports]
    intervals: List[Tuple[int, int, int, int]] = []
    summands: List[Tuple[int, int]] = []
    clear = True
    for i, ti in enumerate(ts):
        lo_k, hi_k = scaled[block_of[i]]
        lo, hi = lo_k - ti, hi_k - ti
        summands.append((lo, hi))
        intervals += [(tj + lo, tj + hi, i, j) for j, tj in enumerate(ts) if j != i]
        # [tj + lo, tj + hi) meets the base cell [0, den) iff -hi < tj < den - lo;
        # tj = ti always does, so the row is clear iff no other translate does
        meeting = bisect_left(ordered, den - lo) - bisect_right(ordered, -hi)
        clear = clear and meeting == 1
    summands_ok = _first_overlap(summands) is None
    overlap = _first_overlap(intervals)
    if overlap is None:
        return True, "pairwise disjoint", clear, summands_ok
    pairs = " and ".join(
        f"({i}, {j}) [blocks {block_of[i]}, {block_of[j]}]" for _, _, i, j in overlap
    )
    detail = f"overlap between the difference sets of (i, j) = {pairs}"
    return False, detail, clear, summands_ok


def _first_overlap(intervals: List[tuple]) -> Optional[tuple]:
    """Sort half-open intervals (lo, hi, *tags) in place; return the first
    overlapping neighbours."""
    intervals.sort()
    for a, b in pairwise(intervals):
        if b[0] < a[1]:
            return a, b
    return None


@dataclass
class ConstructedFrame:
    """A built frame: plan, selection, window, certificates and fast-path layout.

    The window sum_k sum_{i in J_k} N_k^(-1/2) tau_{-t_i}(e_{-s_i} h_k) is kept
    as its K block rows: rows[k] is block k's atom sampled on span_grid, that
    is on [0, 1] at the window step.  Every piece is a scaled, possibly
    modulated copy of a row, which window_pieces places point by point.
    """

    plan: BlockPlan
    selection: TranslateSelection
    atoms: List[HaarIndex]
    rows: np.ndarray = field(repr=False)
    certificate: dict
    span_grid: Grid
    # the f-independent error-term weight of each block's coefficient (see
    # _block_error_weights)
    _pair_weight_by_block: np.ndarray = field(repr=False)
    # each atom's functional_layout (i, mid, j, amp) on span_grid
    _functional_layout: Tuple[Tuple[int, int, int, float], ...] = field(repr=False)

    @property
    def p(self) -> Exponent:
        return self.plan.p

    @property
    def q(self) -> float:
        return self.certificate["q"]

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "selection": self.selection.to_json(),
            "step_log2": self.span_grid.step_log2,
            "q": self.q,
            "certificate": self.certificate,
        }


def _window_piece(local: Grid, row: np.ndarray, size: int, s: Fraction) -> SampledFunction:
    """An atom row scaled by size^(-1/2) and modulated by -s, on local."""
    f = SampledFunction(local, row) * (size ** -0.5)
    return f if s == 0 else modulate(f, -s)


def window_pieces(frame: ConstructedFrame) -> Iterator[Tuple[Fraction, SampledFunction]]:
    """(offset, local step function on [0, 1]) of every point of the window,
    in point order."""
    sizes = frame.plan.sizes
    for pt, k in zip(frame.selection.points, frame.plan.block_of_index()):
        yield -pt.t, _window_piece(frame.span_grid, frame.rows[k], sizes[k], pt.s)


def _window_norm_pth(
    plan: BlockPlan, selection: TranslateSelection, rows: np.ndarray, local: Grid
) -> float:
    """The window's p-mass: the sum of the piece masses in point order.  Piece
    supports are certified pairwise disjoint, so the p-mass adds; a piece
    depends only on its block and modulation, so each distinct one is
    measured once."""
    mass: Dict[Tuple[int, int, int], float] = {}
    masses = []
    for pt, k in zip(selection.points, plan.block_of_index().tolist()):
        key = (k, pt.s.numerator, pt.s.denominator)
        if key not in mass:
            mass[key] = lp_norm_pth(_window_piece(local, rows[k], plan.sizes[k], pt.s), plan.p)
        masses.append(mass[key])
    return float(sum(masses))


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


def build_frame(plan: BlockPlan, selection: TranslateSelection) -> ConstructedFrame:
    """Window assembly plus the exact disjointness and norm certificates;
    raises ConfigError if the span grid would have more than MAX_CELLS cells."""
    if len(selection.points) != plan.total:
        raise ValueError("selection size differs from the plan total")
    atoms = block_atoms(plan)
    # the window step is 2^-m for the least m past every atom scale that
    # resolves relative modulations up to 2*max|s| strictly below Nyquist:
    # 4|s| < 2^m, that is 4|a| < b 2^m, or m at least the bit length of
    # floor(4|a| / b), for every s = a/b; a span grid past MAX_CELLS cells is
    # refused before any row is made
    step = -max(max(a.scale for a in atoms) + 1,
                *((4 * abs(pt.s.numerator) // pt.s.denominator).bit_length()
                  for pt in selection.points))
    check_cells(1, step)
    span_grid = Grid.over(0, 1, step)
    rows = np.array([haar_function(a, plan.p, span_grid).values for a in atoms])
    ok, detail, clear, summands_ok = certify_selection(selection, atoms, plan.block_of_index())
    norm_pth = _window_norm_pth(plan, selection, rows, span_grid)
    certificate = {
        "difference_sets_disjoint": ok,
        "difference_sets_detail": detail,
        "difference_sets_clear_of_base": clear,
        "window_summands_disjoint": summands_ok,
        "window_norm_pth": norm_pth,
        "window_norm_target": plan.block_sum,
        "window_norm_error": abs(norm_pth - plan.block_sum),
        "q": plan.contraction,
    }
    return ConstructedFrame(
        plan, selection, atoms, rows, certificate, span_grid,
        _block_error_weights(plan, rows, span_grid.step),
        tuple(functional_layout(a, plan.p, span_grid) for a in atoms),
    )


def frame_from_json(obj: dict) -> ConstructedFrame:
    """The frame a to_json dict describes; raises ValueError if a block size is
    not an integer, or if its stored window step is not the one its plan and
    selection give."""
    plan = plan_from_sizes(Exponent(obj["plan"]["p"]), obj["plan"]["sizes"])
    frame = build_frame(plan, TranslateSelection.from_json(obj["selection"]))
    step = frame.span_grid.step_log2
    if obj["step_log2"] != step:
        raise ValueError(f"step_log2 {obj['step_log2']} is not the window step "
                         f"{step} of the plan and selection")
    return frame


def _block_error_weights(
    plan: BlockPlan, atom_values: np.ndarray, step: float
) -> np.ndarray:
    """The f-independent error-term reduction.

    For input coefficients b_l = <f, h_l*>, the error term is the sum over
    ordered pairs (i, j), i != j, of

        N_k(i)^(-1/2) N_l(j)^(-1/2) b_l(j) * (phase) * (shifted modulated h_k(i)),

    supported on the pairwise-disjoint difference sets.  Its p-mass is then
    the sum over pairs of |coeff|^p * ||h_k||_p^p, which depends on f only
    through |b_l|^p with one weight per block pair (k, l) counting its ordered
    pairs.  The disjointness certificate is what licenses adding piece masses
    without merging; error_pth_direct walks the unreduced pieces instead.
    """
    p = plan.p.p
    sizes = np.array(plan.sizes, dtype=np.float64)
    unit_pth = moduli_pth(np.abs(atom_values), step, plan.p)
    # ordered pairs of distinct points, each count exact below 2^53
    counts = np.outer(sizes, sizes) - np.diag(sizes)
    amp_p = np.outer(sizes ** (-p / 2.0) * unit_pth, sizes ** (-p / 2.0))
    return (counts * amp_p).sum(axis=0)


def span_coefficients(frame: ConstructedFrame, f: SampledFunction) -> np.ndarray:
    """Dual-atom coefficients b_l of f against the plan's K atoms, one
    haar_functional call each: the test oracle of frame_operator_rows."""
    return np.array(
        [haar_functional(a, f, frame.p) for a in frame.atoms], dtype=np.complex128
    )


@dataclass
class FrameImages:
    """The frame operator applied to each row of a batch: the span part of
    each image and its off-span error mass."""

    main: np.ndarray  # (n, count)
    error_pth: np.ndarray  # (n,)
    coefficients: np.ndarray  # (n, K)


def _reproduce(frame: ConstructedFrame, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficients b of every row of values and the span part sum_l b_l h_l
    of its image, both read off the frame's functional layouts."""
    step = frame.span_grid.step
    b = np.empty((len(values), len(frame.atoms)), dtype=np.complex128)
    for k, (i, mid, j, amp) in enumerate(frame._functional_layout):
        if mid == j:
            b[:, k] = values[:, i:j].sum(axis=1) * step
        else:
            b[:, k] = (values[:, i:mid].sum(axis=1) - values[:, mid:j].sum(axis=1)) * amp * step
    main = np.zeros(values.shape, dtype=np.complex128)
    for k, av in enumerate(frame.rows):
        main += b[:, k, None] * av
    return b, main


def frame_operator_rows(frame: ConstructedFrame, values: np.ndarray) -> FrameImages:
    """Apply S f = sum_j g*_j(f) e_{s_j} tau_{t_j} g to every row f of values.

    values is an (n, count) matrix of functions on the frame's span grid.
    The span part of each image is the reproduced function sum_l b_l h_l;
    the off-span part is reported through its exact p-mass (piece masses add
    by the disjointness certificate, and they stay clear of the base cell by
    the clearance certificate).
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2 or values.shape[1] != frame.span_grid.count:
        raise GridTooSmall("rows must live on the frame's span grid")
    if not (
        frame.certificate["difference_sets_disjoint"]
        and frame.certificate["difference_sets_clear_of_base"]
    ):
        raise InsufficientSpread(
            "selection lacks the disjointness/clearance certificates the "
            "operator's mass accounting relies on"
        )
    b, main = _reproduce(frame, values)
    # a 1-D product per row: one matrix product may round differently
    mass = np.abs(b) ** frame.p.p
    error_pth = np.array([float(frame._pair_weight_by_block @ row) for row in mass])
    return FrameImages(main, error_pth, b)


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


@dataclass
class Reconstructions:
    """reconstruct_rows of a batch, one entry per row: the solution y of
    S y = y_0 (the projection of f) and its image S y.

    image.main approximates f; the errors and the contraction ratio
    || S f - f ||_p are relative to || f ||_p (all 0 when f is zero).
    """

    solution: np.ndarray  # (n, count)
    image: FrameImages
    relative_error: np.ndarray
    synthesis_residual: np.ndarray
    contraction_ratio: np.ndarray
    iterations: np.ndarray


def reconstruct_rows(
    frame: ConstructedFrame, values: np.ndarray, tol: float
) -> Reconstructions:
    """Frame reconstruction sum_j g*_j(S^{-1} f) e_{s_j} tau_{t_j} g of every row f.

    S f gives the projection y_0 of f onto the span of the plan's atoms and
    the contraction ratio.  S y = y_0 is then solved on the span by the
    geometric iteration y <- y_0 + (I - S) y, whose certified contraction
    q < 1 bounds the iteration count by ceil(log tol / log q) + 1.  A row
    stops once || S y - y_0 || <= tol || y_0 ||; for a span input (f within
    SPAN_RTOL of y_0) it also needs the reported relative error
    || S y - f || / || f || <= tol, so such an input either meets tol against f
    or raises NoConvergence.  NoConvergence past the budget, for any row,
    means the tolerance lies below the rounding floor.  A row whose
    projection is zero takes no step.  The image S y of each converged
    iterate is returned: its span part is the approximation of f, and its
    off-span error mass is the synthesis residual, bounded by q (not by the
    tolerance).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    f = np.asarray(values, dtype=np.complex128)
    p, step = frame.p, frame.span_grid.step

    def pth(x: np.ndarray) -> np.ndarray:
        return moduli_pth(np.abs(x), step, p)

    def roots(x: np.ndarray) -> np.ndarray:
        return np.array(pth_roots(x, p))

    def norms(x: np.ndarray) -> np.ndarray:
        return roots(pth(x))

    sf = frame_operator_rows(frame, f)
    y0 = sf.main
    base, norm = norms(y0), norms(f)
    if frame.q < 1.0:
        budget = math.ceil(math.log(tol) / math.log(frame.q)) + 1
    else:
        budget = 1  # degenerate demo plans: one application reproduces the span
    on_span = norms(f - y0) <= SPAN_RTOL * norm
    y = y0.copy()
    iterations = np.zeros(len(f), dtype=np.int64)
    active = np.flatnonzero(base != 0.0)
    for n in range(1, budget + 1):
        if not active.size:
            break
        main = _reproduce(frame, y[active])[1]
        done = norms(main - y0[active]) <= tol * base[active]
        near = done & on_span[active]
        rows = active[near]
        done[near] = norms(main[near] - f[rows]) / norm[rows] <= tol
        iterations[active[done]] = n
        active, main = active[~done], main[~done]
        y[active] = y0[active] + (y[active] - main)
    if active.size:
        raise NoConvergence(
            f"residual above {tol} after the certified budget of {budget} iterations"
        )
    image = frame_operator_rows(frame, y)
    image_pth = pth(image.main - f)

    def relative(x: np.ndarray) -> np.ndarray:
        return np.divide(x, norm, out=np.zeros_like(norm), where=norm != 0.0)

    return Reconstructions(
        y,
        image,
        relative(roots(image_pth)),
        relative(roots(image_pth + image.error_pth)),
        relative(roots(pth(sf.main - f) + sf.error_pth)),
        iterations,
    )


def sign_flip_synthesis_sup(
    frame: ConstructedFrame, f: SampledFunction, tol: float = 1e-8
) -> float:
    """Sup over all sign patterns theta of ||sum_j theta_j c_j u_j||_p / ||f||_p.

    c_j are the reconstruction coefficients g*_j(S^{-1} f).  Flipping signs
    rescales block k's span part by the block's mean sign m_k and leaves every
    error piece's modulus unchanged.  So the p-mass is the p-mass of
    sum_k m_k b_k h_k, convex in m over the cube [-1, 1]^K, plus a constant.
    Its maximum is at one of the 2^K vertices, the block-constant patterns,
    which are attained: 2^K evaluations give the supremum exactly.
    """
    image = reconstruct_rows(frame, f.values[None, :], tol).image
    rows = stochastic.all_sign_patterns(len(frame.atoms)) * image.coefficients
    span_pth = stochastic.combination_pth(rows, frame.rows, frame.span_grid.step,
                                          [frame.p])[0]
    worst = float((span_pth.max() + image.error_pth[0]) ** (1.0 / frame.p.p))
    return worst / lp_norm(f, frame.p)


def span_corpus(frame: ConstructedFrame, size: int, seed: int, start: int = 0) -> np.ndarray:
    """Seeded random elements of the span of the plan's atoms, trials start to
    start + size - 1, the rows of a (size, count) matrix on the span grid."""
    return np.array([complex_gaussian(rng_for(seed, trial), len(frame.atoms)) @ frame.rows
                     for trial in range(start, start + size)])


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
