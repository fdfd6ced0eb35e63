"""Block-structured Gabor frames built from translated Haar atoms.

The construction pairs K Haar atoms (taken on the base cell with increasing
scale) with the K blocks of an admissible plan (plans.BlockPlan): block k has
N_k time-frequency points.  The window is the disjoint union of scaled copies
of the atoms placed at the negated translates.  Applying the coefficient
functionals (scaled dual Haar atoms) to a function on the base-cell span V
reproduces it exactly (the main term), plus an error term whose summands live
on the pairwise-disjoint difference sets supp(h_k) + t_j - t_i.  The plan's
certified contraction constant q < 1 bounds the error term's norm relative to
the input; operators applies the frame operator and solves with it.

Selected translates grow geometrically (|t_{i+1}| >= 4 |t_i| + 4), which
forces every pairwise difference apart by more than the unit support length.
Disjointness is checked exactly, never assumed: one certificate,
certify_selection, runs once for every built or loaded frame.  When the
growth rule holds and the atom supports lie in [0, 1) it settles the
certificate with the n - 1 exact integer comparisons that the selection
made once, when it was constructed; any other selection (a
hand-edited frame or candidate file) falls back to enumerating all n^2
difference intervals, scaled by the lcm of every denominator and compared as
integers.  Both paths are exact for any rational input.  Translates are kept
as exact rationals throughout: at the certified block sizes they exceed the
double-precision range, so no code path converts them to floats.

Translates need not be dyadic.  The certificate is exact for any rational
translate, and the operator works on the atom rows of the span grid, so no
product path places a piece at a translate.  A frame makes what only the
operator reads on first use, once: the atom rows, each atom's (i, mid, j)
cell slice and dual amplitude, and the f-independent error-term weight of
each block.

build_frame makes no array for an unmodulated selection, so build-frame on one
never loads numpy.  The modulus of an unmodulated piece is amp * N_k^(-1/2)
on the atom's cells and 0 elsewhere, and _unmodulated_pth takes its p-mass in
plain Python with the float operations of lp_norm_pth, except for the power:
math.pow is libm's pow, which numpy's power is too, but on CPUs where numpy
takes its AVX-512 loop for it; there the two can round a power 1 ulp apart.
A modulated piece keeps lp_norm_pth, since numpy's SIMD cos, sin and hypot
set its bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InsufficientSpread
from .gabor import TimeFreqPoint, points_from_json, points_to_json
from .grids import (
    Grid,
    SampledFunction,
    check_cells,
    first_overlap,
    lp_norm_pth,
    moduli_pth,
    modulate,
    pairwise_sum,
)
from .haar import HaarIndex, haar_function, layout
from .plans import BlockPlan, Exponent, plan_from_sizes


def block_atoms(plan: BlockPlan) -> List[HaarIndex]:
    """One Haar atom per block on base cell 0: the father, then atom k at scale
    j = k.bit_length() - 1 and position k - 2^j.  haar_indices([0], K) lists
    the father, then the 2^j atoms of each scale j by position, so these are
    its first K entries, made without the other 2^(K+1) - K."""
    atoms = [HaarIndex(0)]
    for k in range(1, len(plan.sizes)):
        j = k.bit_length() - 1
        atoms.append(HaarIndex(0, j, k - 2**j))
    return atoms


@dataclass(frozen=True)
class TranslateSelection:
    """Selected points (t_i, s_i), |t_i| strictly increasing, exact rationals.

    follows_growth_rule records whether every consecutive pair meets the
    growth rule |t_{i+1}| >= 4|t_i| + 4.  Left None, it is found in one pass
    at construction; the rule implies strict growth, which is checked apart
    only when it fails.  select_translates, which tests every consecutive
    pair as it keeps the later point, hands over True.
    """

    points: Tuple[TimeFreqPoint, ...]
    follows_growth_rule: Optional[bool] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.follows_growth_rule is not None:
            return
        rule = all(_meets_growth_rule(a.t, b.t) for a, b in pairwise(self.points))
        if not rule and not all(_grows(a.t, b.t) for a, b in pairwise(self.points)):
            raise ValueError("|t_i| must be strictly increasing")
        object.__setattr__(self, "follows_growth_rule", rule)

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

    A point is kept only once it meets the rule against the point kept
    before it, so every consecutive pair of the selection has been tested
    and met it: the selection's verdict is True, the value its construction
    would find by testing the same pairs again, and it is handed over.
    """
    chosen: List[TimeFreqPoint] = []
    for pt in candidates:
        if not chosen or _meets_growth_rule(chosen[-1].t, pt.t):
            chosen.append(pt)
            if len(chosen) == plan.total:
                return TranslateSelection(tuple(chosen), follows_growth_rule=True)
    raise InsufficientSpread(
        f"only {len(chosen)} of {plan.total} points reachable with "
        f"growth rule |t| >= 4|t_prev| + 4"
    )


def certify_selection(
    selection: TranslateSelection,
    atoms: Sequence[HaarIndex],
    block_of: Sequence[int],
) -> Tuple[bool, str, bool, bool]:
    """The exact certificate of a selection.

    Returns (difference sets pairwise disjoint, detail, difference sets clear
    of the base cell [0, 1), window summands disjoint).  The difference sets
    are supp(h_k) + t_j - t_i over ordered pairs i != j, with k the block of
    i; the window summands are supp(h_k) - t_i.

    When consecutive magnitudes follow the growth rule |t_{i+1}| >= 4|t_i| + 4
    and every atom support lies in [0, 1), all three properties hold by the
    argument in select_translates, so the selection's follows_growth_rule,
    found by n - 1 exact integer comparisons (by select_translates as it
    picks, or at construction), settles the certificate.  Any other
    selection (only a hand-edited frame or candidate file yields one) goes
    to _certify_by_enumeration, which is exact for every rational input.
    """
    if selection.follows_growth_rule and all(
        0 <= lo and hi <= 1 for lo, hi in (a.support for a in atoms)
    ):
        return True, "pairwise disjoint", True, True
    return _certify_by_enumeration(selection, atoms, block_of)


def _certify_by_enumeration(
    selection: TranslateSelection,
    atoms: Sequence[HaarIndex],
    block_of: Sequence[int],
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
    summands_ok = first_overlap(summands) is None
    overlap = first_overlap(intervals)
    if overlap is None:
        return True, "pairwise disjoint", clear, summands_ok
    pairs = " and ".join(
        f"({i}, {j}) [blocks {block_of[i]}, {block_of[j]}]" for _, _, i, j in overlap
    )
    detail = f"overlap between the difference sets of (i, j) = {pairs}"
    return False, detail, clear, summands_ok


@dataclass
class ConstructedFrame:
    """A built frame: plan, selection, window, certificates and fast-path layout.

    The window sum_k sum_{i in J_k} N_k^(-1/2) tau_{-t_i}(e_{-s_i} h_k) is kept
    as its K block rows: rows[k] is block k's atom sampled on span_grid, that
    is on [0, 1] at the window step.  Every piece is a scaled, possibly
    modulated copy of a row (_window_piece).  The rows, the functional
    layouts and the block weights that the operator reads are made on first
    use.
    """

    plan: BlockPlan
    selection: TranslateSelection
    atoms: List[HaarIndex]
    certificate: dict
    span_grid: Grid

    @property
    def p(self) -> Exponent:
        return self.plan.p

    @property
    def q(self) -> float:
        return self.certificate["q"]

    @cached_property
    def rows(self) -> np.ndarray:
        """The (K, span_grid.count) atom rows."""
        import numpy as np

        return np.array([haar_function(a, self.p, self.span_grid).values for a in self.atoms])

    @cached_property
    def _pair_weight_by_block(self) -> np.ndarray:
        """The f-independent error-term weight of each block's coefficient
        (see _block_error_weights)."""
        return _block_error_weights(self.plan, self.rows, self.span_grid.step)

    @cached_property
    def _functional_layout(self) -> Tuple[Tuple[int, int, int, float], ...]:
        """Each atom's dual atom (i, mid, j, amp) on span_grid, its layout at p'."""
        return tuple(layout(a, self.p.conjugate, self.span_grid) for a in self.atoms)

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
    return modulate(SampledFunction(local, row) * (size ** -0.5), -s)


def _unmodulated_pth(atom: HaarIndex, p: Exponent, size: int, local: Grid) -> float:
    """lp_norm_pth of the unmodulated piece _window_piece(local, row, size, 0),
    row the atom on local, in plain Python: the modulus amp * size^(-1/2) on
    the atom's cells, raised by math.pow, summed with 0 on every other cell
    in numpy's order, times the step."""
    i, _, j, amp = layout(atom, p.p, local)
    power = math.pow(amp * size ** -0.5, p.p)
    return pairwise_sum([0.0] * i + [power] * (j - i) + [0.0] * (local.count - j)) * local.step


def _window_norm_pth(
    plan: BlockPlan, selection: TranslateSelection, atoms: Sequence[HaarIndex], local: Grid
) -> float:
    """The window's p-mass: the sum of the piece masses in point order.  Piece
    supports are certified pairwise disjoint, so the p-mass adds; a piece
    depends only on its block and modulation, so each distinct one is
    measured once, an unmodulated one without numpy."""
    mass: Dict[Tuple[int, int, int], float] = {}
    masses = []
    for pt, k in zip(selection.points, plan.block_of_index()):
        key = (k, pt.s.numerator, pt.s.denominator)
        if key not in mass:
            if pt.s == 0:
                mass[key] = _unmodulated_pth(atoms[k], plan.p, plan.sizes[k], local)
            else:
                row = haar_function(atoms[k], plan.p, local).values
                mass[key] = lp_norm_pth(_window_piece(local, row, plan.sizes[k], pt.s), plan.p)
        masses.append(mass[key])
    return float(sum(masses))


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
    ok, detail, clear, summands_ok = certify_selection(selection, atoms, plan.block_of_index())
    norm_pth = _window_norm_pth(plan, selection, atoms, span_grid)
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
    return ConstructedFrame(plan, selection, atoms, certificate, span_grid)

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
    without merging; the test oracle error_pth_direct walks the unreduced
    pieces instead.
    """
    import numpy as np

    p = plan.p.p
    sizes = np.array(plan.sizes, dtype=np.float64)
    unit_pth = moduli_pth(np.abs(atom_values), step, plan.p)
    # ordered pairs of distinct points, each count exact below 2^53
    counts = np.outer(sizes, sizes) - np.diag(sizes)
    amp_p = np.outer(sizes ** (-p / 2.0) * unit_pth, sizes ** (-p / 2.0))
    return (counts * amp_p).sum(axis=0)



def spread_candidates(count: int, base: int = 4, ratio: int = 5) -> List[TimeFreqPoint]:
    """Geometric candidate translates (base * ratio^n, 0), exact integers."""
    pts, t, s = [], base, Fraction(0)
    for _ in range(count):
        pts.append(TimeFreqPoint(Fraction(t), s))
        t *= ratio
    return pts
