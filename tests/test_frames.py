"""Block plans, translate selection, window assembly and the frame operator."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_oracles import (
    candidates,
    error_pieces,
    error_pth_direct,
    frame_operator_dense,
    span_coefficients,
    window_on_grid,
    window_piece,
    window_pieces,
)
from gaborlab import frames, operators
from gaborlab.errors import (
    ConfigError,
    GridTooSmall,
    InfeasiblePlan,
    InsufficientSpread,
    NoConvergence,
    NonAlignedShift,
)
from gaborlab.frames import (
    TranslateSelection,
    _certify_by_enumeration,
    block_atoms,
    build_frame,
    certify_selection,
    frame_from_json,
    select_translates,
    spread_candidates,
)
from gaborlab.gabor import TimeFreqPoint
from gaborlab.grids import (
    MAX_CELLS,
    Exponent,
    Grid,
    SampledFunction,
    lp_norm,
    lp_norm_pth,
    powers_pth,
)
from gaborlab.haar import haar_function, haar_indices
from gaborlab.operators import (
    frame_operator_rows,
    reconstruct_rows,
    sign_flip_synthesis_sup,
    span_corpus,
)
from gaborlab.plans import BlockPlan, plan_blocks, plan_from_sizes
from gaborlab.stochastic import all_sign_patterns, combination_pth

P4 = Exponent(4.0)


def minimal_lead_oracle(p, num_blocks, growth):
    """Independent brute-force scan for the smallest admissible leading size."""
    bound = (2.0 * (p.p - 1.0)) ** (-p.p / 2.0)
    for lead in range(1, 10**6):
        sizes = [math.ceil(lead * growth**k) for k in range(num_blocks)]
        if sum(n ** (1.0 - p.p / 2.0) for n in sizes) < bound:
            return tuple(sizes)
    raise AssertionError("no admissible lead found")


def separation_oracle(selection, atoms, block_of):
    """Independent disjointness verdict: compare every pair of intervals."""
    intervals = []
    for i, pi in enumerate(selection.points):
        lo, hi = atoms[block_of[i]].support
        for j, pj in enumerate(selection.points):
            if i != j:
                d = pj.t - pi.t
                intervals.append((d + lo, d + hi))
    for a in range(len(intervals)):
        for b in range(a + 1, len(intervals)):
            alo, ahi = intervals[a]
            blo, bhi = intervals[b]
            if alo < bhi and blo < ahi:
                return False
    return True


def clearance_oracle(selection, atoms, block_of):
    """Independent base-cell verdict: no difference set meets [0, 1)."""
    for i, pi in enumerate(selection.points):
        lo, hi = atoms[block_of[i]].support
        for j, pj in enumerate(selection.points):
            d = pj.t - pi.t
            if i != j and d + lo < 1 and d + hi > 0:
                return False
    return True


def summands_oracle(selection, atoms, block_of):
    """Independent verdict on the window summands supp(h_k) - t_i."""
    pieces = []
    for i, pt in enumerate(selection.points):
        lo, hi = atoms[block_of[i]].support
        pieces.append((lo - pt.t, hi - pt.t))
    return all(
        not (alo < bhi and blo < ahi)
        for a, (alo, ahi) in enumerate(pieces)
        for blo, bhi in pieces[a + 1 :]
    )


def demo_plan(sizes):
    """Plan for small demonstrations; skips the admissibility condition."""
    return BlockPlan(P4, tuple(sizes), require_condition=False)


def traced_peak(call):
    """call()'s result and the most memory it held at once, in bytes, by
    tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def span_functions(frame, size, seed):
    """The rows of span_corpus as functions on the frame's span grid."""
    return [SampledFunction(frame.span_grid, values)
            for values in span_corpus(frame, size, seed)]


def span_part(frame, f):
    """The span part of S f: frame_operator_rows on the one-row matrix of f."""
    return SampledFunction(frame.span_grid,
                           frame_operator_rows(frame, f.values[None, :]).main[0])


def deviations(frame, rows):
    """|| S f - f ||_p of every row f of rows, from frame_operator_rows; the
    error pieces live off the span of f, so the masses add."""
    images, p = frame_operator_rows(frame, rows), frame.p
    return [(lp_norm_pth(SampledFunction(frame.span_grid, main - f), p) + float(error))
            ** (1.0 / p.p) for main, f, error in zip(images.main, rows, images.error_pth)]


class TestBlockPlan:
    def test_single_block_minimum_is_37(self):
        # oracle: smallest N with N^(-1) < (2*3)^(-2) = 1/36 is 37
        assert minimal_lead_oracle(P4, 1, 2.0) == (37,)
        plan = plan_blocks(P4, 1)
        assert plan.sizes == (37,)
        assert plan.contraction == pytest.approx(3.0 / math.sqrt(37.0), rel=1e-12)

    def test_three_blocks_growth_two_minimal(self):
        expect = minimal_lead_oracle(P4, 3, 2.0)
        plan = plan_blocks(P4, 3, 2.0)
        assert plan.sizes == expect
        # the boundary case: lead 63 gives exactly 7/252 = 1/36, not strict
        assert sum(1.0 / n for n in (63, 126, 252)) == pytest.approx(1.0 / 36.0)
        assert not BlockPlan.condition_holds(P4, (63, 126, 252))

    def test_acceptance_sizes_are_admissible(self):
        plan = plan_from_sizes(P4, (72, 144, 288))
        assert plan.block_sum == pytest.approx(7.0 / 288.0, rel=1e-14)
        assert plan.contraction == pytest.approx(
            3.0 * math.sqrt(7.0 / 288.0), rel=1e-12
        )
        assert plan.contraction < 0.47

    @pytest.mark.parametrize(
        "p,num_blocks,growth",
        [(3.0, 1, 2.0), (3.0, 2, 2.5), (4.0, 2, 3.0), (5.0, 3, 2.0), (6.0, 4, 2.5),
         (2.5, 3, 2.0)],
    )
    def test_bisection_matches_linear_scan(self, p, num_blocks, growth):
        exp = Exponent(p)
        assert plan_blocks(exp, num_blocks, growth).sizes == minimal_lead_oracle(
            exp, num_blocks, growth
        )

    def test_p_two_infeasible(self):
        with pytest.raises(InfeasiblePlan):
            plan_blocks(Exponent(2.0000000001), 1)

    def test_condition_enforced_on_explicit_sizes(self):
        with pytest.raises(InfeasiblePlan):
            plan_from_sizes(P4, (10, 20, 40))

    def test_q_below_one_for_any_valid_plan(self):
        for sizes in [(37,), (50, 100), (72, 144, 288), (300, 900, 2700)]:
            if BlockPlan.condition_holds(P4, sizes):
                assert plan_from_sizes(P4, sizes).contraction < 1.0


class TestSelectTranslates:
    def test_geometric_candidates_accepted_in_order(self):
        plan = plan_from_sizes(P4, (37,))
        cands = spread_candidates(plan.total, base=4, ratio=5)
        sel = select_translates(cands, plan)
        assert [pt.t for pt in sel.points] == [pt.t for pt in cands[: plan.total]]

    def test_alternating_powers_of_four(self):
        plan = plan_from_sizes(P4, (37,))
        cands = candidates(80, base=4, ratio=4, alternate_signs=True)
        sel = select_translates(cands, plan)
        ok = certify_selection(sel, block_atoms(plan), plan.block_of_index())[0]
        assert ok

    def test_certificate_matches_oracle_small(self):
        plan = demo_plan((4, 6))
        atoms = block_atoms(plan)
        block_of = plan.block_of_index()
        good = select_translates(
            candidates(plan.total, base=4, ratio=5, s=Fraction(1, 2)),
            plan,
        )
        fast = certify_selection(good, atoms, block_of)[0]
        assert fast == separation_oracle(good, atoms, block_of) is True
        # a deliberately colliding selection: equal difference gaps
        bad = TranslateSelection(
            tuple(TimeFreqPoint(Fraction(4 * n), 0) for n in range(1, plan.total + 1))
        )
        fast_bad = certify_selection(bad, atoms, block_of)[0]
        assert fast_bad == separation_oracle(bad, atoms, block_of) is False

    def test_non_dyadic_overlap_is_found(self):
        # [11/10, 21/10) and [31/15, 46/15) meet; scaling to the largest
        # denominator (10) instead of the lcm (30) truncated the overlap away
        plan = demo_plan((1, 1, 1))
        atoms = block_atoms(plan)
        block_of = plan.block_of_index()
        sel = TranslateSelection(
            tuple(
                TimeFreqPoint(t, 0)
                for t in (Fraction(31, 3), Fraction(62, 5), Fraction(27, 2))
            )
        )
        verdict = certify_selection(sel, atoms, block_of)
        assert verdict[0] is False
        # the mirror images meet first in sorted order: t_0 - t_1 + supp(h_1)
        # = [-31/15, -16/15) and t_1 - t_2 + supp(h_2) = [-11/10, -3/5)
        assert verdict[1] == (
            "overlap between the difference sets of (i, j) = "
            "(1, 0) [blocks 1, 0] and (2, 1) [blocks 2, 1]"
        )
        assert separation_oracle(sel, atoms, block_of) is False

    def test_bounded_strip_insufficient(self):
        plan = plan_from_sizes(P4, (37,))
        strip = [TimeFreqPoint(Fraction(t), 0) for t in range(-20, 21)]
        with pytest.raises(InsufficientSpread):
            select_translates(strip, plan)

    def test_single_point_insufficient(self):
        plan = plan_from_sizes(P4, (37,))
        with pytest.raises(InsufficientSpread):
            select_translates([TimeFreqPoint(4, 0)], plan)


# demonstration plans of at most 8 points, so the brute-force oracles stay fast
SMALL_SIZES = st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
    lambda sizes: sum(sizes) <= 8
)
SIGNS = st.sampled_from((-1, 1))
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def rational_selections(draw):
    """A demonstration plan and a selection of non-dyadic rational translates."""
    sizes = draw(SMALL_SIZES)
    n = sum(sizes)
    mags = draw(
        st.lists(
            st.fractions(min_value=0, max_value=30, max_denominator=12),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    points = tuple(TimeFreqPoint(draw(SIGNS) * m, 0) for m in sorted(mags))
    return demo_plan(sizes), TranslateSelection(points)


@st.composite
def greedy_inputs(draw):
    """A demonstration plan and rational candidates the greedy pick can complete.

    Candidates mix arbitrary rationals with magnitudes within 1 of 4|t| + 4
    for the previous candidate t (exactly on it when the offset is 0); a
    geometric tail beyond every earlier magnitude guarantees enough picks.
    """
    plan = demo_plan(draw(SMALL_SIZES))
    cands, mag = [], Fraction(0)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            mag = 4 * mag + 4 + draw(st.fractions(-1, 1, max_denominator=9))
        else:
            mag = draw(st.fractions(0, 1000, max_denominator=30))
        s = draw(st.fractions(-1, 1, max_denominator=8))
        cands.append(TimeFreqPoint(draw(SIGNS) * mag, s))
    top = max((abs(pt.t) for pt in cands), default=Fraction(0)) + 1
    for n in range(1, plan.total + 1):
        cands.append(TimeFreqPoint(draw(SIGNS) * top * 5**n, 0))
    return plan, cands


class TestCertificateProperties:
    @PROPERTY
    @given(rational_selections())
    def test_certificate_matches_oracles(self, case):
        plan, sel = case
        atoms, block_of = block_atoms(plan), plan.block_of_index()
        ok, _, clear, summands_ok = certify_selection(sel, atoms, block_of)
        assert ok == separation_oracle(sel, atoms, block_of)
        assert clear == clearance_oracle(sel, atoms, block_of)
        assert summands_ok == summands_oracle(sel, atoms, block_of)

    @PROPERTY
    @given(greedy_inputs())
    def test_greedy_verdict_is_the_tested_one(self, case):
        # select_translates hands its growth-rule verdict to the selection:
        # the points must give the same verdict when tested afresh
        plan, cands = case
        sel = select_translates(cands, plan)
        assert sel.follows_growth_rule is True
        assert TranslateSelection(sel.points).follows_growth_rule is True
        assert all(abs(b.t) >= 4 * abs(a.t) + 4 for a, b in pairwise(sel.points))

    @PROPERTY
    @given(greedy_inputs())
    def test_greedy_pick_always_certifies(self, case):
        plan, cands = case
        sel = select_translates(cands, plan)
        ok, detail, clear, summands_ok = certify_selection(
            sel, block_atoms(plan), plan.block_of_index()
        )
        assert (ok, detail, clear, summands_ok) == (True, "pairwise disjoint", True, True)


@st.composite
def certificate_inputs(draw):
    """A demonstration plan, its atoms on cell 0 or a neighbouring cell, and a
    selection whose magnitudes follow the growth rule, miss it by a little at
    some steps, or are arbitrary rationals."""
    sizes = draw(SMALL_SIZES)
    cell = draw(st.sampled_from((0, 0, -1, 1)))
    atoms = haar_indices([cell], max_scale=len(sizes))[: len(sizes)]
    n = sum(sizes)
    mode = draw(st.sampled_from(("rule", "near", "any")))
    if mode == "any":
        mags = sorted(draw(st.lists(st.fractions(0, 30, max_denominator=12),
                                    min_size=n, max_size=n, unique=True)))
    else:
        mags = [draw(st.fractions(0, 2, max_denominator=12))]
        low = 0 if mode == "rule" else -3
        while len(mags) < n:
            mags.append(4 * mags[-1] + 4 + draw(st.fractions(low, 3, max_denominator=12)))
    points = tuple(TimeFreqPoint(draw(SIGNS) * m, 0) for m in mags)
    return demo_plan(sizes), atoms, TranslateSelection(points)


def spy_enumeration():
    return mock.patch.object(
        frames, "_certify_by_enumeration", wraps=_certify_by_enumeration
    )


class TestCertificatePaths:
    @PROPERTY
    @given(certificate_inputs())
    def test_growth_rule_path_agrees_with_enumeration(self, case):
        plan, atoms, sel = case
        block_of = plan.block_of_index()
        mags = [abs(pt.t) for pt in sel.points]
        rule = all(b >= 4 * a + 4 for a, b in pairwise(mags))
        inside = all(0 <= a.support[0] and a.support[1] <= 1 for a in atoms)
        with spy_enumeration() as spy:
            verdict = certify_selection(sel, atoms, block_of)
        assert spy.called == (not (rule and inside))
        assert verdict == _certify_by_enumeration(sel, atoms, block_of)

    @staticmethod
    def edited_frame(t1):
        """The 37-point frame's JSON with the translate t_1 = 20 replaced by t1."""
        obj = tiny_frame((37,)).to_json()
        obj["selection"][1] = [[t1, 1], [0, 1]]
        return obj

    def test_rule_breaking_disjoint_selection_certifies(self):
        # 10 < 4 * 4 + 4 breaks the rule, yet every difference stays more
        # than one unit from every other one and from the base cell
        with spy_enumeration() as spy:
            frame = frame_from_json(self.edited_frame(10))
        assert spy.call_count == 1
        cert = frame.certificate
        assert cert["difference_sets_disjoint"] is True
        assert cert["difference_sets_detail"] == "pairwise disjoint"
        assert cert["difference_sets_clear_of_base"] is True
        assert cert["window_summands_disjoint"] is True

    def test_rule_breaking_overlapping_selection_is_rejected(self):
        # t_1 = 52 halves the gap between t_0 = 4 and t_2 = 100, so the
        # differences t_1 - t_0 and t_2 - t_1 coincide (100 < 4 * 52 + 4)
        with spy_enumeration() as spy:
            frame = frame_from_json(self.edited_frame(52))
        assert spy.call_count == 1
        assert frame.certificate["difference_sets_disjoint"] is False
        assert frame.certificate["difference_sets_detail"] == (
            "overlap between the difference sets of (i, j) = "
            "(1, 0) [blocks 0, 0] and (2, 1) [blocks 0, 0]"
        )
        with pytest.raises(InsufficientSpread):
            frame_operator_rows(frame, span_corpus(frame, 1, seed=1))

    def test_growth_rule_certificate_memory(self):
        # the enumeration peaked at 538 MiB here; the rule path needs n - 1
        # comparisons and no interval list
        plan = plan_blocks(P4, 4)
        assert plan.total == 1020
        sel = select_translates(spread_candidates(plan.total), plan)
        atoms, block_of = block_atoms(plan), plan.block_of_index()
        verdict, peak = traced_peak(lambda: certify_selection(sel, atoms, block_of))
        assert verdict == (True, "pairwise disjoint", True, True)
        assert peak < 5 * 2**20


# rationals of either sign with non-dyadic denominators
RATIONALS = st.fractions(-60, 60, max_denominator=30)
# a step onto, just past or just short of a boundary: exact equality included
NUDGES = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.sampled_from((-1, 1)), st.integers(1, 10**6)))


@st.composite
def growth_pairs(draw):
    """(prev, t): |t| on 4|prev| + 4, within a nudge of it, or anywhere."""
    prev = draw(RATIONALS)
    if draw(st.booleans()):
        mag = 4 * abs(prev) + 4 + draw(NUDGES)
    else:
        mag = abs(draw(RATIONALS)) * 5
    return prev, draw(SIGNS) * mag


@st.composite
def magnitude_pairs(draw):
    """(a, b): |b| equal to |a|, within a nudge of it, or anywhere."""
    a = draw(RATIONALS)
    mag = abs(draw(RATIONALS)) if draw(st.booleans()) else abs(a) + draw(NUDGES)
    return a, draw(SIGNS) * mag


@st.composite
def boundary_selections(draw):
    """A demonstration plan and a selection whose every step lands on the
    growth rule's boundary 4|t| + 4 or within a nudge of it."""
    sizes = draw(SMALL_SIZES)
    mags = [abs(draw(RATIONALS)) / 10]
    while len(mags) < sum(sizes):
        mags.append(4 * mags[-1] + 4 + draw(NUDGES))
    points = tuple(TimeFreqPoint(draw(SIGNS) * m, 0) for m in mags)
    return demo_plan(sizes), TranslateSelection(points)


class TestExactBoundaries:
    """The integer comparisons against their Fraction oracles, at equality."""

    @PROPERTY
    @given(growth_pairs())
    def test_growth_rule_matches_fraction_oracle(self, pair):
        prev, t = pair
        rule = abs(t) >= 4 * abs(prev) + 4
        assert frames._meets_growth_rule(prev, t) == rule
        if abs(t) > abs(prev):
            points = (TimeFreqPoint(prev, 0), TimeFreqPoint(t, 0))
            assert TranslateSelection(points).follows_growth_rule == rule

    @PROPERTY
    @given(magnitude_pairs())
    def test_strict_increase_matches_fraction_oracle(self, pair):
        a, b = pair
        assert frames._grows(a, b) == (abs(b) > abs(a))
        points = (TimeFreqPoint(a, 0), TimeFreqPoint(b, 0))
        if abs(b) > abs(a):
            TranslateSelection(points)
        else:
            with pytest.raises(ValueError):
                TranslateSelection(points)

    @PROPERTY
    @given(boundary_selections())
    def test_certificate_matches_enumeration_at_the_boundary(self, case):
        plan, sel = case
        atoms, block_of = block_atoms(plan), plan.block_of_index()
        assert (certify_selection(sel, atoms, block_of)
                == _certify_by_enumeration(sel, atoms, block_of))


@st.composite
def unmodulated_pieces(draw):
    """An exponent p in (2, 8], one of the first K <= 9 block atoms, a block
    size and a span grid on [0, 1) from the atoms' step to 2^8 times finer:
    up to 4096 cells, so that spans past 128 cells take numpy's pairwise
    split."""
    p = Exponent(draw(st.floats(2.0, 8.0, exclude_min=True)))
    atoms = block_atoms(demo_plan((1,) * draw(st.integers(1, 9))))
    step = -(max(a.scale for a in atoms) + 1) - draw(st.integers(0, 8))
    return p, draw(st.sampled_from(atoms)), draw(st.integers(1, 10**6)), Grid.over(0, 1, step)


@st.composite
def modulated_selections(draw):
    """A demonstration plan at p in (2, 8] on growth-rule translates of
    random signs, every point at a random s with |s| <= 255 (span grids of up
    to 1024 cells); and the same points with one s redrawn at the same
    Nyquist bit length."""
    p = Exponent(draw(st.floats(2.0, 8.0, exclude_min=True)))
    plan = BlockPlan(p, tuple(draw(SMALL_SIZES)), require_condition=False)
    ss = draw(st.lists(st.fractions(-255, 255, max_denominator=16),
                       min_size=plan.total, max_size=plan.total))
    points = tuple(TimeFreqPoint(draw(SIGNS) * pt.t, s)
                   for pt, s in zip(spread_candidates(plan.total), ss))
    i = draw(st.integers(0, plan.total - 1))
    # the Nyquist bit length, that of floor(4|s|), sets the finest window
    # step a point asks for: redraw floor(4|s|) = m at the same bit length,
    # then s = +-(m + r/8)/4
    bits = (4 * abs(ss[i].numerator) // ss[i].denominator).bit_length()
    m = draw(st.integers(2 ** bits // 2, 2 ** bits - 1))
    s = draw(SIGNS) * Fraction(8 * m + draw(st.integers(0, 7)), 32)
    redrawn = points[:i] + (TimeFreqPoint(points[i].t, s),) + points[i + 1:]
    return plan, points, redrawn


def block_masses(frame):
    """The p-mass on the span grid of each block's unmodulated piece, from
    the dense oracle piece: numpy's sum of libm's powers (math.pow) of its
    sampled moduli, times the step."""
    masses = []
    for k, size in enumerate(frame.plan.sizes):
        piece = window_piece(frame.span_grid, frame.rows[k], size, Fraction(0))
        powers = np.array([[math.pow(m, frame.p.p) for m in np.abs(piece.values)]])
        masses.append(float(powers_pth(powers, frame.span_grid.step)[0]))
    return masses


# numpy's float64 cos and sin (its complex exp), SIMD loops included, are
# taken to be within TRIG_ULPS ulp
TRIG_ULPS = 4


def sampled_window_units(p, cells, points):
    """First-order bound, in units of u = 2^-53 relative to the window's
    p-mass, on |window_norm_pth - the point-order sum of lp_norm_pth over the
    sampled oracle pieces|.  Both sides scale the atom row by the same float.
    A sampled modulus is then that value times 1 + e, |e| <= (TRIG_ULPS + 2) u:
    the sample, the real-by-complex product and hypot's rounding.  The power
    carries e p-fold and adds one rounding on each side.  Each side sums a
    piece's cells and then the pieces, non-negative terms, with at most
    (cells - 1) and (points - 1) roundings each; the step is a power of two."""
    return p * (TRIG_ULPS + 2) + 2 + 2 * (cells - 1) + 2 * (points - 1)


def tiny_frame(sizes=(37,), s=Fraction(0)):
    plan = plan_from_sizes(P4, sizes)
    cands = candidates(plan.total, base=4, ratio=5, s=s)
    return build_frame(plan, select_translates(cands, plan))


class TestWindow:
    def test_single_atom_window(self):
        # one size-one block: the window is one shifted Haar copy of norm 1
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        frame = build_frame(plan, sel)
        [(offset, piece)] = window_pieces(frame)
        assert offset == -4
        assert frame.certificate["window_norm_pth"] == pytest.approx(1.0, abs=1e-12)

    def test_acceptance_window_norm_identity(self):
        plan = plan_from_sizes(P4, (72, 144, 288))
        frame = build_frame(
            plan, select_translates(spread_candidates(504, base=4, ratio=5), plan)
        )
        assert abs(frame.certificate["window_norm_pth"] - plan.block_sum) <= 1e-10
        assert frame.certificate["window_norm_pth"] == pytest.approx(7.0 / 288.0, abs=1e-10)

    def test_summand_masses_add(self):
        frame = tiny_frame((37,), s=Fraction(1, 2))
        total = frame.certificate["window_norm_pth"]
        per_piece = sum(
            float((np.abs(f.values) ** 4).sum() * f.grid.step)
            for _, f in window_pieces(frame)
        )
        assert total == pytest.approx(per_piece, rel=1e-14)
        assert frame.certificate["window_summands_disjoint"]

    # the plans of the six benchmark frames: (p, block count or sizes, whether
    # the selection is the generic one, seeded signs and s = k/16)
    BENCH_PLANS = [(5.0, 3, False), (4.0, 3, False), (4.0, (72, 144, 288), False),
                   (6.0, 4, False), (4.0, 4, False), (4.0, (72, 144, 288), True)]

    @pytest.mark.parametrize("p,blocks,generic", BENCH_PLANS)
    def test_window_mass_is_the_point_order_piece_sum(self, p, blocks, generic):
        exp = Exponent(p)
        if isinstance(blocks, tuple):
            plan = plan_from_sizes(exp, blocks)
        else:
            plan = plan_blocks(exp, blocks)
        if generic:
            rng = random.Random(504)
            cands = [TimeFreqPoint(rng.choice((-1, 1)) * 4 * 5**n,
                                   Fraction(rng.randint(-8, 8), 16))
                     for n in range(plan.total)]
        else:
            cands = spread_candidates(plan.total)
        frame = build_frame(plan, select_translates(cands, plan))
        block_of = plan.block_of_index()
        modulations = [{pt.s for pt, k in zip(frame.selection.points, block_of) if k == b}
                       for b in range(len(plan.sizes))]
        assert all(len(m) > 1 for m in modulations) == generic
        total = frame.certificate["window_norm_pth"]
        sampled = sum(lp_norm_pth(f, exp) for _, f in window_pieces(frame))
        if not generic:
            # bit for bit: one mass per block, summed in point order
            assert total == sampled
            return
        # the modulus of a modulated piece is exact in the package and
        # rounded through numpy's exponential in the oracle's samples
        units = sampled_window_units(p, frame.span_grid.count, plan.total)
        assert abs(total - sampled) <= units * total * 2.0**-53
        masses = block_masses(frame)
        assert total == sum(masses[k] for k in block_of)

    @PROPERTY
    @given(modulated_selections())
    def test_window_mass_is_the_point_order_sum_of_block_masses(self, case):
        # bit for bit, whatever the modulations: a time-frequency shift keeps
        # a piece's modulus, so only the span grid, which the largest Nyquist
        # bit length sets, reaches the p-mass through s
        plan, points, redrawn = case
        frame = build_frame(plan, TranslateSelection(points))
        masses = block_masses(frame)
        total = 0.0
        for k in plan.block_of_index():
            total += masses[k]
        assert frame.certificate["window_norm_pth"] == total
        other = build_frame(plan, TranslateSelection(redrawn))
        assert other.span_grid.step_log2 == frame.span_grid.step_log2
        assert other.certificate["window_norm_pth"] == total

    @PROPERTY
    @given(unmodulated_pieces())
    def test_unmodulated_piece_mass_is_lp_norm_pth(self, case):
        # the plain-Python p-mass is lp_norm_pth of the piece with libm's pow
        # (math.pow) for numpy's power: bit for bit against numpy's sum of
        # libm's powers of numpy's moduli, and against lp_norm_pth itself
        # wherever numpy's power is libm's.  Where numpy's power takes its
        # AVX-512 loop it rounds some powers the other way, 1 ulp apart.
        p, atom, size, grid = case
        piece = window_piece(grid, haar_function(atom, p, grid).values, size, Fraction(0))
        pure = frames._piece_pth(atom, p, size, grid)
        mods = np.abs(piece.values)
        libm = np.array([math.pow(m, p.p) for m in mods])
        assert pure == float(powers_pth(libm[None], grid.step)[0])
        powers = mods ** p.p
        assert np.all(np.abs(powers - libm) <= np.spacing(libm))
        if np.array_equal(powers, libm):
            assert pure == lp_norm_pth(piece, p)

    @pytest.mark.parametrize("blocks,p,size", [(16, 100.0, 240), (20, 4.0, 10**6)])
    def test_piece_mass_on_the_cell_cap(self, blocks, p, size):
        # every block's closed-form p-mass on MAX_CELLS cells, bit for bit
        # against numpy's sum of libm's powers of the dense piece: runs of
        # 2^20 down to 2^16 cells, far past numpy's 128-term split
        grid, p = Grid.over(0, 1, -20), Exponent(p)
        assert grid.count == MAX_CELLS
        for atom in block_atoms(demo_plan((1,) * blocks)):
            piece = window_piece(grid, haar_function(atom, p, grid).values, size, Fraction(0))
            mods, cells = np.unique(np.abs(piece.values), return_inverse=True)
            libm = np.array([math.pow(m, p.p) for m in mods])[cells]
            assert frames._piece_pth(atom, p, size, grid) == float(
                powers_pth(libm[None], grid.step)[0])

    def test_window_mass_on_the_cell_cap_makes_no_row(self):
        # a row of 2^20 cells would take 8 MiB per block
        plan = demo_plan((240,) * 16)
        atoms, grid = block_atoms(plan), Grid.over(0, 1, -20)
        _, peak = traced_peak(lambda: frames._window_norm_pth(plan, atoms, grid))
        assert peak < 2**20

    @pytest.mark.parametrize("blocks", range(1, 15))
    def test_block_atoms_are_the_haar_enumeration_prefix(self, blocks):
        # the closed form gives the first K atoms of cell 0's enumeration
        assert block_atoms(demo_plan((1,) * blocks)) == haar_indices([0], blocks)[:blocks]

    @pytest.mark.parametrize("blocks", [1, 3, 8])
    @pytest.mark.parametrize("s", [0, Fraction(1, 8), Fraction(1, 4), Fraction(-1, 2), 1,
                                   Fraction(7, 3), Fraction(-255, 64), 2**9 - 1, 2**9,
                                   Fraction(2**11 + 1, 3)])
    def test_window_step_is_the_refinement_of_the_atom_step(self, blocks, s):
        # the step refinement by one power of two at a time, from the finest
        # atom's step until 4|s| < 2^-step for every modulation s
        atoms = block_atoms(demo_plan((1,) * blocks))
        step = -(max(a.scale for a in atoms) + 1)
        while 4 * abs(s) >= Fraction(2) ** -step:
            step -= 1
        points = [TimeFreqPoint(pt.t, s if i == blocks // 2 else 0)
                  for i, pt in enumerate(spread_candidates(blocks))]
        frame = build_frame(demo_plan((1,) * blocks), TranslateSelection(tuple(points)))
        assert frame.span_grid.step_log2 == step

    def test_span_grid_past_max_cells_is_refused_before_any_row(self):
        # s = 2^17 takes the window step 2^-20, the last step of at most
        # MAX_CELLS cells; s = 2^18 and s = 2^30 go past it
        plan = demo_plan((1,))
        frame = build_frame(plan, TranslateSelection((TimeFreqPoint(4, 2**17),)))
        assert frame.span_grid.count == MAX_CELLS
        for e in (18, 30):
            with mock.patch.object(frames, "haar_function", side_effect=AssertionError), \
                    pytest.raises(ConfigError, match=f"more than {MAX_CELLS} cells"):
                build_frame(plan, TranslateSelection((TimeFreqPoint(4, 2**e),)))

    def test_dense_materialization_demo(self):
        plan = demo_plan((2,))
        sel = select_translates(
            [TimeFreqPoint(4, 0), TimeFreqPoint(20, 0)], plan
        )
        frame = build_frame(plan, sel)
        grid = Grid.over(-20, 1, frame.span_grid.step_log2)
        dense = window_on_grid(frame, grid)
        assert lp_norm_pth(dense, P4) == pytest.approx(frame.certificate["window_norm_pth"],
                                                      rel=1e-12)

    def test_dense_materialization_too_small(self):
        frame = tiny_frame()
        grid = Grid.over(0, 1, frame.span_grid.step_log2)
        with pytest.raises(GridTooSmall):
            window_on_grid(frame, grid)

    def test_dense_materialization_non_aligned(self):
        # a piece at -1/3 lies inside [-2, 2) but off every dyadic grid point
        sel = TranslateSelection((TimeFreqPoint(Fraction(1, 3), 0),))
        frame = build_frame(demo_plan((1,)), sel)
        with pytest.raises(NonAlignedShift):
            window_on_grid(frame, Grid.over(-2, 2, frame.span_grid.step_log2))


class TestFrameOperator:
    def test_zero_in_zero_out(self):
        frame = tiny_frame()
        img = frame_operator_rows(frame, np.zeros((1, frame.span_grid.count)))
        assert np.all(img.main == 0)
        assert img.error_pth[0] == 0.0

    def test_main_term_reproduces_span_elements(self):
        frame = tiny_frame((80, 160))
        rows = span_corpus(frame, 5, seed=3)
        assert np.abs(frame_operator_rows(frame, rows).main - rows).max() <= 1e-12

    def test_contraction_on_corpus(self):
        frame = tiny_frame((80, 160))
        rows = span_corpus(frame, 25, seed=4)
        worst = max(deviation / lp_norm(SampledFunction(frame.span_grid, f), P4)
                    for deviation, f in zip(deviations(frame, rows), rows))
        assert worst <= frame.q + 1e-9

    def test_error_mass_matches_direct_enumeration(self):
        frame = tiny_frame((80, 160), s=Fraction(1, 4))
        f = span_functions(frame, 1, seed=5)[0]
        fast = frame_operator_rows(frame, f.values[None, :]).error_pth[0]
        direct = error_pth_direct(frame, f)
        assert fast == pytest.approx(direct, rel=1e-9)

    def test_dense_application_demo_frame(self):
        plan = demo_plan((2, 3))
        sel = select_translates(spread_candidates(5, base=4, ratio=5), plan)
        frame = build_frame(plan, sel)
        f = span_functions(frame, 1, seed=6)[0]
        lo = min(pj.t - pi.t for pi in sel.points for pj in sel.points)
        hi = max(pj.t - pi.t for pi in sel.points for pj in sel.points) + 1
        grid = Grid.over(lo, hi, frame.span_grid.step_log2)
        dense = frame_operator_dense(frame, f, grid)
        img = frame_operator_rows(frame, f.values[None, :])
        total_pth = lp_norm_pth(span_part(frame, f), P4) + img.error_pth[0]
        assert lp_norm_pth(dense, P4) == pytest.approx(total_pth, rel=1e-9)

    def test_single_atom_plan_is_identity(self):
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        frame = build_frame(plan, sel)
        f = span_corpus(frame, 1, seed=7)
        img = frame_operator_rows(frame, f)
        assert img.error_pth[0] == 0.0
        assert np.abs(img.main - f).max() <= 1e-12

    def test_refuses_colliding_selection(self):
        # repeated differences collide exactly; the built frame must carry a
        # failed certificate and the operator must refuse to use it
        plan = demo_plan((4, 6))
        sel = TranslateSelection(
            tuple(TimeFreqPoint(Fraction(4 * n), 0) for n in range(1, plan.total + 1))
        )
        frame = build_frame(plan, sel)
        assert frame.certificate["difference_sets_disjoint"] is False
        f = span_corpus(frame, 1, seed=7)
        with pytest.raises(InsufficientSpread):
            frame_operator_rows(frame, f)

    def test_refuses_selection_without_base_clearance(self):
        # difference sets can be pairwise disjoint yet meet the base cell;
        # the operator's mass accounting must refuse such selections
        plan = demo_plan((2,))
        sel = TranslateSelection(
            (TimeFreqPoint(Fraction(1, 4), 0), TimeFreqPoint(Fraction(3, 4), 0))
        )
        frame = build_frame(plan, sel)
        assert frame.certificate["difference_sets_disjoint"]
        assert not frame.certificate["difference_sets_clear_of_base"]
        f = span_corpus(frame, 1, seed=7)
        with pytest.raises(InsufficientSpread):
            frame_operator_rows(frame, f)


@st.composite
def operator_inputs(draw):
    """A demonstration frame and a few seeded input rows on its span grid.

    Magnitudes follow the growth rule with a common denominator that is a
    power of two or not, signs are mixed and every s is nonzero, so the
    frame certifies, its relative modulations and phases are exercised, and
    its difference sets sit on the grid or off it.
    """
    sizes = draw(SMALL_SIZES)
    den = draw(st.sampled_from((1, 4, 3, 10)))
    mag = Fraction(draw(st.integers(0, 2 * den)), den)
    points = []
    for _ in range(sum(sizes)):
        s = draw(st.fractions(-1, 1, max_denominator=8).filter(lambda x: x != 0))
        points.append(TimeFreqPoint(draw(SIGNS) * mag, s))
        mag = 4 * mag + 4 + Fraction(draw(st.integers(0, 3 * den)), den)
    frame = build_frame(demo_plan(sizes), TranslateSelection(tuple(points)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 4)), frame.span_grid.count)
    return frame, rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestOperatorProperties:
    @PROPERTY
    @given(operator_inputs())
    def test_batched_operator_matches_oracles(self, case):
        frame, rows = case
        images = frame_operator_rows(frame, rows)
        for r, values in enumerate(rows):
            f = SampledFunction(frame.span_grid, values)
            # bit for bit: the per-frame layouts against one haar_functional per atom
            assert np.array_equal(images.coefficients[r], span_coefficients(frame, f))
            alone = frame_operator_rows(frame, rows[r : r + 1])
            assert np.array_equal(alone.main[0], images.main[r])
            assert alone.error_pth[0] == images.error_pth[r]
            assert images.error_pth[r] == pytest.approx(
                error_pth_direct(frame, f), rel=1e-12
            )
        f = SampledFunction(frame.span_grid, rows[0])
        diffs = [pj.t - pi.t for pi in frame.selection.points for pj in frame.selection.points]
        step = frame.span_grid.step_fraction
        if all((d / step).denominator == 1 for d in diffs):
            grid = Grid.over(min(diffs), max(diffs) + 1, frame.span_grid.step_log2)
            dense = frame_operator_dense(frame, f, grid)
            assert lp_norm_pth(dense, frame.p) == pytest.approx(
                lp_norm_pth(SampledFunction(frame.span_grid, images.main[0]), frame.p)
                + images.error_pth[0], rel=1e-9
            )
        else:
            grid = Grid.over(math.floor(min(diffs)), math.ceil(max(diffs)) + 1,
                             frame.span_grid.step_log2)
            with pytest.raises(NonAlignedShift):
                frame_operator_dense(frame, f, grid)


@pytest.fixture(scope="module")
def frame_504():
    plan = plan_from_sizes(P4, (72, 144, 288))
    return build_frame(
        plan, select_translates(spread_candidates(504, base=4, ratio=5), plan)
    )


def neumann_oracle(frame, f, tol):
    """The per-function Neumann solve written out with span_coefficients and
    lp_norm: (solution, image span part, relative error, synthesis residual,
    contraction ratio, iterations), each float rounded as reconstruct_rows'."""
    p = frame.p

    def apply(g):
        b = span_coefficients(frame, g)
        main = np.zeros(g.grid.count, dtype=np.complex128)
        for coeff, av in zip(b, frame.rows):
            main += coeff * av
        error = float(frame._pair_weight_by_block @ (np.abs(b) ** p.p))
        return SampledFunction(g.grid, main), error

    def deviation(main, error):
        return (lp_norm_pth(main - f, p) + error) ** (1.0 / p.p) / norm

    y0, error0 = apply(f)
    base, norm = lp_norm(y0, p), lp_norm(f, p)
    on_span = lp_norm(f - y0, p) <= operators.SPAN_RTOL * norm
    y, n = y0, 0
    if base != 0.0:
        for n in range(1, math.ceil(math.log(tol) / math.log(frame.q)) + 2):
            main, _ = apply(y)
            if lp_norm(main - y0, p) <= tol * base and (
                not on_span or lp_norm(main - f, p) / norm <= tol
            ):
                break
            y = y0 + (y - main)
        else:
            raise NoConvergence("budget exhausted")
    main, error = apply(y)
    if norm == 0.0:
        return y.values, main.values, 0.0, 0.0, 0.0, n
    return (y.values, main.values, lp_norm(main - f, p) / norm,
            deviation(main, error), deviation(y0, error0), n)


class TestNeumannAndReconstruction:
    def test_result_reuses_operator_images(self):
        frame = tiny_frame((80, 160))
        rows = span_corpus(frame, 1, seed=14)
        f = SampledFunction(frame.span_grid, rows[0])
        rec = reconstruct_rows(frame, rows, 1e-8)
        image = frame_operator_rows(frame, rec.solution)
        assert np.array_equal(rec.image.main, image.main)
        assert rec.image.error_pth[0] == image.error_pth[0]
        assert rec.contraction_ratio[0] == deviations(frame, rows)[0] / lp_norm(f, P4)
        assert rec.relative_error[0] == lp_norm(
            SampledFunction(frame.span_grid, image.main[0]) - f, P4) / lp_norm(f, P4)

    def test_loop_refines_below_one_step(self, frame_504):
        # at tol 3e-16 one application leaves this function 3.08e-16 from f
        # (past tol, though within tol of the projection y_0), and the second
        # step brings it within tol: the loop earns its code
        f = span_corpus(frame_504, 193, seed=11)[192:]
        rec = reconstruct_rows(frame_504, f, 3e-16)
        assert rec.iterations[0] >= 2
        assert rec.iterations[0] <= math.ceil(math.log(3e-16) / math.log(frame_504.q)) + 1
        assert rec.relative_error[0] <= 3e-16

    @pytest.mark.parametrize("tol", [3e-16, 1e-16, 1e-17])
    def test_span_input_meets_tol_or_raises(self, frame_504, tol):
        # near the rounding floor a span input either meets tol against f or
        # raises NoConvergence; it never converges with a larger error
        for f in span_corpus(frame_504, 300, seed=11):
            try:
                rec = reconstruct_rows(frame_504, f[None, :], tol)
            except NoConvergence:
                continue
            assert rec.relative_error[0] <= tol

    def test_off_span_input_stops_on_projection(self, frame_504):
        # a function with a real off-span part stops once S y meets the
        # projection y_0, and reports its (large) error against f
        f = span_corpus(frame_504, 1, seed=15)
        f[0, -1] += 1.0  # the atoms are equal on the last two cells; f is not
        rec = reconstruct_rows(frame_504, f, 1e-12)
        assert rec.iterations[0] == 1
        assert rec.relative_error[0] > 1e-3

    @staticmethod
    def off_span_input(frame, ratio):
        """A span element plus an off-span part of `ratio` times its norm."""
        span = span_functions(frame, 1, seed=15)[0]
        bump = np.zeros(span.grid.count)
        bump[-1] = 1.0
        bump = SampledFunction(span.grid, bump)
        off = bump - span_part(frame, bump)
        f = span + off * (ratio * lp_norm(span, P4) / lp_norm(off, P4))
        rel = lp_norm(f - span_part(frame, f), P4) / lp_norm(f, P4)
        assert rel == pytest.approx(ratio, rel=1e-3)
        return f

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_off_span_part_below_span_rtol(self, frame_504, tol):
        # 2^-41 < SPAN_RTOL: a span input, so it meets tol against f (its
        # error is the 4.5e-13 off-span part) or raises NoConvergence
        f = self.off_span_input(frame_504, 2.0**-41)
        if tol > 2.0**-41:
            assert reconstruct_rows(frame_504, f.values[None, :], tol).relative_error[0] <= tol
        else:
            with pytest.raises(NoConvergence):
                reconstruct_rows(frame_504, f.values[None, :], tol)

    def test_off_span_part_above_span_rtol(self, frame_504):
        # 2^-39 > SPAN_RTOL: an off-span input, which stops on the projection
        f = self.off_span_input(frame_504, 2.0**-39)
        rec = reconstruct_rows(frame_504, f.values[None, :], 1e-13)
        assert rec.iterations[0] == 1
        assert rec.relative_error[0] == pytest.approx(2.0**-39, rel=1e-3)

    def test_no_convergence_below_rounding_floor(self, frame_504):
        # this function's residual never reaches 1e-17 of its norm, so the
        # certified budget runs out
        f = span_corpus(frame_504, 1, seed=2)
        with pytest.raises(NoConvergence):
            reconstruct_rows(frame_504, f, 1e-17)

    def test_batch_rows_match_one_row_calls(self, frame_504):
        # the zero function, the two-step reproducer, an off-span input and
        # ordinary span inputs, solved together, one by one and by the
        # per-function oracle
        corpus = span_corpus(frame_504, 193, seed=11)
        off = corpus[0].copy()
        off[-1] += 1.0
        rows = np.array([np.zeros_like(off), corpus[192], off, *corpus[1:5]])
        batch = reconstruct_rows(frame_504, rows, 3e-16)
        assert batch.iterations.tolist()[:2] == [0, 2]

        def scalars(rec, r):
            return [rec.image.error_pth[r], rec.relative_error[r], rec.synthesis_residual[r],
                    rec.contraction_ratio[r], rec.iterations[r]]

        for r, values in enumerate(rows):
            one = reconstruct_rows(frame_504, values[None, :], 3e-16)
            assert np.array_equal(batch.solution[r], one.solution[0])
            assert np.array_equal(batch.image.main[r], one.image.main[0])
            assert np.array_equal(batch.image.coefficients[r], one.image.coefficients[0])
            assert scalars(batch, r) == scalars(one, 0)
            solution, main, *oracle = neumann_oracle(
                frame_504, SampledFunction(frame_504.span_grid, values), 3e-16)
            assert np.array_equal(batch.solution[r], solution)
            assert np.array_equal(batch.image.main[r], main)
            assert scalars(batch, r)[1:] == oracle

    def test_batch_with_unreachable_row_raises(self, frame_504):
        stuck = span_corpus(frame_504, 1, seed=2)
        rows = np.array([*span_corpus(frame_504, 3, seed=11), *stuck])
        with pytest.raises(NoConvergence) as alone:
            reconstruct_rows(frame_504, stuck, 1e-17)
        with pytest.raises(NoConvergence) as batch:
            reconstruct_rows(frame_504, rows, 1e-17)
        assert str(batch.value) == str(alone.value) == (
            "residual above 1e-17 after the certified budget of 53 iterations"
        )

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_nonpositive_tol_rejected(self, frame_504, tol):
        with pytest.raises(ValueError):
            reconstruct_rows(frame_504, span_corpus(frame_504, 2, seed=3), tol)
        with pytest.raises(ValueError):
            reconstruct_rows(frame_504, span_corpus(frame_504, 1, seed=3), tol)

    def test_zero_input(self):
        frame = tiny_frame()
        rec = reconstruct_rows(frame, np.zeros((1, frame.span_grid.count)), 1e-8)
        assert rec.iterations[0] == 0
        assert rec.relative_error[0] == 0.0 and rec.synthesis_residual[0] == 0.0

    def test_single_atom_plan_one_iteration(self):
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        frame = build_frame(plan, sel)
        f = span_corpus(frame, 1, seed=8)
        rec = reconstruct_rows(frame, f, 1e-8)
        assert rec.iterations[0] == 1
        assert np.abs(rec.solution - f).max() <= 1e-12

    def test_budget_formula(self, frame_504):
        budget = math.ceil(math.log(1e-8) / math.log(frame_504.q)) + 1
        assert budget == 26
        rec = reconstruct_rows(frame_504, span_corpus(frame_504, 1, seed=8), 1e-8)
        assert rec.iterations[0] <= budget
        assert rec.relative_error[0] <= 1e-8

    def test_reconstruction_meets_tolerance(self):
        frame = tiny_frame((80, 160))
        rec = reconstruct_rows(frame, span_corpus(frame, 10, seed=9), 1e-8)
        assert np.all(rec.relative_error <= 1e-8)
        assert np.all(rec.synthesis_residual <= frame.q + 1e-9)

    def test_sign_flipped_synthesis_bounded(self):
        frame = tiny_frame((80, 160))
        bound = (1 + frame.q) / (1 - frame.q)
        for f in span_functions(frame, 5, seed=10):
            assert sign_flip_synthesis_sup(frame, f) <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize(
        "sizes", [(3,), (2, 4), (1, 2, 4), (3, 9), (2, 3, 7), (4, 10)]
    )
    def test_sign_flip_sup_matches_brute_force(self, p, sizes):
        # every one of the 2^n sign patterns, through its block mean signs
        plan = BlockPlan(Exponent(p), sizes, require_condition=False)
        frame = build_frame(plan, select_translates(spread_candidates(plan.total), plan))
        onehot = np.array(plan.block_of_index())[:, None] == np.arange(len(sizes))
        means = all_sign_patterns(plan.total) @ onehot / np.array(sizes, dtype=float)
        for f in span_functions(frame, 2, seed=14):
            image = reconstruct_rows(frame, f.values[None, :], 1e-8).image
            span_pth = combination_pth(means * image.coefficients, frame.rows,
                                       frame.span_grid.step, [frame.p])[0]
            worst = float((span_pth.max() + image.error_pth[0]) ** (1.0 / p))
            assert sign_flip_synthesis_sup(frame, f) == worst / lp_norm(f, frame.p)

    def test_sign_flip_direct_oracle(self):
        # oracle: place signed pieces one by one and integrate, at each of the
        # 2^K block-constant patterns, and take the largest
        frame = tiny_frame((55, 110))
        plan = frame.plan
        f = span_functions(frame, 1, seed=12)[0]
        y = SampledFunction(frame.span_grid,
                            reconstruct_rows(frame, f.values[None, :], 1e-8).solution[0])
        b = span_coefficients(frame, y)
        block_of = plan.block_of_index()
        step = frame.span_grid.step
        pieces = [(j, vals) for _, j, _, vals in error_pieces(frame, y)]
        direct = 0.0
        for vertex in all_sign_patterns(len(plan.sizes)):
            signs = vertex[block_of]
            means = np.bincount(block_of, weights=signs, minlength=len(plan.sizes))
            means = means / np.array(plan.sizes, dtype=float)
            span_vals = (means * b) @ frame.rows
            span_pth = float((np.abs(span_vals) ** 4).sum() * step)
            err_pth = sum(
                float((np.abs(signs[j] * vals) ** 4).sum() * step) for j, vals in pieces
            )
            direct = max(direct, (span_pth + err_pth) ** 0.25 / lp_norm(f, P4))
        fast = sign_flip_synthesis_sup(frame, f)
        assert fast == pytest.approx(direct, rel=1e-12)
        assert direct <= (1 + frame.q) / (1 - frame.q)


@st.composite
def serializable_frames(draw):
    """A minimal admissible plan and a greedy pick of rational candidates.

    Every candidate's magnitude is at least 4|t| + 4 for the previous one,
    so the greedy pick takes them all; s stays far below the window's Nyquist.
    """
    plan = plan_blocks(Exponent(draw(st.sampled_from((4.0, 6.0, 8.0)))),
                       draw(st.integers(1, 2)))
    cands, mag = [], Fraction(0)
    for _ in range(plan.total):
        mag = 4 * mag + 4 + draw(st.fractions(0, 3, max_denominator=9))
        s = draw(st.fractions(-1, 1, max_denominator=8))
        cands.append(TimeFreqPoint(draw(SIGNS) * mag, s))
    return build_frame(plan, select_translates(cands, plan))


class TestSerialization:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(serializable_frames())
    def test_json_roundtrip_keeps_frame(self, frame):
        back = frame_from_json(json.loads(json.dumps(frame.to_json())))
        assert back.plan == frame.plan
        assert back.selection == frame.selection
        assert back.certificate == frame.certificate
        assert back.span_grid.step_log2 == frame.span_grid.step_log2

    def test_roundtrip_preserves_certificate(self):
        frame = tiny_frame((80, 160))
        back = frame_from_json(frame.to_json())
        assert back.q == frame.q
        assert back.plan.sizes == frame.plan.sizes
        assert back.certificate["difference_sets_disjoint"]
        assert [pt.t for pt in back.selection.points] == [
            pt.t for pt in frame.selection.points
        ]
