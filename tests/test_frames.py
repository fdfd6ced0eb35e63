"""Block plans, translate selection, window assembly and the frame operator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.errors import (
    GridTooSmall,
    InfeasiblePlan,
    InsufficientSpread,
    NonAlignedShift,
)
from gaborlab.frames import (
    BlockPlan,
    TranslateSelection,
    block_atoms,
    build_frame,
    build_window,
    certify_selection,
    error_pieces,
    error_pth_direct,
    frame_from_json,
    frame_operator,
    frame_operator_dense,
    invert_neumann,
    operator_deviation,
    plan_blocks,
    plan_from_sizes,
    reconstruct,
    select_translates,
    sign_flip_synthesis_max,
    span_coefficients,
    span_corpus,
    spread_candidates,
    window_on_grid,
)
from gaborlab.gabor import TimeFreqPoint
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm, lp_norm_pth
from gaborlab.rng import rng_for

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
        cands = spread_candidates(80, base=4, ratio=4, alternate_signs=True)
        sel = select_translates(cands, plan)
        ok = certify_selection(sel, block_atoms(plan), plan.block_of_index())[0]
        assert ok

    def test_certificate_matches_oracle_small(self):
        plan = demo_plan((4, 6))
        atoms = block_atoms(plan)
        block_of = plan.block_of_index()
        good = select_translates(
            spread_candidates(plan.total, base=4, ratio=5, s_value=Fraction(1, 2)),
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
        assert verdict[0] is False and verdict[1].startswith("overlap")
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
    def test_greedy_pick_always_certifies(self, case):
        plan, cands = case
        sel = select_translates(cands, plan)
        ok, detail, clear, summands_ok = certify_selection(
            sel, block_atoms(plan), plan.block_of_index()
        )
        assert (ok, detail, clear, summands_ok) == (True, "pairwise disjoint", True, True)


def tiny_frame(sizes=(37,), s_value=Fraction(0)):
    plan = plan_from_sizes(P4, sizes)
    cands = spread_candidates(plan.total, base=4, ratio=5, s_value=s_value)
    return build_frame(plan, select_translates(cands, plan))


class TestWindow:
    def test_single_atom_window(self):
        # one size-one block: the window is one shifted Haar copy of norm 1
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        window = build_window(plan, sel)
        assert len(window.pieces) == 1
        offset, piece = window.pieces[0]
        assert offset == -4
        assert window.lp_norm(P4) == pytest.approx(1.0, abs=1e-12)

    def test_acceptance_window_norm_identity(self):
        plan = plan_from_sizes(P4, (72, 144, 288))
        frame = build_frame(
            plan, select_translates(spread_candidates(504, base=4, ratio=5), plan)
        )
        assert frame.certificate["window_norm_error"] <= 1e-10
        assert frame.window.lp_norm_pth(P4) == pytest.approx(7.0 / 288.0, abs=1e-10)

    def test_summand_masses_add(self):
        frame = tiny_frame((37,), s_value=Fraction(1, 2))
        total = frame.window.lp_norm_pth(P4)
        per_piece = sum(
            float((np.abs(f.values) ** 4).sum() * f.grid.step)
            for _, f in frame.window.pieces
        )
        assert total == pytest.approx(per_piece, rel=1e-14)
        assert frame.certificate["window_summands_disjoint"]

    def test_dense_materialization_demo(self):
        plan = demo_plan((2,))
        sel = select_translates(
            [TimeFreqPoint(4, 0), TimeFreqPoint(20, 0)], plan
        )
        window = build_window(plan, sel)
        grid = Grid.over(-20, 1, window.step_log2)
        dense = window_on_grid(window, grid)
        assert lp_norm(dense, P4) == pytest.approx(window.lp_norm(P4), rel=1e-12)

    def test_dense_materialization_too_small(self):
        frame = tiny_frame()
        grid = Grid.over(0, 1, frame.window.step_log2)
        with pytest.raises(GridTooSmall):
            window_on_grid(frame.window, grid)

    def test_dense_materialization_non_aligned(self):
        # a piece at -1/3 lies inside [-2, 2) but off every dyadic grid point
        sel = TranslateSelection((TimeFreqPoint(Fraction(1, 3), 0),))
        window = build_window(demo_plan((1,)), sel)
        with pytest.raises(NonAlignedShift):
            window_on_grid(window, Grid.over(-2, 2, window.step_log2))


class TestFrameOperator:
    def test_zero_in_zero_out(self):
        frame = tiny_frame()
        z = SampledFunction.zero(frame.span_grid)
        img = frame_operator(frame, z)
        assert np.all(img.main.values == 0)
        assert img.error_pth == 0.0

    def test_main_term_reproduces_span_elements(self):
        frame = tiny_frame((80, 160))
        for f in span_corpus(frame, 5, seed=3):
            img = frame_operator(frame, f)
            assert np.abs(img.main.values - f.values).max() <= 1e-12

    def test_contraction_on_corpus(self):
        frame = tiny_frame((80, 160))
        worst = 0.0
        for f in span_corpus(frame, 25, seed=4):
            worst = max(worst, operator_deviation(frame, f) / lp_norm(f, P4))
        assert worst <= frame.q + 1e-9

    def test_error_mass_matches_direct_enumeration(self):
        frame = tiny_frame((80, 160), s_value=Fraction(1, 4))
        f = span_corpus(frame, 1, seed=5)[0]
        fast = frame_operator(frame, f).error_pth
        direct = error_pth_direct(frame, f)
        assert fast == pytest.approx(direct, rel=1e-9)

    def test_dense_application_demo_frame(self):
        plan = demo_plan((2, 3))
        sel = select_translates(spread_candidates(5, base=4, ratio=5), plan)
        frame = build_frame(plan, sel)
        f = span_corpus(frame, 1, seed=6)[0]
        lo = min(pj.t - pi.t for pi in sel.points for pj in sel.points)
        hi = max(pj.t - pi.t for pi in sel.points for pj in sel.points) + 1
        grid = Grid.over(lo, hi, frame.span_grid.step_log2)
        dense = frame_operator_dense(frame, f, grid)
        img = frame_operator(frame, f)
        total_pth = lp_norm_pth(img.main, P4) + img.error_pth
        assert lp_norm_pth(dense, P4) == pytest.approx(total_pth, rel=1e-9)

    def test_single_atom_plan_is_identity(self):
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        frame = build_frame(plan, sel)
        f = span_corpus(frame, 1, seed=7)[0]
        img = frame_operator(frame, f)
        assert img.error_pth == 0.0
        assert np.abs(img.main.values - f.values).max() <= 1e-12

    def test_refuses_colliding_selection(self):
        # repeated differences collide exactly; the built frame must carry a
        # failed certificate and the operator must refuse to use it
        plan = demo_plan((4, 6))
        sel = TranslateSelection(
            tuple(TimeFreqPoint(Fraction(4 * n), 0) for n in range(1, plan.total + 1))
        )
        frame = build_frame(plan, sel)
        assert frame.certificate["difference_sets_disjoint"] is False
        f = span_corpus(frame, 1, seed=7)[0]
        with pytest.raises(InsufficientSpread):
            frame_operator(frame, f)

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
        f = span_corpus(frame, 1, seed=7)[0]
        with pytest.raises(InsufficientSpread):
            frame_operator(frame, f)


class TestNeumannAndReconstruction:
    def test_zero_input(self):
        frame = tiny_frame()
        z = SampledFunction.zero(frame.span_grid)
        res = invert_neumann(frame, z, 1e-8)
        assert res.iterations == 0
        rec = reconstruct(frame, z, 1e-8)
        assert rec.relative_error == 0.0 and rec.synthesis_residual == 0.0

    def test_single_atom_plan_one_iteration(self):
        plan = demo_plan((1,))
        sel = TranslateSelection((TimeFreqPoint(4, 0),))
        frame = build_frame(plan, sel)
        f = span_corpus(frame, 1, seed=8)[0]
        res = invert_neumann(frame, f, 1e-8)
        assert res.iterations == 1
        assert np.abs(res.solution.values - f.values).max() <= 1e-12

    def test_budget_formula(self):
        plan = plan_from_sizes(P4, (72, 144, 288))
        frame = build_frame(
            plan, select_translates(spread_candidates(504, base=4, ratio=5), plan)
        )
        budget = math.ceil(math.log(1e-8) / math.log(frame.q)) + 1
        assert budget == 26
        f = span_corpus(frame, 1, seed=8)[0]
        res = invert_neumann(frame, f, 1e-8)
        assert res.iterations <= budget
        assert res.residual <= 1e-8

    def test_reconstruction_meets_tolerance(self):
        frame = tiny_frame((80, 160))
        for f in span_corpus(frame, 10, seed=9):
            rec = reconstruct(frame, f, 1e-8)
            assert rec.relative_error <= 1e-8
            assert rec.synthesis_residual <= frame.q + 1e-9

    def test_sign_flipped_synthesis_bounded(self):
        frame = tiny_frame((80, 160))
        bound = (1 + frame.q) / (1 - frame.q)
        for f in span_corpus(frame, 5, seed=10):
            worst = sign_flip_synthesis_max(frame, f, patterns=256, seed=11)
            assert worst <= bound * (1 + 1e-9)

    def test_sign_flip_direct_oracle(self):
        # oracle: place signed pieces one by one and integrate
        frame = tiny_frame((37,))
        plan = frame.plan
        f = span_corpus(frame, 1, seed=12)[0]
        inv = invert_neumann(frame, f, 1e-8)
        signs = rng_for(13).integers(0, 2, size=plan.total) * 2 - 1
        b = span_coefficients(frame, inv.solution)
        block_of = plan.block_of_index()
        means = np.bincount(block_of, weights=signs, minlength=len(plan.sizes))
        means = means / np.array(plan.sizes, dtype=float)
        span_vals = (means * b) @ np.array(frame._atom_values)
        span_pth = float((np.abs(span_vals) ** 4).sum() * frame.span_grid.step)
        step = frame.span_grid.step
        err_pth = sum(
            float((np.abs(signs[j] * vals) ** 4).sum() * step)
            for _, j, _, vals in error_pieces(frame, inv.solution)
        )
        direct = (span_pth + err_pth) ** 0.25 / lp_norm(f, P4)
        assert direct <= (1 + frame.q) / (1 - frame.q)


class TestSerialization:
    def test_roundtrip_preserves_certificate(self):
        frame = tiny_frame((80, 160))
        back = frame_from_json(frame.to_json())
        assert back.q == frame.q
        assert back.plan.sizes == frame.plan.sizes
        assert back.certificate["difference_sets_disjoint"]
        assert [pt.t for pt in back.selection.points] == [
            pt.t for pt in frame.selection.points
        ]
