"""Rademacher averages, Khintchine ratios, type/cotype, lacunary sums."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborlab.errors import AliasedFrequency, NotLacunary, TooManyFunctions
from gaborlab.grids import (
    CHUNK_CELLS,
    Exponent,
    Grid,
    SampledFunction,
    lp_ell2_norm,
    lp_norm,
    moduli_pth,
)
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import (
    EXACT_FUNCTION_CUTOFF,
    _mirrored_pths,
    all_sign_patterns,
    combination_pth,
    khintchine_ratios,
    lacunary_pnorms,
    rademacher_mean_norms_exact,
    rademacher_pnorms_exact,
    type_cotype_ratios,
)
from gaborlab.suites import ATOMS_MAX_N, KHINTCHINE_MAX_N, random_atoms

GRID = Grid.over(0, 2, -4)
ATOM_GRID = Grid.over(0, 4, -5)  # the grid of squarefunc's families


def random_fns(n, seed):
    return [
        SampledFunction(GRID, complex_gaussian(rng_for(seed, j), GRID.count))
        for j in range(n)
    ]


def value_matrix(fs):
    return np.array([f.values for f in fs])


def disjoint_pair(p):
    f = SampledFunction.indicator(0, 1, GRID) * 1.3
    g = SampledFunction.indicator(1, 2, GRID) * (0.4 - 0.9j)
    return f, g


class TestExactEnumeration:
    def test_sign_patterns_complete(self):
        pats = all_sign_patterns(3)
        assert pats.shape == (8, 3)
        assert len({tuple(row) for row in pats.tolist()}) == 8

    def test_single_function(self):
        p = Exponent(3.0)
        (f,) = random_fns(1, 41)
        assert rademacher_pnorms_exact(f.values[None], GRID.step, [p])[0] == pytest.approx(
            lp_norm(f, p), rel=1e-13
        )

    def test_two_disjoint_supports_constant_integrand(self):
        p = Exponent(2.5)
        f, g = disjoint_pair(p)
        expect = (lp_norm(f, p) ** p.p + lp_norm(g, p) ** p.p) ** (1 / p.p)
        got = rademacher_pnorms_exact(value_matrix([f, g]), GRID.step, [p])[0]
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(2.0), Exponent(4.0)])
    def test_square_function_sandwich_on_atoms(self, p):
        mat = value_matrix(random_fns(10, 42))
        sf = lp_ell2_norm(mat, GRID.step, [p])[0]
        mean = rademacher_pnorms_exact(mat, GRID.step, [p])[0]
        if p.p >= 2.0:
            assert mean >= sf * (1 - 1e-12)
        if p.p <= 2.0:
            assert mean <= sf * (1 + 1e-12)

    def test_cutoff(self):
        with pytest.raises(TooManyFunctions):
            rademacher_pnorms_exact(value_matrix(random_fns(13, 43)), GRID.step,
                                    [Exponent(2.0)])

    def test_empty_family_has_mass_zero(self):
        # the one sign pattern of no functions sums to the zero function, so
        # every kernel gives 0, as lp_ell2_norm does; the ratios are 0/0
        empty = np.zeros((0, GRID.count), dtype=np.complex128)
        ps = [Exponent(1.5), Exponent(2.0), Exponent(4.0)]
        assert rademacher_pnorms_exact(empty, GRID.step, ps) == [0.0] * 3
        assert rademacher_mean_norms_exact(empty, GRID.step, ps) == [0.0] * 3
        assert lp_ell2_norm(empty, GRID.step, ps) == [0.0] * 3
        for family in (empty, np.zeros((2, GRID.count))):
            with pytest.raises(ValueError, match="zero family"):
                type_cotype_ratios(family, GRID.step, ps[:2], ps[1:])
        with pytest.raises(ValueError, match="zero coefficient vector"):
            khintchine_ratios([], ps)


class TestSignFlipExtremes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        # combination_pth over every sign pattern against one lp_norm per pattern
        p = Exponent(3.0)
        mat = value_matrix(random_fns(n, 40))
        c = complex_gaussian(rng_for(41, n), n)
        base = lp_norm(SampledFunction(GRID, c @ mat), p)
        ratios = [
            lp_norm(SampledFunction(GRID, (np.array(theta) * c) @ mat), p) / base
            for theta in itertools.product((-1, 1), repeat=n)
        ]
        pth = combination_pth(all_sign_patterns(n) * c, mat, GRID.step, [p])[0]
        got = (pth / pth[0]) ** (1.0 / p.p)  # row 0, all minus, has the norm of c
        assert got.max() == pytest.approx(max(ratios), rel=1e-12)
        assert got.min() == pytest.approx(min(ratios), rel=1e-12)


@st.composite
def chunked_batches(draw):
    """(rows, mat, ps): rows of cells below, at or above CHUNK_CELLS, and
    about one, two or three chunks of them, give or take a row."""
    cells = draw(st.one_of(st.integers(1, CHUNK_CELLS - 1), st.just(CHUNK_CELLS),
                           st.integers(CHUNK_CELLS + 1, 2 * CHUNK_CELLS)))
    per_chunk = max(2, CHUNK_CELLS // cells)
    count = max(1, draw(st.integers(1, 3)) * per_chunk + draw(st.integers(-1, 1)))
    n = draw(st.integers(1, EXACT_FUNCTION_CUTOFF))
    rng = rng_for(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        # sign patterns times coefficients, as the suites and frames form them
        rows = np.where(rng.random((count, n)) < 0.5, -1, 1) * complex_gaussian(rng, n)
    else:
        rows = complex_gaussian(rng, count * n).reshape(count, n)
    mat = complex_gaussian(rng, n * cells).reshape(n, cells)
    ps = draw(st.lists(st.sampled_from([1.5, 2.0, 2.7, 3.0, 4.0]), min_size=1, max_size=3))
    return rows, mat, [Exponent(p) for p in ps]


class TestChunkedProducts:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(chunked_batches())
    def test_chunks_keep_the_bits_of_one_product(self, batch):
        # the oracle multiplies and reduces the whole batch at once
        rows, mat, ps = batch
        got = combination_pth(rows, mat, GRID.step, ps)
        for pth, p in zip(got, ps):
            want = moduli_pth(np.abs(rows @ mat), GRID.step, p)
            assert pth.tobytes() == want.tobytes()


def _family(n, count, step_log2, seed, ps):
    """(mat, step, ps): the (n, count) values of n complex Gaussian functions
    on a grid of step 2^step_log2, the step and the exponents."""
    rng = rng_for(seed)
    return np.array([complex_gaussian(rng, count) for _ in range(n)]), 2.0**step_log2, ps


@st.composite
def sign_families(draw):
    """_family of n = 1..12 functions on grids of 1 to 300 cells, so that the
    products take one or many row chunks."""
    return _family(draw(st.integers(1, EXACT_FUNCTION_CUTOFF)), draw(st.integers(1, 300)),
                   draw(st.integers(-6, 0)), draw(st.integers(0, 2**31)),
                   [Exponent(p) for p in draw(st.lists(
                       st.sampled_from([1.5, 2.0, 2.7, 3.0, 4.0]), min_size=1, max_size=3))])


class TestHalfEnumeration:
    """Products of half the sign patterns, mirrored, against the one-shot
    product of all 2^n patterns, compared by bytes."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sign_families())
    @example(_family(1, 5, -2, 2, [Exponent(3.0)]))
    @example(_family(EXACT_FUNCTION_CUTOFF, 128, -5, 3, [Exponent(1.5), Exponent(4.0)]))
    def test_half_keeps_the_bits_of_the_full_enumeration(self, family):
        mat, step, ps = family
        n = len(mat)
        full = [moduli_pth(np.abs(all_sign_patterns(n) @ mat), step, p) for p in ps]
        for got, want in zip(_mirrored_pths(mat, step, ps), full):
            assert got.tobytes() == want.tobytes()
        assert rademacher_pnorms_exact(mat, step, ps) == [
            float(pth.mean()) ** (1.0 / p.p) for pth, p in zip(full, ps)]
        assert rademacher_mean_norms_exact(mat, step, ps) == [
            float((pth ** (1.0 / p.p)).mean()) for pth, p in zip(full, ps)]
        a = mat[:, 0]
        mods = np.abs(all_sign_patterns(n).astype(np.complex128) @ a)
        assert khintchine_ratios(a, ps) == [
            float((mods**p.p).mean()) ** (1.0 / p.p) / float(np.linalg.norm(a))
            for p in ps]


class TestKhintchine:
    def test_single_coefficient(self):
        assert khintchine_ratios([1.0], [Exponent(4.0)])[0] == pytest.approx(1.0)

    def test_two_ones_p2_orthonormal(self):
        assert khintchine_ratios([1.0, 1.0], [Exponent(2.0)])[0] == pytest.approx(
            1.0, abs=1e-14
        )

    def test_two_ones_p4_brute_force(self):
        # oracle: enumerate the 4 patterns directly
        sums = [s1 + s2 for s1 in (1, -1) for s2 in (1, -1)]
        moment = (np.mean([abs(s) ** 4 for s in sums])) ** 0.25
        expect = moment / np.sqrt(2.0)
        got = khintchine_ratios([1.0, 1.0], [Exponent(4.0)])[0]
        assert got == pytest.approx(expect, rel=1e-14)
        assert got >= 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_one_sided_constants(self, p):
        rng = rng_for(47)
        for trial in range(25):
            n = int(rng.integers(1, 13))
            a = complex_gaussian(rng, n)
            r = khintchine_ratios(a, [Exponent(p)])[0]
            if p >= 2.0:
                assert r >= 1.0 - 1e-12
            if p <= 2.0:
                assert r <= 1.0 + 1e-12


class TestTypeCotype:
    def test_single_function_both_one(self):
        mat = value_matrix(random_fns(1, 48))
        cotype, type_ = type_cotype_ratios(mat, GRID.step, [Exponent(1.5)], [Exponent(3.0)])
        assert cotype[0] == pytest.approx(1.0, rel=1e-12)
        assert type_[0] == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_supports_p2_parseval(self):
        f, g = disjoint_pair(Exponent(2.0))
        cotype, type_ = type_cotype_ratios(value_matrix([f, g]), GRID.step, [Exponent(2.0)],
                                           [Exponent(2.0)])
        assert cotype[0] == pytest.approx(1.0, rel=1e-12)
        assert type_[0] == pytest.approx(1.0, rel=1e-12)

    def test_exponent_gating(self):
        mat = value_matrix(random_fns(2, 49))
        with pytest.raises(ValueError):
            type_cotype_ratios(mat, GRID.step, [Exponent(3.0)], [])
        with pytest.raises(ValueError):
            type_cotype_ratios(mat, GRID.step, [], [Exponent(1.5)])


class TestLacunary:
    def test_single_term_modulus(self):
        got = lacunary_pnorms([[2.0 - 1.0j]], [4], [Exponent(3.0)])[0][0]
        assert got == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)

    def test_p2_orthonormality_exact(self):
        a = complex_gaussian(rng_for(50), 6)
        freqs = [1, 2, 4, 8, 16, 32]
        got = lacunary_pnorms([a], freqs, [Exponent(2.0)])[0][0]
        assert got == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)

    def test_even_p_grid_exactness(self):
        # p = 4 integrals stay on-grid, so two resolutions agree to rounding
        a = complex_gaussian(rng_for(51), 5)
        freqs = [1, 2, 4, 8, 16]
        coarse = lacunary_pnorms([a], freqs, [Exponent(4.0)], step_log2=-7)[0][0]
        fine = lacunary_pnorms([a], freqs, [Exponent(4.0)], step_log2=-11)[0][0]
        assert coarse == pytest.approx(fine, rel=1e-12)

    def test_rejects_non_lacunary(self):
        with pytest.raises(NotLacunary):
            lacunary_pnorms([[1.0, 1.0]], [4, 6], [Exponent(2.0)])

    def test_rejects_aliased(self):
        with pytest.raises(AliasedFrequency):
            lacunary_pnorms([[1.0, 1.0]], [1, 1024], [Exponent(2.0)], step_log2=-10)


class TestFirstMoment:
    def test_mean_norm_vs_pth_moment(self):
        # Jensen: E||.|| <= (E||.||^p)^(1/p) for p >= 1
        p = Exponent(3.0)
        mat = value_matrix(random_fns(6, 52))
        mean = rademacher_mean_norms_exact(mat, GRID.step, [p])[0]
        assert mean <= rademacher_pnorms_exact(mat, GRID.step, [p])[0] * (1 + 1e-12)


def exact_moments(values, step):
    """(E ||S||_2^2, E ||S||_4^4, ||(sum_j |v_j|^2)^(1/2)||_4^4) for
    S = sum_j eps_j v_j over independent signs, v_j the rows of values, as
    Fractions exact from the float entries.  Pointwise E|S|^2 = sum_j |v_j|^2
    and E|S|^4 = 2 (sum_j |v_j|^2)^2 + |sum_j v_j^2|^2 - 2 sum_j |v_j|^4; each
    norm is step times a sum of these over the cells.  Every float is a
    dyadic rational, so the entries are taken as Python ints over one power
    of two."""
    parts = np.concatenate([values.real, values.imag])
    ratios = [x.as_integer_ratio() for x in parts.ravel().tolist()]
    scale = max(den for _, den in ratios)
    ints = np.array([num * (scale // den) for num, den in ratios], dtype=object)
    re, im = np.split(ints.reshape(parts.shape), 2)
    sq = re * re + im * im
    a = sq.sum(axis=0)
    squares = (re * re - im * im).sum(axis=0) ** 2 + (2 * re * im).sum(axis=0) ** 2
    step = Fraction(step)
    return (step * Fraction(int(a.sum()), scale**2),
            step * Fraction(int((2 * a * a + squares - 2 * (sq * sq).sum(axis=0)).sum()),
                            scale**4),
            step * Fraction(int((a * a).sum()), scale**4))


# The bounds below are counts of the unit roundoff u = 2^-53, the relative
# error of one rounding, allowed between fl(r^p), r a kernel's value at p = 2
# or 4, and the exact moment, by first-order error analysis for any order of
# summation (so for any BLAS kernel or SIMD target).  A sum of N non-negative
# terms is off by at most (N - 1) u relative; numpy's complex modulus and
# power are budgeted 4 u each, Python's float root and power 1 u each; steps
# and 1/2^n are powers of two, so they multiply exactly.  One more u covers
# the second-order terms.  A bound of k u is below k ulps of the exact value.
def rademacher_units(n, cells, p):
    """rademacher_pnorms_exact over n functions of `cells` cells.  A signed
    sum S(x) = sum_j eps_j v_j(x) is off by at most sqrt(2) (n - 1) u
    sum_j |v_j(x)| (its real and imaginary parts separately), which moves
    E|S|^p by p times that times E|S|^(p-1); by Hoelder and
    E|S|^p >= (E|S|^2)^(p/2) = (sum_j |v_j|^2)^(p/2), that is at most
    p sqrt(2n) (n - 1) u E|S|^p.  Then |S| and its p-th power (4p + 4), the
    sums over the cells and the 2^n patterns, the root and the test's p-th
    power (p + 1)."""
    return (p * np.sqrt(2 * n) * (n - 1) + (4 * p + 4) + (cells - 1) + (2**n - 1)
            + (p + 1) + 1)


def ell2_units(n, cells, p):
    """lp_ell2_norm over n functions: |v_j|^2 (4 + 4 + 1), their sum in row
    order (n - 1), its (p/2)-th power (p/2 times that, plus 4), the sum over
    the cells, the root and the test's p-th power (p + 1)."""
    return p / 2 * (n + 8) + 4 + (cells - 1) + p + 2


def khintchine_units(n, p):
    """khintchine_ratios over n coefficients: the one-cell family's
    rademacher_units, and ||a||_2 (half of |a|^2's n + 1, plus the square
    root) and the division, each raised to the p-th power."""
    return rademacher_units(n, 1, p) + p * ((n + 1) / 2 + 2)


def assert_within(root, p, exact, units):
    got = Fraction(float(root) ** p)
    assert abs(got - exact) <= units * exact / 2**53, (float(got), float(exact))


def check_family(values, step):
    m2, m4, s4 = exact_moments(values, step)
    n, cells = values.shape
    r2, r4 = rademacher_pnorms_exact(values, step, [Exponent(2.0), Exponent(4.0)])
    e2, e4 = lp_ell2_norm(values, step, [Exponent(2.0), Exponent(4.0)])
    assert_within(r2, 2, m2, rademacher_units(n, cells, 2))
    assert_within(r4, 4, m4, rademacher_units(n, cells, 4))
    assert_within(e2, 2, m2, ell2_units(n, cells, 2))
    assert_within(e4, 4, s4, ell2_units(n, cells, 4))


def check_coefficients(a):
    m2, m4, _ = exact_moments(np.asarray(a)[:, None], 1.0)
    k2, k4 = khintchine_ratios(a, [Exponent(2.0), Exponent(4.0)])
    assert_within(k2, 2, Fraction(1), khintchine_units(len(a), 2))
    assert_within(k4, 4, m4 / m2**2, khintchine_units(len(a), 4))


BENCH_SEEDS = (20260810, 4242)


class TestExactReferences:
    """The exact enumerations at p = 2 and 4 against closed-form moments,
    within the error-analysis bounds above, on squarefunc's families and
    khintchine's coefficient vectors."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(2, ATOMS_MAX_N), st.integers(0, 2**31))
    def test_atom_families(self, n, seed):
        check_family(random_atoms(rng_for(seed), n, ATOM_GRID), ATOM_GRID.step)

    @pytest.mark.parametrize("seed", BENCH_SEEDS)
    def test_squarefunc_families_at_bench_seeds(self, seed):
        for trial in range(50):
            n = int(rng_for(seed, trial, 1).integers(2, ATOMS_MAX_N + 1))
            check_family(random_atoms(rng_for(seed, trial), n, ATOM_GRID), ATOM_GRID.step)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, KHINTCHINE_MAX_N), st.integers(0, 2**31))
    def test_coefficient_vectors(self, n, seed):
        check_coefficients(complex_gaussian(rng_for(seed), n))

    @pytest.mark.parametrize("seed", BENCH_SEEDS)
    def test_khintchine_draws_at_bench_seeds(self, seed):
        for trial in range(100):
            rng = rng_for(seed, trial)
            check_coefficients(complex_gaussian(rng, int(rng.integers(1, KHINTCHINE_MAX_N + 1))))
