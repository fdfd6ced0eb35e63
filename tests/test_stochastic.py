"""Rademacher averages, Khintchine ratios, type/cotype, lacunary sums."""

import numpy as np
import pytest

from gaborlab.errors import AliasedFrequency, NotLacunary, TooManyFunctions
from gaborlab.grids import Exponent, Grid, SampledFunction, lp_norm
from gaborlab.rng import complex_gaussian, rng_for
from gaborlab.stochastic import (
    all_sign_patterns,
    cotype2_ratio,
    khintchine_ratio,
    lacunary_pnorm,
    rademacher_mean_norm_exact,
    rademacher_pnorm_exact,
    type2_ratio,
)

GRID = Grid.over(0, 2, -4)


def random_fns(n, seed):
    return [
        SampledFunction(GRID, complex_gaussian(rng_for(seed, j), GRID.count))
        for j in range(n)
    ]


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
        assert rademacher_pnorm_exact([f], p) == pytest.approx(
            lp_norm(f, p), rel=1e-13
        )

    def test_two_disjoint_supports_constant_integrand(self):
        p = Exponent(2.5)
        f, g = disjoint_pair(p)
        expect = (lp_norm(f, p) ** p.p + lp_norm(g, p) ** p.p) ** (1 / p.p)
        assert rademacher_pnorm_exact([f, g], p) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [Exponent(1.5), Exponent(2.0), Exponent(4.0)])
    def test_square_function_sandwich_on_atoms(self, p):
        from gaborlab.grids import lp_ell2_norm

        fs = random_fns(10, 42)
        sf = lp_ell2_norm(fs, p)
        mean = rademacher_pnorm_exact(fs, p)
        if p.p >= 2.0:
            assert mean >= sf * (1 - 1e-12)
        if p.p <= 2.0:
            assert mean <= sf * (1 + 1e-12)

    def test_cutoff(self):
        with pytest.raises(TooManyFunctions):
            rademacher_pnorm_exact(random_fns(13, 43), Exponent(2.0))


class TestKhintchine:
    def test_single_coefficient(self):
        assert khintchine_ratio([1.0], Exponent(4.0)) == pytest.approx(1.0)

    def test_two_ones_p2_orthonormal(self):
        assert khintchine_ratio([1.0, 1.0], Exponent(2.0)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_two_ones_p4_brute_force(self):
        # oracle: enumerate the 4 patterns directly
        sums = [s1 + s2 for s1 in (1, -1) for s2 in (1, -1)]
        moment = (np.mean([abs(s) ** 4 for s in sums])) ** 0.25
        expect = moment / np.sqrt(2.0)
        got = khintchine_ratio([1.0, 1.0], Exponent(4.0))
        assert got == pytest.approx(expect, rel=1e-14)
        assert got >= 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_one_sided_constants(self, p):
        rng = rng_for(47)
        for trial in range(25):
            n = int(rng.integers(1, 13))
            a = complex_gaussian(rng, n)
            r = khintchine_ratio(a, Exponent(p))
            if p >= 2.0:
                assert r >= 1.0 - 1e-12
            if p <= 2.0:
                assert r <= 1.0 + 1e-12


class TestTypeCotype:
    def test_single_function_both_one(self):
        fs = random_fns(1, 48)
        assert cotype2_ratio(fs, Exponent(1.5)) == pytest.approx(1.0, rel=1e-12)
        assert type2_ratio(fs, Exponent(3.0)) == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_supports_p2_parseval(self):
        f, g = disjoint_pair(Exponent(2.0))
        assert cotype2_ratio([f, g], Exponent(2.0)) == pytest.approx(1.0, rel=1e-12)
        assert type2_ratio([f, g], Exponent(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_exponent_gating(self):
        fs = random_fns(2, 49)
        with pytest.raises(ValueError):
            cotype2_ratio(fs, Exponent(3.0))
        with pytest.raises(ValueError):
            type2_ratio(fs, Exponent(1.5))


class TestLacunary:
    def test_single_term_modulus(self):
        got = lacunary_pnorm([2.0 - 1.0j], [4], Exponent(3.0))
        assert got == pytest.approx(abs(2.0 - 1.0j), rel=1e-12)

    def test_p2_orthonormality_exact(self):
        a = complex_gaussian(rng_for(50), 6)
        freqs = [1, 2, 4, 8, 16, 32]
        got = lacunary_pnorm(a, freqs, Exponent(2.0))
        assert got == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)

    def test_even_p_grid_exactness(self):
        # p = 4 integrals stay on-grid, so two resolutions agree to rounding
        a = complex_gaussian(rng_for(51), 5)
        freqs = [1, 2, 4, 8, 16]
        coarse = lacunary_pnorm(a, freqs, Exponent(4.0), step_log2=-7)
        fine = lacunary_pnorm(a, freqs, Exponent(4.0), step_log2=-11)
        assert coarse == pytest.approx(fine, rel=1e-12)

    def test_p2_orthonormality_without_gaps(self):
        # the p = 2 identity needs only distinct integer frequencies
        a = complex_gaussian(rng_for(53), 4)
        got = lacunary_pnorm(a, [10, 11, 12, 13], Exponent(2.0), min_ratio=1.01)
        assert got == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)

    def test_rejects_non_lacunary(self):
        with pytest.raises(NotLacunary):
            lacunary_pnorm([1.0, 1.0], [4, 6], Exponent(2.0))

    def test_rejects_aliased(self):
        with pytest.raises(AliasedFrequency):
            lacunary_pnorm([1.0, 1.0], [1, 1024], Exponent(2.0), step_log2=-10)


class TestFirstMoment:
    def test_mean_norm_vs_pth_moment(self):
        # Jensen: E||.|| <= (E||.||^p)^(1/p) for p >= 1
        p = Exponent(3.0)
        fs = random_fns(6, 52)
        assert rademacher_mean_norm_exact(fs, p) <= rademacher_pnorm_exact(
            fs, p
        ) * (1 + 1e-12)
