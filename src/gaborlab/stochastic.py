"""Rademacher averages and the inequality toolbox built on them.

Exact expectations enumerate all 2^n sign patterns (n <= 12 for function
families, n <= 20 for scalar sums).  The Khintchine and square-function sandwiches hold with
constant 1 on one side: the lower constant is 1 for p >= 2 and the upper
constant is 1 for p <= 2, which the tests assert exactly.

Every signed p-mass || sum_j theta_j c_j v_j ||_p^p is formed by one kernel,
combination_pth, from coefficient rows and a matrix of sampled values.  The
sign-flip extremes behind every unconditionality check are enumerated exactly
for at most 12 functions and sampled otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import AliasedFrequency, NotLacunary, TooManyFunctions, ZeroFunction
from .grids import Exponent, Grid, SampledFunction, lp_norm
from .rng import rng_for, sign_matrix

EXACT_FUNCTION_CUTOFF = 12
EXACT_SCALAR_CUTOFF = 20


def all_sign_patterns(n: int) -> np.ndarray:
    """All 2^n patterns of +-1 as a (2^n, n) array."""
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return bits.astype(np.int8) * 2 - 1


def combination_pth(
    rows: np.ndarray, mat: np.ndarray, step: float, p: Exponent
) -> np.ndarray:
    """|| sum_j rows[r, j] v_j ||_p^p for every row r.

    The v_j are the rows of mat: step functions on one grid of the given step.
    """
    return (np.abs(rows @ mat) ** p.p).sum(axis=1) * step


def _value_matrix(fs: Sequence[SampledFunction]) -> Tuple[np.ndarray, Grid]:
    grid = fs[0].grid
    for f in fs[1:]:
        if f.grid != grid:
            raise ValueError("all functions must share one grid")
    return np.array([f.values for f in fs]), grid


def _pattern_pth(fs: Sequence[SampledFunction], p: Exponent) -> np.ndarray:
    """|| sum_j eps_j f_j ||_p^p for every sign pattern eps (one zero for no fs)."""
    n = len(fs)
    if n > EXACT_FUNCTION_CUTOFF:
        raise TooManyFunctions(f"{n} > {EXACT_FUNCTION_CUTOFF}")
    if n == 0:
        return np.zeros(1)
    mat, grid = _value_matrix(fs)
    signs = all_sign_patterns(n).astype(np.complex128)
    return combination_pth(signs, mat, grid.step, p)


def sign_flip_extremes(
    coeffs: Sequence[complex],
    mat: np.ndarray,
    step: float,
    p: Exponent,
    trials: int,
    seed: int,
) -> Tuple[float, float]:
    """Extremes over sign patterns of || sum theta_j c_j v_j ||_p / || sum c_j v_j ||_p.

    Enumerates all 2^n patterns when n <= EXACT_FUNCTION_CUTOFF; otherwise
    samples `trials` patterns from the seeded stream.  Row 0 is the identity
    up to a global sign (all minus when enumerating, set to all plus when
    sampling), which leaves the norm unchanged, so both extremes bracket 1.
    """
    vec = np.asarray(coeffs, dtype=np.complex128)
    n = len(vec)
    if n <= EXACT_FUNCTION_CUTOFF:
        signs = all_sign_patterns(n)
    else:
        signs = sign_matrix(rng_for(seed), trials, n)
        signs[0, :] = 1
    pth = combination_pth(signs * vec, mat, step, p)
    if pth[0] == 0.0:
        raise ZeroFunction("base combination is the zero function")
    ratios = (pth / pth[0]) ** (1.0 / p.p)
    return float(ratios.max()), float(ratios.min())


def rademacher_pnorm_exact(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """(E || sum_j eps_j f_j ||_p^p)^(1/p) by full sign-pattern enumeration."""
    return float(_pattern_pth(fs, p).mean()) ** (1.0 / p.p)


def rademacher_mean_norm_exact(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """First moment E || sum_j eps_j f_j ||_p by full enumeration."""
    return float((_pattern_pth(fs, p) ** (1.0 / p.p)).mean())


def khintchine_ratio(a: Sequence[complex], p: Exponent) -> float:
    """(E |sum a_n eps_n|^p)^(1/p) divided by the l2 norm of a."""
    n = len(a)
    if n > EXACT_SCALAR_CUTOFF:
        raise TooManyFunctions(f"{n} > {EXACT_SCALAR_CUTOFF}")
    arr = np.asarray(a, dtype=np.complex128)
    l2 = float(np.linalg.norm(arr))
    if l2 == 0.0:
        raise ValueError("zero coefficient vector")
    sums = all_sign_patterns(n).astype(np.complex128) @ arr
    moment = float((np.abs(sums) ** p.p).mean()) ** (1.0 / p.p)
    return moment / l2


def cotype2_ratio(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """(sum ||f_j||_p^2)^(1/2) / E || sum eps_j f_j ||_p, for p <= 2."""
    if p.p > 2.0:
        raise ValueError("cotype-2 ratio is formed for p <= 2")
    num = float(np.sqrt(sum(lp_norm(f, p) ** 2 for f in fs)))
    den = rademacher_mean_norm_exact(fs, p)
    return num / den


def type2_ratio(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """E || sum eps_j f_j ||_p / (sum ||f_j||_p^2)^(1/2), for p >= 2."""
    if p.p < 2.0:
        raise ValueError("type-2 ratio is formed for p >= 2")
    num = rademacher_mean_norm_exact(fs, p)
    den = float(np.sqrt(sum(lp_norm(f, p) ** 2 for f in fs)))
    return num / den


def verify_lacunary(freqs: Sequence[int], min_ratio: float = 2.0) -> None:
    """Check s_{n+1}/s_n >= min_ratio with exact integer arithmetic."""
    if any(int(s) != s or s <= 0 for s in freqs):
        raise NotLacunary("frequencies must be positive integers")
    r = Fraction(min_ratio)
    for a, b in zip(freqs, freqs[1:]):
        if Fraction(int(b), int(a)) < r:
            raise NotLacunary(f"ratio {b}/{a} below {min_ratio}")


def lacunary_pnorm(
    a: Sequence[complex],
    freqs: Sequence[int],
    p: Exponent,
    min_ratio: float = 2.0,
    step_log2: int = -10,
) -> float:
    """(integral over [0,1] of |sum a_n exp(2 pi i s_n x)|^p)^(1/p) on a fine grid.

    The frequencies must be positive integers with successive ratios at least
    min_ratio, all below the grid Nyquist bound.  For even integer p the
    midpoint Riemann sum is exact (every cross frequency stays on-grid);
    for other p the value carries the usual midpoint quadrature error.
    """
    if len(a) != len(freqs):
        raise ValueError("coefficients and frequencies must have equal length")
    verify_lacunary(freqs, min_ratio)
    nyq = 2 ** (-step_log2 - 1)
    if max(freqs) >= nyq:
        raise AliasedFrequency(f"max frequency {max(freqs)} >= Nyquist {nyq}")
    grid = Grid.over(0, 1, step_log2)
    x = grid.midpoints()
    total = np.zeros(grid.count, dtype=np.complex128)
    for coeff, s in zip(a, freqs):
        total += coeff * np.exp(2j * np.pi * s * x)
    return float((np.abs(total) ** p.p).sum() * grid.step) ** (1.0 / p.p)
