"""Rademacher averages and the inequality toolbox built on them.

Exact expectations enumerate all 2^n sign patterns (n <= 12 for function
families, n <= 20 for scalar sums).  The Khintchine and square-function sandwiches hold with
constant 1 on one side: the lower constant is 1 for p >= 2 and the upper
constant is 1 for p <= 2, which the tests assert exactly.

Every signed p-mass || sum_j theta_j c_j v_j ||_p^p is formed by one kernel,
combination_pth, from coefficient rows and a matrix of sampled values, and
reduced to one p-mass per row by grids.moduli_pth.  The sign-flip extremes
behind every unconditionality check are enumerated exactly for at most 12
functions and sampled otherwise.

Each quantity has a kernel that takes a list of exponents (and, for the
lacunary sums, a matrix of coefficient rows) and does the work shared by
them once: one sign-pattern product per family or scalar vector, one set of
exponentials per frequency.  The single-exponent functions
(khintchine_ratio, rademacher_*_exact, cotype2_ratio, type2_ratio,
lacunary_pnorm) are one-element calls of those kernels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import AliasedFrequency, NotLacunary, TooManyFunctions, ZeroFunction
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    lp_norm,
    moduli_norms,
    moduli_pth,
)
from .rng import rng_for, sign_matrix

EXACT_FUNCTION_CUTOFF = 12
EXACT_SCALAR_CUTOFF = 20
# cells summed per lacunary chunk: 256 KiB per complex array, 16 rows of the
# default 1024 cells, so memory grows with neither rows nor grid
LACUNARY_CELLS = 16384


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
    return moduli_pth(np.abs(rows @ mat), step, p)


def _value_matrix(fs: Sequence[SampledFunction]) -> Tuple[np.ndarray, Grid]:
    grid = fs[0].grid
    for f in fs[1:]:
        if f.grid != grid:
            raise ValueError("all functions must share one grid")
    return np.array([f.values for f in fs]), grid


def _pattern_pths(
    fs: Sequence[SampledFunction], ps: Sequence[Exponent]
) -> List[np.ndarray]:
    """|| sum_j eps_j f_j ||_p^p for every sign pattern eps, one array per p,
    from one product of the patterns with the values (one zero for no fs)."""
    n = len(fs)
    if n > EXACT_FUNCTION_CUTOFF:
        raise TooManyFunctions(f"{n} > {EXACT_FUNCTION_CUTOFF}")
    if n == 0:
        return [np.zeros(1) for _ in ps]
    mat, grid = _value_matrix(fs)
    mods = np.abs(all_sign_patterns(n).astype(np.complex128) @ mat)
    return [moduli_pth(mods, grid.step, p) for p in ps]


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


def rademacher_pnorms_exact(
    fs: Sequence[SampledFunction], ps: Sequence[Exponent]
) -> List[float]:
    """(E || sum_j eps_j f_j ||_p^p)^(1/p) for each p, by full enumeration."""
    return [
        float(pth.mean()) ** (1.0 / p.p) for pth, p in zip(_pattern_pths(fs, ps), ps)
    ]


def rademacher_pnorm_exact(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """(E || sum_j eps_j f_j ||_p^p)^(1/p) by full sign-pattern enumeration."""
    return rademacher_pnorms_exact(fs, [p])[0]


def rademacher_mean_norms_exact(
    fs: Sequence[SampledFunction], ps: Sequence[Exponent]
) -> List[float]:
    """First moments E || sum_j eps_j f_j ||_p for each p, by full enumeration."""
    return [
        float((pth ** (1.0 / p.p)).mean())
        for pth, p in zip(_pattern_pths(fs, ps), ps)
    ]


def rademacher_mean_norm_exact(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """First moment E || sum_j eps_j f_j ||_p by full enumeration."""
    return rademacher_mean_norms_exact(fs, [p])[0]


def khintchine_ratios(a: Sequence[complex], ps: Sequence[Exponent]) -> List[float]:
    """(E |sum a_n eps_n|^p)^(1/p) / ||a||_2 for each p, from one product of
    the sign patterns with a."""
    n = len(a)
    if n > EXACT_SCALAR_CUTOFF:
        raise TooManyFunctions(f"{n} > {EXACT_SCALAR_CUTOFF}")
    arr = np.asarray(a, dtype=np.complex128)
    l2 = float(np.linalg.norm(arr))
    if l2 == 0.0:
        raise ValueError("zero coefficient vector")
    mods = np.abs(all_sign_patterns(n).astype(np.complex128) @ arr)
    return [float((mods**p.p).mean()) ** (1.0 / p.p) / l2 for p in ps]


def khintchine_ratio(a: Sequence[complex], p: Exponent) -> float:
    """(E |sum a_n eps_n|^p)^(1/p) divided by the l2 norm of a."""
    return khintchine_ratios(a, [p])[0]


def type_cotype_ratios(
    fs: Sequence[SampledFunction],
    ps_cotype: Sequence[Exponent],
    ps_type: Sequence[Exponent],
) -> Tuple[List[float], List[float]]:
    """cotype2_ratio of fs at each p of ps_cotype and type2_ratio at each p of
    ps_type, from one sign-pattern product and one ||f_j||_p per exponent."""
    if any(p.p > 2.0 for p in ps_cotype):
        raise ValueError("cotype-2 ratio is formed for p <= 2")
    if any(p.p < 2.0 for p in ps_type):
        raise ValueError("type-2 ratio is formed for p >= 2")
    ps = list(dict.fromkeys([*ps_cotype, *ps_type]))
    means = dict(zip(ps, rademacher_mean_norms_exact(fs, ps)))
    squares = {p: float(np.sqrt(sum(lp_norm(f, p) ** 2 for f in fs))) for p in ps}
    return (
        [squares[p] / means[p] for p in ps_cotype],
        [means[p] / squares[p] for p in ps_type],
    )


def cotype2_ratio(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """(sum ||f_j||_p^2)^(1/2) / E || sum eps_j f_j ||_p, for p <= 2."""
    return type_cotype_ratios(fs, [p], [])[0][0]


def type2_ratio(fs: Sequence[SampledFunction], p: Exponent) -> float:
    """E || sum eps_j f_j ||_p / (sum ||f_j||_p^2)^(1/2), for p >= 2."""
    return type_cotype_ratios(fs, [], [p])[1][0]


def verify_lacunary(freqs: Sequence[int], min_ratio: float = 2.0) -> None:
    """Check s_{n+1}/s_n >= min_ratio with exact integer arithmetic."""
    if any(int(s) != s or s <= 0 for s in freqs):
        raise NotLacunary("frequencies must be positive integers")
    r = Fraction(min_ratio)
    for a, b in zip(freqs, freqs[1:]):
        if Fraction(int(b), int(a)) < r:
            raise NotLacunary(f"ratio {b}/{a} below {min_ratio}")


def lacunary_pnorms(
    coeffs: np.ndarray,
    freqs: Sequence[int],
    ps: Sequence[Exponent],
    min_ratio: float = 2.0,
    step_log2: int = -10,
) -> List[List[float]]:
    """lacunary_pnorm of every row of coeffs, one list of rows per p.

    Each exponential is sampled once for all rows, and one array of moduli
    serves every exponent.  Rows are summed in chunks of LACUNARY_CELLS
    cells, so memory grows with neither the rows nor the grid.
    """
    rows = np.asarray(coeffs, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] != len(freqs):
        raise ValueError("coefficients and frequencies must have equal length")
    verify_lacunary(freqs, min_ratio)
    nyq = 2 ** (-step_log2 - 1)
    if max(freqs) >= nyq:
        raise AliasedFrequency(f"max frequency {max(freqs)} >= Nyquist {nyq}")
    grid = Grid.over(0, 1, step_log2)
    x = grid.midpoints()
    waves = [np.exp(2j * np.pi * s * x) for s in freqs]
    out: List[List[float]] = [[] for _ in ps]
    per_chunk = max(1, LACUNARY_CELLS // grid.count)
    for start in range(0, len(rows), per_chunk):
        chunk = rows[start : start + per_chunk]
        total = np.zeros((len(chunk), grid.count), dtype=np.complex128)
        for k, wave in enumerate(waves):
            total += chunk[:, k : k + 1] * wave
        mods = np.abs(total)
        for norms, p in zip(out, ps):
            norms += moduli_norms(mods, grid.step, p)
    return out


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
    return lacunary_pnorms([a], freqs, [p], min_ratio, step_log2)[0][0]
