"""Rademacher averages and the inequality toolbox built on them.

Exact expectations average over all 2^n sign patterns (n <= 12; a scalar
sum is a family of one-cell functions), but multiply only half of them.
Pattern 2^n - 1 - k of all_sign_patterns(n) is the negation of pattern k, so
its product has the same moduli.  The products are formed for the 2^(n-1)
patterns whose last sign is -1, the first half of all_sign_patterns(n), and
their values followed by the same values in reverse order are every
pattern's, in all_sign_patterns order.  The bits are those of the full
product: negation is exact, the kernel takes the same steps on a row and on
its negation, and round-to-nearest is symmetric under negation, so the sums
are exact negations.  A property test checks this against the one-shot
product of all 2^n patterns.  It holds wherever a row's product does not
depend on the other rows multiplied with it, as on the platform the outputs
were recorded on; under some other OpenBLAS kernels it does not, for the
chunked full enumeration either (scripts/platforms.py reruns the test under
them).

The Khintchine and square-function sandwiches hold with
constant 1 on one side: the lower constant is 1 for p >= 2 and the upper
constant is 1 for p <= 2, which the tests assert exactly.

Every signed p-mass || sum_j theta_j c_j v_j ||_p^p is formed by one kernel,
combination_pth, from coefficient rows and a matrix of sampled values, and
reduced to one p-mass per row and exponent by grids.moduli_pth, a chunk of
rows at a time.

A family of functions reaches every kernel as (values, step): an (n, cells)
matrix whose rows are step functions on one grid of that step.  An empty
family (n = 0) has p-mass 0, as its one sign pattern sums to the zero
function; grids.lp_ell2_norm gives it 0 too.

Each quantity is a kernel that takes a list of exponents (and, for the
lacunary sums, a matrix of coefficient rows) and does the work shared by
them once: one pass of sign-pattern products per family or scalar vector,
one set of exponentials per frequency.  A single exponent or row is a
one-element call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import AliasedFrequency, NotLacunary, TooManyFunctions
from .grids import Exponent, Grid, moduli_norms, moduli_pth, row_chunks

EXACT_FUNCTION_CUTOFF = 12
LACUNARY_RATIO = 2  # the least s_{n+1} / s_n of a lacunary sequence


def all_sign_patterns(n: int) -> np.ndarray:
    """All 2^n patterns of +-1 as a (2^n, n) array."""
    codes = np.arange(2**n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return bits.astype(np.int8) * 2 - 1


def _mirrored(half: np.ndarray) -> np.ndarray:
    """Every sign pattern's value, in all_sign_patterns order, from the values
    of the first half, for a value that depends on a pattern only through
    the moduli of its product: pattern 2^n - 1 - k is -(pattern k)."""
    return np.concatenate([half, half[::-1]])


def combination_pth(
    rows: np.ndarray, mat: np.ndarray, step: float, ps: Sequence[Exponent]
) -> List[np.ndarray]:
    """|| sum_j rows[r, j] v_j ||_p^p for every row r, one array per p.

    The v_j are the rows of mat: step functions on one grid of the given step.
    The rows are multiplied with mat and reduced one grids.row_chunks chunk
    at a time into one vector per p, so memory grows with neither the rows
    nor the grid; each entry has the bits of the one-shot
    moduli_pth(np.abs(rows @ mat), step, p).
    """
    out = [np.empty(len(rows)) for _ in ps]
    for chunk in row_chunks(len(rows), mat.shape[1]):
        mods = np.abs(rows[chunk] @ mat)
        for pth, p in zip(out, ps):
            pth[chunk] = moduli_pth(mods, step, p)
    return out


def _mirrored_pths(mat: np.ndarray, step: float, ps: Sequence[Exponent]) -> List[np.ndarray]:
    """|| sum_j eps_j v_j ||_p^p for every sign pattern eps of
    all_sign_patterns(n), v_j the n rows of mat (step functions of the given
    step), one array per p; an empty family has one pattern, of p-mass 0.

    Only the first half of the patterns, those whose last sign is -1, is
    multiplied with the values; each of the other half is the negation of
    one of them, whose product has the same moduli, so its p-mass is taken
    from the mirrored half, bit for bit (see the module docstring).
    """
    n = len(mat)
    if n > EXACT_FUNCTION_CUTOFF:
        raise TooManyFunctions(f"{n} > {EXACT_FUNCTION_CUTOFF}")
    if n == 0:  # one pattern, the empty one, its own negation: the zero function
        return combination_pth(all_sign_patterns(0), mat, step, ps)
    half = all_sign_patterns(n)[: 2 ** (n - 1)]
    return [_mirrored(pth) for pth in combination_pth(half, mat, step, ps)]


def rademacher_pnorms_exact(
    values: np.ndarray, step: float, ps: Sequence[Exponent]
) -> List[float]:
    """(E || sum_j eps_j v_j ||_p^p)^(1/p) for each p, v_j the rows of values,
    by full enumeration."""
    return [
        float(pth.mean()) ** (1.0 / p.p)
        for pth, p in zip(_mirrored_pths(values, step, ps), ps)
    ]


def rademacher_mean_norms_exact(
    values: np.ndarray, step: float, ps: Sequence[Exponent]
) -> List[float]:
    """First moments E || sum_j eps_j v_j ||_p for each p, v_j the rows of
    values, by full enumeration."""
    return [
        float((pth ** (1.0 / p.p)).mean())
        for pth, p in zip(_mirrored_pths(values, step, ps), ps)
    ]


def khintchine_ratios(a: Sequence[complex], ps: Sequence[Exponent]) -> List[float]:
    """(E |sum a_n eps_n|^p)^(1/p) / ||a||_2 for each p: rademacher_pnorms_exact
    of the one-cell functions a_n, an (n, 1) value matrix of step 1."""
    arr = np.asarray(a, dtype=np.complex128)
    l2 = float(np.linalg.norm(arr))
    if l2 == 0.0:
        raise ValueError("zero coefficient vector")
    return [r / l2 for r in rademacher_pnorms_exact(arr[:, None], 1.0, ps)]


def type_cotype_ratios(
    values: np.ndarray,
    step: float,
    ps_cotype: Sequence[Exponent],
    ps_type: Sequence[Exponent],
) -> Tuple[List[float], List[float]]:
    """The cotype-2 ratio (sum ||v_j||_p^2)^(1/2) / E || sum eps_j v_j ||_p at
    each p <= 2 of ps_cotype and the type-2 ratio, its reciprocal, at each
    p >= 2 of ps_type, v_j the rows of values, from one sign-pattern product
    and, per exponent, one grids.moduli_norms over |values|.  Raises
    ValueError for a zero family (an empty one included), whose ratios are
    0/0, as khintchine_ratios does for a zero vector."""
    if any(p.p > 2.0 for p in ps_cotype):
        raise ValueError("cotype-2 ratio is formed for p <= 2")
    if any(p.p < 2.0 for p in ps_type):
        raise ValueError("type-2 ratio is formed for p >= 2")
    ps = list(dict.fromkeys([*ps_cotype, *ps_type]))
    means = dict(zip(ps, rademacher_mean_norms_exact(values, step, ps)))
    mods = np.abs(values)
    squares = {p: float(np.sqrt(sum(x**2 for x in moduli_norms(mods, step, p))))
               for p in ps}
    if not all((*means.values(), *squares.values())):
        raise ValueError("zero family: its type and cotype ratios are 0/0")
    return (
        [squares[p] / means[p] for p in ps_cotype],
        [means[p] / squares[p] for p in ps_type],
    )


def verify_lacunary(freqs: Sequence[int]) -> None:
    """Check s_{n+1}/s_n >= LACUNARY_RATIO with exact integer arithmetic."""
    if any(int(s) != s or s <= 0 for s in freqs):
        raise NotLacunary("frequencies must be positive integers")
    for a, b in zip(freqs, freqs[1:]):
        if Fraction(int(b), int(a)) < LACUNARY_RATIO:
            raise NotLacunary(f"ratio {b}/{a} below {LACUNARY_RATIO}")


def lacunary_pnorms(
    coeffs: np.ndarray,
    freqs: Sequence[int],
    ps: Sequence[Exponent],
    step_log2: int = -10,
) -> List[List[float]]:
    """(integral over [0,1] of |sum_n a_n exp(2 pi i s_n x)|^p)^(1/p) on a fine
    grid for every row a of coeffs, one list of rows per p.

    The frequencies must be positive integers with successive ratios at least
    LACUNARY_RATIO, all below the grid Nyquist bound.  For even integer p the
    midpoint Riemann sum is exact (every cross frequency stays on-grid);
    for other p the value carries the usual midpoint quadrature error.

    Each exponential is sampled once for all rows, and one array of moduli
    serves every exponent.  Rows are summed one grids.row_chunks chunk at a
    time, so memory grows with neither the rows nor the grid.
    """
    rows = np.asarray(coeffs, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] != len(freqs):
        raise ValueError("coefficients and frequencies must have equal length")
    verify_lacunary(freqs)
    nyq = 2 ** (-step_log2 - 1)
    if max(freqs) >= nyq:
        raise AliasedFrequency(f"max frequency {max(freqs)} >= Nyquist {nyq}")
    grid = Grid.over(0, 1, step_log2)
    x = grid.midpoints()
    waves = [np.exp(2j * np.pi * s * x) for s in freqs]
    out: List[List[float]] = [[] for _ in ps]
    for chunk in row_chunks(len(rows), grid.count):
        total = np.zeros((chunk.stop - chunk.start, grid.count), dtype=np.complex128)
        for k, wave in enumerate(waves):
            total += rows[chunk, k : k + 1] * wave
        mods = np.abs(total)
        for norms, p in zip(out, ps):
            norms += moduli_norms(mods, grid.step, p)
    return out

