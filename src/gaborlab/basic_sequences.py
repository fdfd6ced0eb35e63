"""Explicit Gabor and translate basic sequences with predicted norm formulas.

Two window families are built and checked here.

* The peaks family (for exponents below 2): the window is a sum of tall
  narrow steps c_k 2^(k/p) 1_[k, k + 2^-k], paired with the geometric
  time-frequency set (2^-j, 2^j).  For a coefficient vector a, the combination
  Phi_a restricted to [k, k+1] splits into three families of dyadic intervals
  with disjoint interiors (one translate alone, the head sum of translates,
  the tail sum), and the global norm is comparable to

      (sum_j |a_j|^p w_j)^(1/p) + (sum_j |a_j|^2)^(1/2),
      w_j = sum_{k >= j} |c_k|^p.

* The cells family (for exponents above 2): the window is c_k e_{2^k} on
  the unit cells [k, k+1], paired with integer translates.  On [l, l+1] the
  combination is a lacunary exponential sum, so its p-mass is comparable to

      sum_l (sum_k |a_{l-k}|^2 |c_k|^2)^(p/2).

The comparability constants are not pinned a priori; verification runs record
the observed ratio window, and the regression suite asserts the window has
not drifted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import GridTooCoarse, GridTooSmall, InvariantViolated
from .gabor import GaborSystem, TimeFreqPoint, synthesize
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    check_cells,
    first_overlap,
    lp_norm,
    lp_norm_pth,
    modulate,
    powers_pth,
    pth_roots,
    restrict,
    translate,
)
from .plans import _Frozen
from .rng import complex_vectors

WEIGHT_HORIZON = 64  # WeightSequence.polynomial keeps w_j to j < 64 at least
DECOMPOSITION_TOL = 1e-12  # peaks_decomposition_check's relative mass error
# growth_threshold_scan looks for a ratio above 2 up to n = 512
GROWTH_THRESHOLD, GROWTH_CAP = 2.0, 512


class WeightSequence(_Frozen):
    """Window coefficients c_k with tail weights w_j = sum_{k >= j} |c_k|^p.

    c is indexed from the window's first cell; w is kept to a longer horizon
    than c so growth diagnostics can look past the window truncation.
    """

    _compared = ("c", "w")

    def __init__(self, c: Tuple[complex, ...], w: Tuple[float, ...]):
        vars(self).update(c=c, w=w)

    @classmethod
    def from_tail_weights(
        cls, w: Sequence[float], p: Exponent, length: int
    ) -> "WeightSequence":
        """Coefficients realizing prescribed non-increasing tail weights.

        |c_k|^p = w_k - w_{k+1} (with w beyond the horizon treated as 0), so
        the weights must be non-increasing and w_1 gives sum |c_k|^p.
        """
        arr = np.asarray(w, dtype=float)
        if len(arr) < length:
            raise ValueError("weight horizon shorter than the coefficient length")
        if np.any(np.diff(arr) > 0):
            raise ValueError("tail weights must be non-increasing")
        ext = np.append(arr, 0.0)
        c = (ext[:length] - ext[1 : length + 1]) ** (1.0 / p.p)
        return cls(tuple(complex(x) for x in c), tuple(float(x) for x in arr))

    @classmethod
    def polynomial(cls, alpha: float, p: Exponent, length: int) -> "WeightSequence":
        """Weights w_j = j^-alpha, the slowly-decaying choice used in demos."""
        w = [(j + 1.0) ** -alpha for j in range(max(WEIGHT_HORIZON, length))]
        return cls.from_tail_weights(w, p, length)

    def normalized_head(self, count: int, p: Exponent) -> "WeightSequence":
        """First `count` coefficients rescaled so that sum |c_k|^p = 1; a head
        of p-mass 0 raises ValueError."""
        head = np.asarray(self.c[:count], dtype=complex)
        mass = float((np.abs(head) ** p.p).sum())
        if mass == 0.0:
            raise ValueError(f"the first {count} window coefficients are all 0")
        head = head / mass ** (1.0 / p.p)
        tails = np.flip(np.cumsum(np.flip(np.abs(head) ** p.p)))
        return WeightSequence(
            tuple(complex(x) for x in head), tuple(float(x) for x in tails)
        )


# ---------------------------------------------------------------------------
# peaks family: tall narrow steps, geometric time-frequency set
# ---------------------------------------------------------------------------


def peaks_window(
    c: Sequence[complex], p: Exponent, K: int, grid: Grid
) -> SampledFunction:
    """Window sum_{k=1..K} c_k 2^(k/p) 1_[k, k + 2^-k] as a step function."""
    if grid.step_log2 > -K:
        raise GridTooCoarse(f"step 2^{grid.step_log2} cannot resolve 2^-{K}")
    vals = np.zeros(grid.count, dtype=np.complex128)
    for k in range(1, K + 1):
        lo = grid.index_of(Fraction(k))
        hi = grid.index_of(Fraction(k) + Fraction(1, 2**k))
        vals[lo:hi] = c[k - 1] * 2.0 ** (k / p.p)
    return SampledFunction(grid, vals)


def peaks_lattice(J: int) -> List[TimeFreqPoint]:
    """The geometric time-frequency points (2^-j, 2^j), j = 1..J."""
    return [TimeFreqPoint(Fraction(1, 2**j), Fraction(2**j)) for j in range(1, J + 1)]


def peaks_predicted_norm(
    a: Sequence[complex], weights: WeightSequence, p: Exponent
) -> float:
    """(sum |a_j|^p w_j)^(1/p) + (sum |a_j|^2)^(1/2)."""
    arr = np.asarray(a, dtype=complex)
    w = np.asarray(weights.w[: len(arr)], dtype=float)
    lp_part = float((np.abs(arr) ** p.p * w).sum()) ** (1.0 / p.p)
    return lp_part + float(np.linalg.norm(arr))


def peaks_local_predictions(
    a: Sequence[complex], c: Sequence[complex], p: Exponent
) -> List[float]:
    """|c_k|^p * (sum_{j <= k} |a_j|^p + (sum_{j > k} |a_j|^2)^(p/2)) for
    k = 1..len(c), from one array of |a_j|^p and one of |a_j|^2."""
    mods = np.abs(np.asarray(a, dtype=complex))
    pw, sq = mods**p.p, mods**2
    out = []
    for k, c_k in enumerate(c, start=1):
        head = float(pw[: min(k, len(mods))].sum())
        tail = float(sq[k:].sum()) ** (p.p / 2.0) if k < len(mods) else 0.0
        out.append(abs(c_k) ** p.p * (head + tail))
    return out


def peaks_interval_families(
    k: int, J: int
) -> Dict[str, List[Tuple[Fraction, Fraction]]]:
    """The disjoint dyadic intervals carrying Phi_a inside [k, k+1].

    For translates 2^-j, j = 1..J: a single translate j < k is alone on
    [k + 2^-j, k + 2^-j + 2^-k); the translates j >= k overlap near the left
    edge, where [k + 2^-k + 2^-l-1, k + 2^-k + 2^-l) carries the head sum
    j = k..l and [k + 2^-l-1, k + 2^-l) carries the tail sum j > l.  The
    residual cell [k + 2^-k, k + 2^-k + 2^-J) carries the full sum j = k..J.
    """
    one = Fraction(1)
    base = Fraction(k)
    wk = Fraction(1, 2**k)
    out: Dict[str, List[Tuple[Fraction, Fraction]]] = {
        "single": [],
        "head": [],
        "tail": [],
        "residual": [],
    }
    for j in range(1, min(k - 1, J) + 1):
        lo = base + Fraction(1, 2**j)
        out["single"].append((lo, lo + wk))
    if k <= J:
        for l in range(k, J):
            out["head"].append(
                (base + wk + Fraction(1, 2 ** (l + 1)), base + wk + Fraction(1, 2**l))
            )
            out["tail"].append(
                (base + Fraction(1, 2 ** (l + 1)), base + Fraction(1, 2**l))
            )
        out["residual"].append((base + wk, base + wk + Fraction(1, 2**J)))
    return out


def peaks_decomposition_check(
    phi: SampledFunction, k: int, J: int, p: Exponent
) -> Dict[str, float]:
    """Verify the interval families tile the mass of Phi_a on [k, k+1].

    Checks, with exact dyadic endpoints: the families are pairwise disjoint,
    each lies inside [k, k+1], their masses add up to the cell's mass, and
    the function vanishes outside their union within the cell.  A failed
    check is a fault of the program and raises InvariantViolated.
    """
    families = peaks_interval_families(k, J)
    intervals = [iv for fam in families.values() for iv in fam]
    overlap = first_overlap(intervals)
    if overlap is not None:
        (alo, ahi), (blo, bhi) = overlap
        raise InvariantViolated(f"interval overlap: [{alo},{ahi}) and [{blo},{bhi})")
    if intervals and (intervals[0][0] < k or intervals[-1][1] > k + 1):
        raise InvariantViolated("interval escapes the unit cell")
    cell = restrict(phi, Fraction(k), Fraction(k + 1))
    cell_mass = lp_norm_pth(cell, p)
    fam_mass = {
        name: sum(lp_norm_pth(restrict(phi, lo, hi), p) for lo, hi in fam)
        for name, fam in families.items()
    }
    total = sum(fam_mass.values())
    covered = np.zeros(cell.grid.count, dtype=bool)
    for lo, hi in intervals:
        i = cell.grid.index_of(lo)
        j = cell.grid.index_of(hi)
        covered[i:j] = True
    outside = float(np.abs(cell.values[~covered]).max(initial=0.0))
    scale = max(cell_mass, 1.0)
    if abs(total - cell_mass) > DECOMPOSITION_TOL * scale:
        raise InvariantViolated(
            f"family masses {total} do not reconstruct cell mass {cell_mass}"
        )
    if outside > DECOMPOSITION_TOL:
        raise InvariantViolated(f"mass {outside} outside the decomposition")
    return {"cell_mass": cell_mass, "outside_sup": outside, **fam_mass}


def peaks_grid(J: int, K: int) -> Grid:
    """Grid resolving the peaks window, its translates and its modulations
    (ConfigError past MAX_CELLS cells, before it is made)."""
    step = min(-K, -(J + 2))  # Nyquist for 2^J requires step < 2^-(J+1)
    check_cells(K + 2, step)
    return Grid.over(0, K + 2, step)


def verify_peaks(
    head: WeightSequence,
    p: Exponent,
    J: int,
    K: int,
    trials: int,
    seed: int,
) -> Tuple[List[dict], Tuple[float, float]]:
    """Ratio of synthesized to predicted norms over seeded coefficient draws,
    for the window of the normalized head (WeightSequence.normalized_head)
    of K coefficients.

    Also forms, for each trial and unit cell, the ratio of the cell's p-mass
    to its local prediction, and runs the exact interval-decomposition check
    on the first trial.  Returns the per-trial rows and the (min, max) window
    of the local ratios.  Each trial raises |Phi_a| to the p-th power once,
    for both its norm and its cell masses.
    """
    grid = peaks_grid(J, K)
    window = peaks_window(head.c, p, K, grid)
    system = GaborSystem(window, peaks_lattice(J))
    # the unit cells [k, k+1], k = 1..K, are the rows of one block of the hull
    lo, hi = system.hull.index_of(1), system.hull.index_of(K + 1)
    if not 0 <= lo <= hi <= system.hull.count:
        raise GridTooSmall(f"[1, {K + 1}) not contained in the hull")
    rows: List[dict] = []
    local: List[float] = []
    for trial, a in complex_vectors(seed, range(trials), J):
        phi = synthesize(system, a)
        powers = np.abs(phi.values) ** p.p
        computed = pth_roots(powers_pth(powers[None], system.hull.step), p)[0]
        predicted = peaks_predicted_norm(a, head, p)
        cell_masses = powers_pth(powers[lo:hi].reshape(K, -1), system.hull.step)
        del powers  # freed before the next trial's arrays: a lower peak RSS
        for local_pred, cell_mass in zip(
            peaks_local_predictions(a, head.c, p), cell_masses
        ):
            if local_pred > 0:
                local.append(float(cell_mass) / local_pred)
        if trial == 0:
            for k in range(1, K + 1):
                peaks_decomposition_check(phi, k, J, p)
        rows.append(
            {"trial": trial, "seed": seed, "computed": computed,
             "predicted": predicted, "ratio": computed / predicted}
        )
    return rows, (min(local), max(local))


def weight_growth_ratios(weights: WeightSequence, p: Exponent, n_max: int) -> np.ndarray:
    """(sum_{j <= n} w_j) / n^(p/2) for n = 1..n_max."""
    w = np.asarray(weights.w[:n_max], dtype=float)
    if len(w) < n_max:
        raise ValueError("weight horizon shorter than n_max")
    n = np.arange(1, n_max + 1, dtype=float)
    return np.cumsum(w) / n ** (p.p / 2.0)


# ---------------------------------------------------------------------------
# cells family: modulated unit cells, integer translates
# ---------------------------------------------------------------------------


def cells_window(c: Sequence[complex], K: int, grid: Grid) -> SampledFunction:
    """Window sum_{k=0..K} c_k e_{2^k} 1_[k, k+1], midpoint-sampled."""
    if grid.step_log2 > -(K + 2):
        raise GridTooCoarse(
            f"step 2^{grid.step_log2} too coarse for frequency 2^{K}"
        )
    total = SampledFunction.zero(grid)
    for k in range(0, K + 1):
        cell = SampledFunction.indicator(Fraction(k), Fraction(k + 1), grid)
        total = total + c[k] * modulate(cell, Fraction(2**k))
    return total


def cells_predicted_mass(
    a: Sequence[complex], c: Sequence[complex], p: Exponent
) -> float:
    """sum_l (sum_k |a_{l-k}|^2 |c_k|^2)^(p/2) over the populated cells.

    Translates are indexed from 1, window cells from 0, so cell [l, l+1]
    collects the pairs with j + k = l, j = 1..len(a), k = 0..len(c)-1.
    """
    amag = np.abs(np.asarray(a, dtype=complex)) ** 2
    cmag = np.abs(np.asarray(c, dtype=complex)) ** 2
    mass = 0.0
    for l in range(1, len(a) + len(c)):
        inner = sum(
            amag[l - k - 1] * cmag[k]
            for k in range(max(0, l - len(a)), min(len(c), l))
        )
        mass += inner ** (p.p / 2.0)
    return float(mass)


def cells_grid(K: int, n_max: int) -> Grid:
    """Grid of the cells combinations (ConfigError past MAX_CELLS cells)."""
    check_cells(K + 1 + n_max, -(K + 2))
    return Grid.over(0, K + 1 + n_max, -(K + 2))


def _translate_slices(window: SampledFunction, n: int, grid: Grid) -> List[slice]:
    """Where the window translated by j = 1..n sits on the target grid."""
    out = []
    for j in range(1, n + 1):
        shifted = translate(window, j).grid
        off = shifted.origin_index - grid.origin_index
        if off < 0 or off + shifted.count > grid.count:
            raise GridTooSmall(f"translate by {j} escapes the grid span")
        out.append(slice(off, off + shifted.count))
    return out


def _combine(
    window: SampledFunction, a: Sequence[complex], slices: Sequence[slice], grid: Grid
) -> SampledFunction:
    total = np.zeros(grid.count, dtype=np.complex128)
    for coeff, cells in zip(a, slices):
        total[cells] += coeff * window.values
    return SampledFunction(grid, total)


def cells_combination(
    window: SampledFunction, a: Sequence[complex], grid: Grid
) -> SampledFunction:
    """sum_j a_j g(x - j), j = 1..len(a), placed on the target grid."""
    return _combine(window, a, _translate_slices(window, len(a), grid), grid)


def verify_cells(
    c: Sequence[complex],
    p: Exponent,
    K: int,
    n_max: int,
    trials: int,
    seed: int,
) -> List[dict]:
    """Ratio of || sum a_j g(.-j) ||_p^p to the predicted mass over seeded draws."""
    grid = cells_grid(K, n_max)
    window = cells_window(c, K, Grid.over(0, K + 1, -(K + 2)))
    slices = _translate_slices(window, n_max, grid)
    rows: List[dict] = []
    for trial, a in complex_vectors(seed, range(trials), n_max):
        phi = _combine(window, a, slices, grid)
        computed = lp_norm_pth(phi, p)
        predicted = cells_predicted_mass(a, c, p)
        rows.append(
            {"trial": trial, "seed": seed, "computed": computed,
             "predicted": predicted, "ratio": computed / predicted}
        )
    return rows


def flat_cells_coefficients(K: int, p: Exponent) -> np.ndarray:
    """|c_k|^p = 1/(K+1): normalized but with slowly summable squares."""
    return np.full(K + 1, (K + 1.0) ** (-1.0 / p.p), dtype=complex)


def quadratic_mass_growth(c: Sequence[complex], p: Exponent, n_max: int) -> np.ndarray:
    """sum_{l <= n} (sum_{k < l} |c_k|^2)^(p/2) / n for n = 1..n_max."""
    cmag = np.abs(np.asarray(c, dtype=complex)) ** 2
    partial = np.concatenate([[0.0], np.cumsum(cmag)])
    terms = np.array(
        [partial[min(l, len(cmag))] ** (p.p / 2.0) for l in range(1, n_max + 1)]
    )
    return np.cumsum(terms) / np.arange(1, n_max + 1)


def growth_threshold_scan(c: Sequence[complex], p: Exponent) -> int:
    """Smallest n with the quadratic mass growth ratio above GROWTH_THRESHOLD."""
    ratios = quadratic_mass_growth(c, p, GROWTH_CAP)
    hits = np.nonzero(ratios > GROWTH_THRESHOLD)[0]
    if len(hits) == 0:
        raise ValueError(f"ratio stays below {GROWTH_THRESHOLD} up to n = {GROWTH_CAP}")
    return int(hits[0]) + 1


def separated_translates_norm(
    c: Sequence[complex], p: Exponent, K: int, n: int, separation: int
) -> float:
    """|| sum_{j=1..n} g(x - t_j) ||_p for translates t_j = j * separation.

    With separation at least the window's support length K + 1, the shifted
    copies are disjoint and the norm is exactly n^(1/p) times the window's.
    Raises ConfigError if the grid would have more than MAX_CELLS cells.
    """
    if separation < K + 1:
        raise ValueError("separation below the window support length")
    check_cells(separation * n + K + 1, -(K + 2))
    grid = Grid.over(0, separation * n + K + 1, -(K + 2))
    window = cells_window(c, K, Grid.over(0, K + 1, -(K + 2)))
    a = np.zeros(separation * n)
    a[separation - 1 :: separation] = 1.0
    return lp_norm(cells_combination(window, a, grid), p)
