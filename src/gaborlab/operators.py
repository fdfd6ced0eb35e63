"""The frame operator of a certified frame, and reconstruction with it.

Because the difference sets of a frame avoid the base-cell span V, the error
term of one application contributes nothing to the coefficient functionals
of the next.  reconstruct_rows therefore solves S y = f on V by the Neumann
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
coefficient functionals read the per-frame layout that frames.build_frame
computes once, each atom's (i, mid, j) cell slice and dual amplitude.  The
off-span error term is reported separately as the synthesis residual and
checked against q rather than against the tolerance.

Only verify-frame runs this module; build-frame never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import stochastic
from .errors import GridTooSmall, InsufficientSpread, NoConvergence
from .frames import ConstructedFrame
from .grids import SampledFunction, lp_norm, moduli_pth, pth_roots
from .rng import complex_gaussian, rng_for

# reconstruct_rows treats an input within this relative distance of its
# projection onto the span as a span input: far above the projection's rounding
# error (a few ulps of the norm), far below any deliberate off-span component
SPAN_RTOL = 2.0**-40


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
    cert = frame.certificate
    if not (cert["difference_sets_disjoint"] and cert["difference_sets_clear_of_base"]):
        # a failed disjointness verdict names the overlapping pairs
        named = "" if cert["difference_sets_disjoint"] else f": {cert['difference_sets_detail']}"
        raise InsufficientSpread(
            "selection lacks the disjointness/clearance certificates the "
            f"operator's mass accounting relies on{named}"
        )
    b, main = _reproduce(frame, values)
    # a 1-D product per row: one matrix product may round differently
    mass = np.abs(b) ** frame.p.p
    error_pth = np.array([float(frame._pair_weight_by_block @ row) for row in mass])
    return FrameImages(main, error_pth, b)


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
