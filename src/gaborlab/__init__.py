"""gaborlab: a numerical laboratory for Gabor systems and frames in L^p(R).

Everything is computed on exact dyadic step-function grids: norms are exact
integrals, translations are grid-aligned isometries, and the frame
construction carries an exactly verified disjointness certificate together
with a contraction constant q < 1.
"""

from .errors import GaborLabError
from .grids import (
    Exponent,
    Grid,
    SampledFunction,
    lp_ell2_norm,
    lp_norm,
    modulate,
    time_freq_shift,
    translate,
)
from .gabor import GaborSystem, TimeFreqPoint, synthesize
from .haar import HaarIndex, haar_function, haar_functional

__all__ = [
    "GaborLabError",
    "Exponent",
    "Grid",
    "SampledFunction",
    "lp_norm",
    "lp_ell2_norm",
    "translate",
    "modulate",
    "time_freq_shift",
    "TimeFreqPoint",
    "GaborSystem",
    "synthesize",
    "HaarIndex",
    "haar_function",
    "haar_functional",
]

__version__ = "0.1.0"
