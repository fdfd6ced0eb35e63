"""gaborlab: a numerical laboratory for Gabor systems and frames in L^p(R).

Everything is computed on exact dyadic step-function grids: norms are exact
integrals, translations are grid-aligned isometries, and the frame
construction carries an exactly verified disjointness certificate together
with a contraction constant q < 1.

The grids, Gabor systems and Haar atoms re-exported here load with the
package.  Every other submodule is registered lazily and runs on first
attribute access, so a command runs only the modules it uses: a frame command
never compiles the suites, and a suite never compiles the frames.
"""

import importlib.util
import sys

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

# the standard library's lazy-import recipe: each module is in sys.modules and
# an attribute of the package from the start, and runs on first attribute access
for _name in ("basic_sequences", "calibration", "fourier", "frames", "reports",
              "rng", "stochastic", "suites"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module
