"""gaborlab: a numerical laboratory for Gabor systems and frames in L^p(R).

Everything is computed on exact dyadic step-function grids: norms are exact
integrals, translations are grid-aligned isometries, and the frame
construction carries an exactly verified disjointness certificate together
with a contraction constant q < 1.

Importing the package runs only `errors`.  Every other submodule is
registered lazily and runs on first attribute access, so a command runs only
the modules it uses: a frame command never compiles the suites, a suite never
compiles the frames, build-frame never compiles the frame operator
(`operators`), and numpy loads with the first array work.  `plans` holds the
exponent and the block plans without numpy, so --help, a config error found
while parsing (--p's included) and a refused block plan load no numpy.  The
exponent, grids, Gabor systems and Haar atoms re-exported here load their
module on first access.
"""

import importlib.util
import sys

from .errors import GaborLabError

# each re-exported name -> the module that owns it
_EXPORTS = {
    "Exponent": "plans",
    **dict.fromkeys(("Grid", "SampledFunction", "lp_norm", "lp_ell2_norm",
                     "translate", "modulate", "time_freq_shift"), "grids"),
    **dict.fromkeys(("TimeFreqPoint", "GaborSystem", "synthesize"), "gabor"),
    **dict.fromkeys(("HaarIndex", "haar_function"), "haar"),
}

__all__ = ["GaborLabError", *_EXPORTS]

__version__ = "0.1.0"

# the standard library's lazy-import recipe: each module is in sys.modules and
# an attribute of the package from the start, and runs on first attribute access
for _name in ("basic_sequences", "calibration", "fourier", "frames", "gabor", "grids",
              "haar", "operators", "plans", "reports", "rng", "stochastic", "suites"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    """A re-exported name, read from the module that owns it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
