"""Exception types shared across the package."""


class GaborLabError(Exception):
    """Base class for all errors raised by gaborlab."""


class NonAlignedShift(GaborLabError):
    """Translation amount is not an integer multiple of the grid step."""


class NonAlignedGrid(GaborLabError):
    """Grid cells do not align with the cut points an operation requires."""


class AliasedFrequency(GaborLabError):
    """Modulation frequency at or beyond the grid Nyquist bound."""


class GridMismatch(GaborLabError):
    """Operands live on different grids."""


class GridTooCoarse(GaborLabError):
    """Grid step too large to resolve the requested structure."""


class GridTooSmall(GaborLabError):
    """Grid span does not contain the requested support."""


class SupportOutOfRange(GaborLabError):
    """Requested support lies outside the grid span."""


class TooManyFunctions(GaborLabError):
    """Exact sign-pattern enumeration requested beyond the enumeration cutoff."""


class NotLacunary(GaborLabError):
    """Frequency sequence fails the required geometric-ratio condition."""


class OverlappingIntervals(GaborLabError):
    """A family of frequency intervals required to be disjoint is not."""


class InfeasiblePlan(GaborLabError):
    """No admissible block plan exists for the requested parameters."""


class InsufficientSpread(GaborLabError):
    """The candidate point set cannot supply translates with the required growth."""


class NoConvergence(GaborLabError):
    """Iteration exceeded its certified iteration budget."""


class InvariantViolated(GaborLabError):
    """A computed result breaks a statement the program proves: a fault in
    the program, not in its input."""


class ConfigError(GaborLabError):
    """Invalid run configuration."""
