"""Exception types, and the argument checks, shared across the package."""

import numbers


def unwrap(outcome):
    """One row's outcome of a stacked solve: its result, or the exception
    the row would have raised on its own, raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _is_integer(value):
    """Whether ``value`` is an int or numpy integer (a bool is neither)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(value, name):
    """Raise ValueError naming ``name`` unless ``value`` is an int or a
    numpy integer (a bool is neither)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class DickesimError(Exception):
    """Base class for all custom errors raised by this package."""


class ConvergenceError(DickesimError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class UnstableCrystalError(DickesimError):
    """The chain's axial modes cannot be resolved in double precision: a
    mass ratio whose square leaves double range, or mass ratios so far
    apart that rounding loses the small mode curvatures."""


class SearchError(DickesimError):
    """No local maximum of the pulse fidelity was found before the time cap."""


class DataError(DickesimError):
    """Input data (shot records, histograms, config files) is malformed or
    out of the supported range."""


class IdentifiabilityError(DickesimError):
    """The supplied data cannot constrain the requested fit."""
