"""Exception types shared across the package."""


def unwrap(outcome):
    """One row's outcome of a stacked solve: its result, or the exception
    the row would have raised on its own, raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
