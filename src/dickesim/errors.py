"""Exception types shared across the package."""


class DickesimError(Exception):
    """Base class for all custom errors raised by this package."""


class ConvergenceError(DickesimError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class UnstableCrystalError(DickesimError):
    """The ion configuration is not a stable linear crystal (non-positive
    curvature along the chain axis, or no in-phase mode could be identified)."""


class SearchError(DickesimError):
    """No local maximum of the pulse fidelity was found before the time cap."""


class DataError(DickesimError):
    """Input data (shot records, histograms, config files) is malformed or
    out of the supported range."""


class IdentifiabilityError(DickesimError):
    """The supplied data cannot constrain the requested fit."""
