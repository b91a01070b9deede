"""Exception types shared across the package."""


class BeamsimError(Exception):
    """Base class for all beamsim errors."""


class DimensionError(BeamsimError):
    """Matrix or stream-count shapes are inconsistent with the operation."""


class ConvergenceError(BeamsimError):
    """An iterative numerical routine failed to reach its tolerance."""


class SingularMatrixError(BeamsimError):
    """A matrix that must be inverted is numerically singular."""


class ConfigError(BeamsimError):
    """An experiment description is malformed or out of domain."""
