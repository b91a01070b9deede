"""Exception types shared across the package."""


class BeamsimError(Exception):
    """Base class for all beamsim errors."""


class DimensionError(BeamsimError):
    """Matrix or stream-count shapes are inconsistent with the operation."""


class ConfigError(BeamsimError):
    """An experiment description is malformed or out of domain."""
