"""Exception types raised by the toolkit.

Every class subclasses ValueError so callers who do not care about the
distinction can catch a single built-in type.
"""

__all__ = [
    "ForbiddenRegionError",
    "NonFiniteInputError",
    "NonpositiveMomentumError",
    "StepTooLargeError",
    "ZeroEnergyError",
]


class NonFiniteInputError(ValueError):
    """An input sample contains NaN or infinity."""


class ForbiddenRegionError(ValueError):
    """A characteristic slope would be imaginary (negative radicand)."""


class ZeroEnergyError(ValueError):
    """A separation constant requires a strictly positive energy share."""


class StepTooLargeError(ValueError):
    """Finite-difference step too large for the local phase wavelength."""


class NonpositiveMomentumError(ValueError):
    """Amplitude prefactor requested where a momentum is not positive."""
