"""Exception types shared across the package."""


class TorusMFError(Exception):
    """Base class for all torusmf errors."""


class NotFinite(TorusMFError):
    """Input contains NaN or infinity."""


class NonPositiveMass(TorusMFError):
    """Density values sum to a non-positive total."""


class NegativeDensity(TorusMFError):
    """Density values below the clipping threshold."""


class PositivityLoss(TorusMFError):
    """Spectral truncation produced too much negative mass to clip silently."""


class BadParams(TorusMFError):
    """Model parameter outside its admissible range."""


class NoAttractivePart(TorusMFError):
    """Kernel has no positive Fourier coefficient; no transition exists."""


class ZeroLeadCoefficient(TorusMFError):
    """Cannot normalize: leading coefficient vanishes."""


class ExpOverflow(TorusMFError):
    """Coupling drives the Gibbs exponent beyond double-precision range."""


class AllSeedsFailed(TorusMFError):
    """No seed of the multistart produced a usable state."""


class BracketNotStraddling(TorusMFError):
    """Bisection bracket does not contain the sign change."""


class BlowUp(TorusMFError):
    """Time integration produced non-finite or exploding values."""


class DegenerateWindow(TorusMFError):
    """Not enough usable points to fit a rate."""


class ConstraintViolated(TorusMFError):
    """Tilted-moment constraint of the exponential inequality fails."""


class PeriodicityViolated(TorusMFError):
    """Density has off-lattice Fourier content where periodicity is required."""
