"""Exception types raised by the lab's operations."""


# -- gap sequences ------------------------------------------------------------

class TooShort(ValueError):
    """Node vector has fewer than 3 entries (two ghosts plus one active)."""


class NonFinite(ValueError):
    """Nodes or matrix entries include an infinity or NaN."""


class NotIncreasing(ValueError):
    """Node vector is not strictly increasing."""


class IndexOutOfRange(IndexError):
    """Requested index lies outside the active range 1..N."""


# -- spacing toolkit ----------------------------------------------------------

class SigmaOutOfRange(ValueError):
    """Exponent sigma must exceed 1 for the series to converge."""


class EpsTooLarge(ValueError):
    """Smoothing increment must lie in (0, a[nu-1] - a[nu]]."""


class NotDescendingAtNu(ValueError):
    """Smoothing requires a[nu-1] > a[nu]."""


class SameIndex(ValueError):
    """Pair-spacing bound needs two distinct indices."""


# -- quadratic forms and spectra ----------------------------------------------

class AlphaOutOfRange(ValueError):
    """Kernel exponent alpha must lie in [0, 2]."""


class AOutOfRange(ValueError):
    """Construction offset A must lie in (0, 1/(K+1))."""


class LengthMismatch(ValueError):
    """Weight vector length does not match the active node count."""


class NotSymmetric(ValueError):
    """Matrix is not symmetric within tolerance."""


class NegativeEntry(ValueError):
    """Matrix or weight entries must be nonnegative."""


class NonpositiveWeight(ValueError):
    """Hilbert-matrix weights must be strictly positive."""


class NoConvergence(RuntimeError):
    """Eigenvalue computation failed to converge."""


class ZeroSpectrum(ValueError):
    """All eigenvalues vanish, so no top eigenpair exists."""


# -- torus construction -------------------------------------------------------

class SeparationTooSmall(ValueError):
    """Torus points closer than the separation floor 1e-9."""


class CotangentPole(ValueError):
    """A cotangent argument fell too close to an integer."""


# -- reporting ----------------------------------------------------------------

class IoError(OSError):
    """Failed to write a report file."""
