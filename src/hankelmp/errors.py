"""Exception types shared across the package."""

__all__ = [
    "InconsistentWindow",
    "InfeasibleSpec",
    "MomentProblemError",
    "NotSquareFree",
    "NotSymmetric",
    "OutOfWindow",
    "PrecisionUnattainable",
    "PreconditionViolated",
    "ZeroPolynomial",
]


class MomentProblemError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroPolynomial(MomentProblemError):
    """The operation is undefined for the zero polynomial."""


class NotSquareFree(MomentProblemError):
    """A square-free polynomial was required but a repeated factor exists."""


class OutOfWindow(MomentProblemError):
    """A moment index beyond the stored window was requested."""


class NotSymmetric(MomentProblemError):
    """The matrix argument must be symmetric."""


class PreconditionViolated(MomentProblemError):
    """The window does not have the classification the operation requires."""


class InconsistentWindow(MomentProblemError):
    """Internal certification failed; indicates a bug in the caller or library."""


class InfeasibleSpec(MomentProblemError):
    """No random rational or measure meets the requested bounds."""


class PrecisionUnattainable(MomentProblemError):
    """Stored enclosures are too wide to meet the requested output precision."""
