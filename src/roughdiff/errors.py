"""Exception types shared across the package.

Every error raised on a violated precondition derives from :class:`Error`,
so callers (and the command line driver) can catch one base class.
"""


class Error(Exception):
    """Base class for all roughdiff errors."""


# ---------------------------------------------------------------- fields

class NonPositiveDefinite(Error):
    """A coefficient value that must be positive is not."""


class DimensionMismatch(Error):
    """Points, matrices or grids disagree on the space dimension."""


class RoughFieldError(Error):
    """An operation requiring a smooth field was applied to a rough one."""


# ---------------------------------------------------------------- kernels

class NonPositiveTime(Error):
    """Kernel or envelope evaluated at t <= 0."""


class GridTooCoarse(Error):
    """Spatial step too large for the field's finest feature."""


class UnstableStep(Error):
    """Time step violates the stability gate of the kernel solver."""


class KrylovNotConverged(Error):
    """The kernel solver's Lanczos recurrence ran out of steps."""


class EmptyCandidates(Error):
    """Aronson fit called with an empty candidate ladder."""


class TailNotCovered(Error):
    """Kernel time slices do not reach far enough for the potential tail."""


class InsufficientSamples(Error):
    """Monte Carlo potential route called with too few samples."""


class InadmissibleExponent(Error):
    """L^q exponent outside the admissible range for this dimension."""


# ---------------------------------------------------------------- sampling

class OrderTooLarge(Error):
    """Dyadic order beyond the exactly representable range."""


# ---------------------------------------------------------------- test functions

class UnknownName(Error):
    """Catalog lookup with a name that is not in the catalog."""


class NoHessian(Error):
    """Second derivatives requested from a function that has none."""


class BoxTooSmall(Error):
    """Quadrature box cuts off a non-negligible part of the weight."""


# ---------------------------------------------------------------- calculus

class LengthMismatch(Error):
    """Dyadic sample arrays disagree on length."""


class SingularHit(Error):
    """F or its gradient is not finite on a path."""


class ConditionViolated(Error):
    """An integrability condition required by a bound check is violated."""


# ---------------------------------------------------------------- cli

class ConfigError(Error):
    """Scenario configuration missing or malformed."""


class MissingReport(Error):
    """Manifest references a report file that does not exist."""
