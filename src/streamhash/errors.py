"""Exception types raised by the library."""


class DegenerateDataError(ValueError):
    """Initial data cannot support the requested number of code bits.

    Raised when the covariance of the initialisation sample has rank < K,
    e.g. all points identical (zero covariance).
    """


class EmptyLabelError(ValueError):
    """A target code was requested for an empty label set."""


class ZeroNormError(ValueError):
    """A feature-side update was forced by a zero-norm input.

    The closed-form step divides by ||x||^2; a zero vector with positive
    loss has no finite solution.
    """


class StaleProjectionError(RuntimeError):
    """The projected-code cache does not match the projection being queried.

    Raised instead of silently serving rankings computed under an older
    projection (or no projection at all).
    """


class LockContentionError(RuntimeError):
    """Another command holds the bundle's exclusive lock."""
