"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class AccuracyError(RuntimeError):
    """Adaptive integration exhausted its budget before reaching tolerance.

    Carries every integral's best value and error estimate, as arrays with
    one entry per integral, so callers can decide whether the partial
    result is still usable.  An exact pmf whose entries leave [0, 1]
    beyond their estimates raises it with one entry per edge count.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class UnsupportedError(RuntimeError):
    """The request is outside the supported scope.

    Raised for exact pmf computation with more than three nodes (no closed
    form for the joint distance density exists) and for Monte Carlo outcome
    tables that would not fit in memory.
    """
