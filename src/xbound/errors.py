"""Exception types shared across the toolkit."""


class StateValidationError(ValueError):
    """Base class for all input-validation failures."""


class NonFinite(StateValidationError):
    """The matrix has a NaN or infinite entry."""


class NotHermitian(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


class StateNormError(TraceNotOne):
    """Pure-state amplitudes are not normalized."""


class NotPositive(StateValidationError):
    pass


class InvalidRank(StateValidationError):
    pass


class NotUnitary(StateValidationError):
    pass


class WrongDimensions(StateValidationError):
    pass


class OutOfRange(StateValidationError):
    pass


class IndexOutOfRange(StateValidationError):
    pass


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
