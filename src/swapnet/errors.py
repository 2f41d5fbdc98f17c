"""Exception types shared across the package, and the one rule for integer arguments."""


def _check_int(name: str, value, low: int | None = None, error: type = ValueError) -> None:
    """``value`` must be an int, not a bool or float, and at least ``low`` if given; else ``error``, a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}")


class SwapnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulusError(SwapnetError, ValueError):
    """A modulus smaller than 2 was supplied."""


class InvalidPrimeError(SwapnetError, ValueError):
    """An argument that must be prime is not."""


class InconclusiveError(SwapnetError):
    """A bounded search ran out of budget before reaching a verdict.

    ``steps`` records how many steps were taken before giving up.
    """

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        self.steps = steps


class FactoringError(SwapnetError):
    """An integer could not be factored into proven primes.

    ``cofactor`` is the part that could be neither proven prime nor split.
    """

    def __init__(self, message: str, cofactor: int):
        super().__init__(message)
        self.cofactor = cofactor


class SizeBudgetError(SwapnetError):
    """An operation would exceed its memory/size budget."""


class NumericError(SwapnetError):
    """A floating-point computation failed its accuracy requirement.

    ``residual`` carries the best achieved residual when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class MismatchError(SwapnetError):
    """Two routes that must agree produced different values.

    ``index`` is the first position at which they disagree.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class VerificationError(SwapnetError):
    """An internal cross-check that should always hold has failed."""
