"""Exception types shared across the package."""


class CfmmRepError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(CfmmRepError, ValueError):
    """A payoff or simulation parameter violates its invariant."""


class PayoffParseError(CfmmRepError, ValueError):
    """A payoff document could not be parsed.

    ``line`` carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MonotonicityError(InvalidParameterError):
    """A payoff table decreases somewhere."""


class DomainError(CfmmRepError, ValueError):
    """A price falls outside the payoff's replication interval."""


class BreakpointDerivativeError(DomainError):
    """Derivative requested exactly at a kink or jump location."""


class InfiniteReplicationCostError(CfmmRepError, ValueError):
    """The requested payoff/interval combination has a divergent risky requirement."""


class InvalidReservesError(CfmmRepError, ValueError):
    """Reserves lie outside the trading function's valid range."""


class UnboundedTradingFunctionError(CfmmRepError, ArithmeticError):
    """The trading function is -infinity at the requested reserves.

    Happens for an empty risky reserve when the portfolio value is unbounded
    above (the infimum over prices then runs away to -infinity).
    """


class NumericalError(CfmmRepError, ArithmeticError):
    """A computation left the float range or failed to converge.

    ``error`` carries the error estimate of a quadrature that stopped short
    of its tolerance, and is None otherwise.
    """

    def __init__(self, message, error=None):
        super().__init__(message)
        self.error = error
