"""Exception hierarchy shared by all zdtrade modules."""


class ZdTradeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ZdTradeError, ValueError):
    """An input violates its domain contract (sign, range, or shape)."""


class DegenerateParameterError(ZdTradeError, ValueError):
    """Inputs are valid but make the requested computation undefined,
    e.g. e2 = 1, a vanishing pinning denominator, or the p1 = 1, p4 = 0
    corner where the pinned payoff is 0/0."""


class NonUniqueStationaryError(ZdTradeError):
    """The diagonal 3x3 cofactors of I - M sum to less than REDUCIBLE_TOL:
    the chain has several closed classes, so long-run payoffs are ill-defined."""


class BaselineDegenerateError(ZdTradeError, ValueError):
    """A baseline payoff coincides with a payoff entry, so a ratio used by
    the extortion analysis has a (near-)zero denominator."""


class ConfigError(ZdTradeError):
    """A run-configuration file is malformed: missing, unknown, or
    wrongly-typed keys."""
