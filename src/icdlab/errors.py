"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ValidationError and subclasses are
exit 3, NumericError and subclasses exit 4 (usage problems are exit 2).
"""

from contextlib import contextmanager


class IcdLabError(Exception):
    pass


class ValidationError(IcdLabError):
    """Input data or arguments violate a documented contract."""


class ConfigError(ValidationError):
    """A configuration value is out of range or unknown."""


class ParseError(ValidationError):
    """A file could not be parsed; message names the offending line."""


class ContractError(ValidationError):
    """A function precondition was violated by the caller."""


class ShapeError(ContractError):
    """Array shapes are incompatible for the requested operation."""


class LeakageError(ValidationError):
    """An evaluation artifact was fitted on the data it is scored on."""


class UndefinedMetricError(ValidationError):
    """The requested statistic is undefined for the given input."""


class NumericError(IcdLabError):
    """A numeric computation failed (non-finite values, empty reduction)."""


class EmptySourceError(NumericError):
    """Attention was asked to attend over zero unmasked positions."""


@contextmanager
def reading(where):
    """Turn what a malformed artifact raises while it is read (truncation, bad
    JSON, a missing key, a wrong type) into one ParseError naming `where`."""
    try:
        yield
    except (AttributeError, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc!r}") from None
