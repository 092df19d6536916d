"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: UsageError is exit 2, ValidationError
and subclasses exit 3, NumericError and subclasses exit 4.
"""

from contextlib import contextmanager


class IcdLabError(Exception):
    pass


class UsageError(IcdLabError):
    """Command-line arguments contradict each other or leave their range."""


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


class UndefinedMetricError(ValidationError):
    """The requested statistic is undefined for the given input."""


class NumericError(IcdLabError):
    """A numeric computation failed (non-finite values, empty reduction)."""


class EmptySourceError(NumericError):
    """Attention was asked to attend over a note of no position."""


@contextmanager
def reading(where):
    """Turn what a malformed artifact raises while it is read (truncation, bad
    or too deeply nested JSON, a missing key, a wrong type) into one
    ParseError naming `where`."""
    try:
        yield
    except UnicodeDecodeError as exc:  # its repr would quote every byte decoded
        raise ParseError(f"{where}: not UTF-8 text ({exc})") from None
    except (AttributeError, EOFError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc!r}") from None
