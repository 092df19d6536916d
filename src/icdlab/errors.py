"""The exceptions the program handles, one class per way it handles them.

The CLI maps three onto exit codes: UsageError is exit 2, ValidationError
exit 3 and NumericError exit 4. UndefinedMetricError is the ValidationError
that `compute_report` and the `report` stage catch to mark a statistic the
data leaves undefined.
"""

from contextlib import contextmanager
from tokenize import TokenError


class UsageError(Exception):
    """Command-line arguments contradict each other or leave their range."""


class ValidationError(Exception):
    """Input data, a config value or an argument violates a documented contract."""


class UndefinedMetricError(ValidationError):
    """The requested statistic is undefined for the given input."""


class NumericError(Exception):
    """A numeric computation failed (non-finite values, an empty reduction)."""


@contextmanager
def reading(where):
    """Turn what a malformed artifact raises while it is read (truncation, bad
    or too deeply nested JSON, a missing key, a wrong type, an .npy header
    numpy cannot tokenize, a ValidationError of a value built from it) into
    one ValidationError naming `where`: one raised inside names no file."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:  # its repr would quote every byte decoded
        raise ValidationError(f"{where}: not UTF-8 text ({exc})") from None
    except (AttributeError, EOFError, KeyError, RecursionError, TokenError, TypeError,
            ValueError) as exc:
        raise ValidationError(f"{where}: {exc!r}") from None
