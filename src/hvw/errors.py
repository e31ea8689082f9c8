"""Exception hierarchy shared across the workbench.

Everything raised on purpose derives from :class:`WorkbenchError`, so callers
(and the CLI) can distinguish modeling errors from genuine bugs. Input-shaped
problems (bad labels, malformed files, preconditions) derive from
:class:`InputError` and map to exit code 2 on the command line.
"""

from __future__ import annotations

from fractions import Fraction

# Longest numerator or denominator, in bits, that a message prints in full:
# about 900 decimal digits, well under CPython's int-to-str conversion limit.
_MAX_SHOWN_BITS = 3000
# Longest part of a bad value's repr, in UTF-8 bytes, that a message echoes.
_MAX_SHOWN_BYTES = 100
# Longest count, in bits, that a message prints in full: 78 decimal digits.
_MAX_COUNT_BITS = 256


def show_text(text: str, limit: int = _MAX_SHOWN_BYTES) -> str:
    """`text`, or its first `limit` bytes of UTF-8 and "..." when it is longer.

    A character cut in two is dropped. A lone surrogate counts as the 6-byte
    backslash escape that stderr prints for it, and a cut text shows it so."""
    head = text[: limit + 1].encode("utf-8", "backslashreplace")
    if len(head) <= limit:
        return text
    return head[:limit].decode("utf-8", "ignore") + "..."


def show_value(value: object) -> str:
    """`repr(value)` cut by `show_text`, or only the size of an int too long
    to print."""
    if type(value) is int and value.bit_length() > _MAX_SHOWN_BITS:
        return f"an int of {value.bit_length()} bits"
    return show_text(repr(value))


def _show_fraction(value: Fraction) -> str:
    """`str(value)`, or only the size of its parts when one is too long to print."""
    bits = (value.numerator.bit_length(), value.denominator.bit_length())
    if max(bits) <= _MAX_SHOWN_BITS:
        return str(value)
    return "a fraction with a {}-bit numerator and a {}-bit denominator".format(*bits)


def _show_count(count: int) -> object:
    """`count`, or a power-of-two lower bound for an int too long to print."""
    if isinstance(count, int) and count.bit_length() > _MAX_COUNT_BITS:
        return f"at least 2^{count.bit_length() - 1}"
    return count


class WorkbenchError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InputError(WorkbenchError):
    """A caller-supplied model, event, file, or argument is unusable."""


class ModelFormatError(InputError):
    """A model file or weight table is structurally malformed."""


class UnknownLabelError(InputError):
    """A site, measurement, outcome, or hidden-state label is not declared."""


class NegativeWeightError(InputError):
    """A probability weight is negative."""

    def __init__(self, key: object, value: Fraction) -> None:
        super().__init__(f"negative weight {_show_fraction(value)} at {show_value(key)}")
        self.key = key
        self.value = value


class WeightSumError(InputError):
    """The weight table does not sum to 1. Names the exact deficit."""

    def __init__(self, total: Fraction) -> None:
        deficit = 1 - total
        if deficit > 0:
            detail = f"short by {_show_fraction(deficit)}"
        else:
            detail = f"over by {_show_fraction(-deficit)}"
        super().__init__(f"weights sum to {_show_fraction(total)}, not 1 ({detail})")
        self.total = total
        self.deficit = deficit


class SignatureMismatchError(InputError):
    """Two models do not share the same site signature."""


class NullConditioningError(WorkbenchError):
    """A conditional probability was requested on a probability-zero event."""


class SizeGuardError(WorkbenchError):
    """An enumeration would exceed the configured size guard."""

    def __init__(self, what: str, size: int, guard: int) -> None:
        super().__init__(f"{what} would enumerate {_show_count(size)} items, over the guard of {_show_count(guard)}")
        self.size = size
        self.guard = guard


def check_positive_int(what: str, value: object) -> None:
    """`InputError` unless `value` is a positive int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"{what} must be a positive int, not {show_value(value)}")


def check_size(what: str, size: int, guard: int) -> None:
    """The one guard rule: `SizeGuardError` when `what` would enumerate more
    than `guard` items, and `InputError` when `guard` is not a positive int."""
    check_positive_int("the guard", guard)
    if size > guard:
        raise SizeGuardError(what, size, guard)
