"""The JSON form of every result, verdict and report.

One mixin gives each frozen result dataclass its `to_dict` and `from_dict`.
The dict form is the class's `kind` tag (when it declares one), then its
fields in declaration order, then the derived keys the class lists in
`derived`. A report's fields are its evidence, and its derived keys are the
conclusions that follow from them: read-only properties, written after the
fields and recomputed on read. Fractions become strings like "3/8", written
exactly by `fraction_text` and read back by `read_rational`, the one reader
of exact rationals from outside the program. Its int form, `read_ratio`,
gives a numerator and a denominator; the model-file reader and the model
constructors use it. Tuples become lists, nested results become objects,
and an embedded hidden-variable model takes the model-file form of
`modelio`. Decoding follows each field's annotation; a missing key takes
the field's default.

`write_json` writes the JSON documents the program prints or saves, and
the `sites` and `lambda` blocks of a model file: the bytes of
`json.dumps(value, indent=2, ensure_ascii=False)`, without the pure-Python
encoder that any `indent` makes `json` fall back to. `modelio` writes a model
file's weight rows itself, in the same bytes, with this module's
`_string_list`, `_quote` and `_int_text`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing
from fractions import Fraction
from json.encoder import encode_basestring as _quote  # the C encoder when built
from typing import Any, ClassVar, Mapping, TypeVar

from .errors import ModelFormatError, show_value

T = TypeVar("T", bound="Codec")

# CPython refuses to convert an int of more than 4,300 digits (by default; the
# limit is never below 640) to or from decimal text in one call. Longer ones
# are split at a power of ten, recursively, into pieces of about 450 digits.
_PIECE_BITS = 1500
_PIECE_DIGITS = 450


def _int_text(value: int) -> str:
    if value < 0:
        return "-" + _int_text(-value)
    if value.bit_length() <= _PIECE_BITS:
        return str(value)
    half = int(value.bit_length() * math.log10(2)) // 2
    high, low = divmod(value, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def _text_int(text: str) -> int:
    if len(text) <= _PIECE_DIGITS:
        return int(text)
    half = len(text) // 2
    return _text_int(text[:-half]) * 10**half + _text_int(text[-half:])


def fraction_text(value: Fraction) -> str:
    """`str(value)`, exact also when a part is too long for `str`."""
    numerator = _int_text(value.numerator)
    return numerator if value.denominator == 1 else f"{numerator}/{_int_text(value.denominator)}"


# Largest decimal exponent a number string may carry ("1e-300" is fine).
# A larger one is refused before 10 ** exponent is built.
MAX_EXPONENT = 1000
# Most decimal digits a number string may hold: 10^5 digits read in about
# 0.03 s, 10^6 in over a second. More are refused before any int is built.
MAX_DIGITS = 100_000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)")


def read_ratio(value: object, where: str) -> tuple[int, int]:
    """The int form of the one reader of an exact rational from outside the
    program: `value` as (n, d) with d > 0, not always in lowest terms.

    An `int` is n/1 and a `Fraction` its own parts. A string has its
    exponent checked against ±MAX_EXPONENT (a plain one has none), then its
    count of Unicode decimal digits against MAX_DIGITS. A plain "n", "-n",
    "n/d" or "-n/d", the form that `fraction_text` writes, is then read by
    one `int` call a part, or in pieces when a part is past the digit limit
    of one call, at any length, and kept as written; every other string is
    read as `Fraction` reads it ("+3/8", "0.125", "1e-30"). Booleans,
    floats, decimals and anything else raise `ModelFormatError` naming
    `where`; a message echoes the value only as far as `show_value` cuts it.
    """
    if type(value) is int:
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if not isinstance(value, str):
        raise ModelFormatError(
            f"{where} is not a finite rational: {show_value(value)}; "
            'exact rationals are ints, Fractions and strings like "3/8"'
        )
    negative = value[:1] == "-"
    numerator, slash, denominator = value[negative:].partition("/")
    plain = numerator.isdecimal() and (denominator.isdecimal() or not slash)
    exponent = None if plain else _EXPONENT.search(value)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ModelFormatError(f"{where}: exponent in {show_value(value)} is beyond ±{MAX_EXPONENT}")
    # `Fraction` and `int` read every Unicode decimal digit, not only 0-9.
    if len(value) > MAX_DIGITS and (value.isdecimal() or sum(map(str.isdecimal, value)) > MAX_DIGITS):
        raise ModelFormatError(f"{where}: {show_value(value)} has more than {MAX_DIGITS} digits")
    try:
        if not plain:
            fraction = Fraction(value)
            return fraction.numerator, fraction.denominator
        try:
            n, d = int(numerator), int(denominator) if slash else 1
        except ValueError:  # a part past the digit limit of one `int` call
            n, d = _text_int(numerator), _text_int(denominator) if slash else 1
        if d:
            return -n if negative else n, d
    except (ValueError, ZeroDivisionError):
        pass
    raise ModelFormatError(f"{where} is not a finite rational: {show_value(value)}")


def read_rational(value: object, where: str) -> Fraction | int:
    """`read_ratio` as one number: a `Fraction` or `int` taken as it is,
    anything else read to a `Fraction` in lowest terms."""
    if type(value) is Fraction or type(value) is int:
        return value
    return Fraction(*read_ratio(value, where))


def write_json(value: object) -> str:
    """`json.dumps(value, indent=2, ensure_ascii=False)`, byte for byte, for
    values made of dicts with `str` keys, lists, tuples, strings, ints, bools
    and None. Anything else raises `TypeError`."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _is_string_list(items: list | tuple) -> bool:
    return all(map(isinstance, items, (str,) * len(items)))


def _string_list(items: list | tuple, newline: str) -> str:
    """A nonempty list of strings, its items one level below `newline`."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(map(_quote, items))}{newline}]"


def _write(value: object, newline: str, out: list[str]) -> None:
    """Append the pieces of `value`, written at the indent `newline` ends in.
    A string, or a nonempty list of strings, is one piece."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead, sep = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{lead}{_quote(key)}: ")
            _write(item, inner, out)
            lead = sep
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif _is_string_list(value):
            out.append(_string_list(value, newline))
        else:
            inner = newline + "  "
            lead, sep = "[" + inner, "," + inner
            for item in value:
                out.append(lead)
                _write(item, inner, out)
                lead = sep
            out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))  # as `json` writes an int subclass
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class Codec:
    """Mixin for frozen dataclasses whose reports travel as JSON.

    `derived` names a report's conclusions: properties computed from its
    fields, written after them and recomputed, not read, by `from_dict`."""

    kind: ClassVar[str | None] = None
    derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        data: dict[str, Any] = {} if self.kind is None else {"kind": self.kind}
        for name, _ in _fields(type(self)):
            data[name] = _encode(getattr(self, name))
        for name in self.derived:
            data[name] = _encode(getattr(self, name))
        return data

    @classmethod
    def from_dict(cls: type[T], data: Mapping) -> T:
        fields = _fields(cls)
        return cls(**{name: _decode(hint, data[name], name) for name, hint in fields if name in data})


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, resolved annotation) of each field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in dataclasses.fields(cls))


def _encode(value: object) -> object:
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return fraction_text(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, Codec):
        return value.to_dict()
    # Imported here: modelio imports models, whose results use this module.
    from .modelio import model_to_dict

    return model_to_dict(value)  # type: ignore[arg-type]


def _decode(hint: Any, value: object, where: str) -> object:
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is types.UnionType:
        (inner,) = (arg for arg in args if arg is not type(None))
        return _decode(inner, value, where)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], item, where) for item in value)  # type: ignore[union-attr]
        return tuple(_decode(arg, item, where) for arg, item in zip(args, value))  # type: ignore[call-overload]
    if hint is Fraction:
        return Fraction(read_rational(value, where))
    if hint in (int, bool, str):
        return hint(value)
    if isinstance(hint, type) and issubclass(hint, Codec):
        return hint.from_dict(value)  # type: ignore[arg-type]
    from .modelio import model_from_dict

    return model_from_dict(value)
