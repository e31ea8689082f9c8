"""The JSON form of every result, verdict and report.

One mixin gives each frozen result dataclass its `to_dict` and `from_dict`.
The dict form is the class's `kind` tag (when it declares one), then its
fields in declaration order, then the derived read-only keys the class lists
in `derived`. Fractions become strings like "3/8", tuples become lists,
nested results become objects, and an embedded hidden-variable model takes
the model-file form of `modelio`. Decoding follows each field's annotation;
a missing key takes the field's default, and derived keys are not read back.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from fractions import Fraction
from typing import Any, ClassVar, Mapping, TypeVar

T = TypeVar("T", bound="Codec")


class Codec:
    """Mixin for frozen dataclasses whose reports travel as JSON."""

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
        return cls(**{name: _decode(hint, data[name]) for name, hint in fields if name in data})


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, resolved annotation) of each field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in dataclasses.fields(cls))


def _encode(value: object) -> object:
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, Codec):
        return value.to_dict()
    # Imported here: modelio imports models, whose results use this module.
    from .modelio import model_to_dict

    return model_to_dict(value)  # type: ignore[arg-type]


def _decode(hint: Any, value: object) -> object:
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is types.UnionType:
        (inner,) = (arg for arg in args if arg is not type(None))
        return _decode(inner, value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], item) for item in value)  # type: ignore[union-attr]
        return tuple(_decode(arg, item) for arg, item in zip(args, value))  # type: ignore[call-overload]
    if hint in (Fraction, int, bool, str):
        return hint(value)
    if isinstance(hint, type) and issubclass(hint, Codec):
        return hint.from_dict(value)  # type: ignore[arg-type]
    from .modelio import model_from_dict

    return model_from_dict(value)
