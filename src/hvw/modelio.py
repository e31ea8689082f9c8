"""Reading and writing model files.

A model file is UTF-8 JSON with three blocks:

    {
      "sites": [{"name": ..., "measurements": [...], "outcomes": [...]}, ...],
      "lambda": [...],            <- present exactly for hidden-variable models
      "weights": [
        {"outcome": [...], "measurement": [...], "lambda": ..., "p": "3/8"},
        ...
      ]
    }

Each weight row assigns an exact rational to one (outcome tuple, context[,
hidden state]) cell; omitted cells have weight 0. A probability is a JSON
integer or a string `codec.read_rational` reads: "n/d", an integer, or a
decimal or exponent string such as "0.125" or "1e-30" with |exponent| <=
MAX_EXPONENT (1000). Booleans, floats and decimals are refused. Serialization
is canonical: rows sorted by context, then outcome, then hidden state,
fractions in lowest terms written exactly as `codec.fraction_text` writes
them (also when a part is too long for one `str` call), so equal models
serialize byte-identically and every file written here reads back to the
same model. The canonical bytes are those of `json.dumps(indent=2,
ensure_ascii=False)` and a final newline. The codec's `write_json` writes the
`sites` and `lambda` blocks; the weight rows are written here, straight from
the model's int table (numerators over one denominator D), each distinct
outcome tuple and context written once per file.

Reading takes a row whose keys are exactly the expected ones straight to its
fields; any other row goes through the checks that name its first fault.
"""

from __future__ import annotations

import json
import math

# MAX_EXPONENT and parse_fraction, the codec's reader, stay importable from here.
from .codec import MAX_EXPONENT, _int_text, _quote, read_rational as parse_fraction, write_json  # noqa: F401
from .codec import _string_list as _label_block
from .errors import InputError, ModelFormatError, show_text, show_value
from .models import EmpiricalModel, HiddenVariableModel, Model, Site, require

_TOP_KEYS = {"sites", "lambda", "weights"}
_SITE_KEYS = {"name", "measurements", "outcomes"}
# A row names its weight key's parts in key order; an empirical key has no "lambda".
_KEY_FIELDS = ("outcome", "measurement", "lambda")
_ROW_KEYS = {*_KEY_FIELDS, "p"}
_EMPIRICAL_ROW_KEYS = _ROW_KEYS - {"lambda"}


def _string_list(value: object, where: str) -> list[str]:
    if isinstance(value, list):
        try:
            "".join(value)  # raises unless every item is a str
            return value
        except TypeError:
            pass
    raise ModelFormatError(f"{where}: expected a list of strings, got {show_value(value)}")


def _parse_site(entry: object, index: int) -> Site:
    where = f"sites[{index}]"
    if not isinstance(entry, dict):
        raise ModelFormatError(f"{where}: expected an object, got {show_value(entry)}")
    extra = set(entry) - _SITE_KEYS
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {show_value(sorted(extra))}")
    missing = _SITE_KEYS - set(entry)
    if missing:
        raise ModelFormatError(f"{where}: missing keys {show_value(sorted(missing))}")
    name = entry["name"]
    if not isinstance(name, str):
        raise ModelFormatError(f"{where}: site name must be a string, got {show_value(name)}")
    return Site(
        name=name,
        measurements=tuple(_string_list(entry["measurements"], f"{where}.measurements")),
        outcomes=tuple(_string_list(entry["outcomes"], f"{where}.outcomes")),
    )


def model_from_dict(data: object) -> Model:
    """Build a model from parsed JSON data, with pointed diagnostics."""
    if not isinstance(data, dict):
        raise ModelFormatError(f"model must be a JSON object, got {type(data).__name__}")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ModelFormatError(f"unknown top-level keys {show_value(sorted(extra))}")
    for required in ("sites", "weights"):
        if required not in data:
            raise ModelFormatError(f"missing top-level key {required!r}")
    if not isinstance(data["sites"], list):
        raise ModelFormatError("\"sites\" must be a list")
    sites = [_parse_site(entry, i) for i, entry in enumerate(data["sites"])]

    hidden_states: list[str] | None = None
    if "lambda" in data:
        hidden_states = _string_list(data["lambda"], "lambda")

    rows = data["weights"]
    if not isinstance(rows, list):
        raise ModelFormatError("\"weights\" must be a list")
    row_keys = _EMPIRICAL_ROW_KEYS if hidden_states is None else _ROW_KEYS
    weights: dict = {}
    for i, row in enumerate(rows):
        where = f"weights[{i}]"
        if type(row) is not dict or row.keys() != row_keys:
            _check_row_keys(row, where)
        outcome = tuple(_string_list(row["outcome"], f"{where}.outcome"))
        measurement = tuple(_string_list(row["measurement"], f"{where}.measurement"))
        value = parse_fraction(row["p"], where)
        key: tuple = (outcome, measurement)
        if "lambda" in row:
            if hidden_states is None:
                raise ModelFormatError(f"{where}: row names a hidden state but the model declares no \"lambda\" block")
            if not isinstance(row["lambda"], str):
                raise ModelFormatError(f"{where}.lambda: expected a string, got {show_value(row['lambda'])}")
            key += (row["lambda"],)
        elif hidden_states is not None:
            raise ModelFormatError(f"{where}: model declares hidden states, row is missing \"lambda\"")
        if key in weights:
            raise ModelFormatError(f"{where}: duplicate weight row for {show_value(key)}")
        weights[key] = value

    if hidden_states is None:
        return EmpiricalModel(sites, weights)
    return HiddenVariableModel(sites, hidden_states, weights)


def _check_row_keys(row: object, where: str) -> None:
    """A row's first fault of shape: not an object, an unknown key, or a
    missing key other than "lambda", whose absence the row loop reports."""
    if not isinstance(row, dict):
        raise ModelFormatError(f"{where}: expected an object, got {show_value(row)}")
    extra = set(row) - _ROW_KEYS
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {show_value(sorted(extra))}")
    for required in ("outcome", "measurement", "p"):
        if required not in row:
            raise ModelFormatError(f"{where}: missing key {required!r}")


def parse_model(text: str) -> Model:
    """Parse a model file's content."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ModelFormatError("not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # a decoding error, or an integer past the int-to-str limit
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(data)


def _p_text(n: int, d: int) -> str:
    """The weight n / d (n > 0) in lowest terms, as `fraction_text` writes it."""
    g = math.gcd(n, d)
    return _int_text(n // g) if g == d else f"{_int_text(n // g)}/{_int_text(d // g)}"


def _head(model: Model) -> dict:
    """The `sites` and, for a hidden-variable model, `lambda` blocks."""
    require(model, Model, "model_to_dict")  # type: ignore[arg-type]
    data: dict = {
        "sites": [
            {"name": site.name, "measurements": list(site.measurements), "outcomes": list(site.outcomes)}
            for site in model.sites
        ]
    }
    if isinstance(model, HiddenVariableModel):
        data["lambda"] = list(model.lambda_set)
    return data


def model_to_dict(model: Model) -> dict:
    """Canonical JSON-ready form of a model (rows in the model's canonical order)."""
    data = _head(model)
    d = model._denominator
    data["weights"] = [
        dict(zip(_KEY_FIELDS, (list(key[0]), list(key[1]), *key[2:])), p=_p_text(n, d))
        for key, n in model._weights.items()
    ]
    return data


# The keys of a weight row sit at this indent, its label lists one deeper.
_ROW = "\n      "


class _Blocks(dict):
    """Outcome tuple or context -> its label list as a row writes it."""

    def __missing__(self, labels: tuple[str, ...]) -> str:
        text = self[labels] = _label_block(labels, _ROW)
        return text


def serialize_model(model: Model) -> str:
    """Canonical text form; equal models produce byte-identical output: the
    bytes of `json.dumps(model_to_dict(model), indent=2, ensure_ascii=False)`
    and a newline, without building the weight rows' dicts."""
    head = write_json(_head(model))  # ends in "\n}"
    blocks = _Blocks()
    d = model._denominator
    rows = []
    for key, n in model._weights.items():
        lam = f'{_ROW}"lambda": {_quote(key[2])},' if len(key) == 3 else ""
        rows.append(
            f'{{{_ROW}"outcome": {blocks[key[0]]},{_ROW}"measurement": {blocks[key[1]]},{lam}'
            f'{_ROW}"p": "{_p_text(n, d)}"\n    }}'
        )
    return head[:-2] + ',\n  "weights": [\n    ' + ",\n    ".join(rows) + "\n  ]\n}\n"


def load_model(path: str) -> Model:
    """Read and parse a model file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {show_text(str(path))}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {show_text(str(path))}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_model(text)


def save_model(model: Model, path: str) -> None:
    """Write a model file in canonical form."""
    text = serialize_model(model)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {show_text(str(path))}: {exc.strerror}") from exc
