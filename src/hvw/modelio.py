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

Reading is one pass over the weight rows. A row of exactly the expected
keys has its labels ranked by the model's key rule, `_BaseModel._key_rule`,
and its `p` read as an int numerator and denominator by `codec.read_ratio`.
Any other row is checked field by field, and a fault of its own is raised
where the pass finds it: of shape, then of `outcome`, `measurement`, `p`
and `lambda`, then a repeated cell. A fault that only the model can name is
raised after the last row: its refusal of the site list or `lambda` block,
else that of the first row with a miscounted or undeclared label, an
undeclared hidden state or a negative weight. A table with neither goes to
the model core, `_BaseModel._settle`, with no `Fraction` built; it names a
sum other than 1.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

# MAX_EXPONENT and parse_fraction, the codec's reader, stay importable from here.
from .codec import MAX_EXPONENT, _int_text, _quote, read_ratio, read_rational as parse_fraction, write_json  # noqa: F401
from .codec import _string_list as _label_block
from .errors import InputError, ModelFormatError, NegativeWeightError, show_text, show_value
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
    kind = EmpiricalModel if hidden_states is None else HiddenVariableModel
    model = kind.__new__(kind)
    fault: InputError | None = None
    try:
        model._label(sites, hidden_states)
        rank = model._key_rule()
    except InputError as exc:  # raised once every row is read
        fault, rank = exc, None
    # rank -> (key, n, d): the int rank of a row the key rule takes, else the
    # row's own key, so that a repeated cell is found either way.
    table: dict = {}
    for i, row in enumerate(rows):
        try:
            if type(row) is not dict or row.keys() != row_keys:
                raise TypeError
            outcome, measurement = row["outcome"], row["measurement"]
            if type(outcome) is not list or type(measurement) is not list:
                raise TypeError
            lam = () if hidden_states is None else (row["lambda"],)
            key, r = rank(tuple(outcome), tuple(measurement), lam)  # type: ignore[misc]
            n, d = read_ratio(row["p"], "p")
        except (InputError, KeyError, TypeError):  # a row of another form, or with a fault
            key, n, d = _checked_row(row, f"weights[{i}]", row_keys)
            r = key
            if rank is not None:
                try:
                    key, r = model._ranked_key(key, rank)
                except InputError as exc:
                    fault = fault or exc
        if r in table:
            raise ModelFormatError(f"weights[{i}]: duplicate weight row for {show_value(key)}")
        if n < 0 and fault is None:
            fault = NegativeWeightError(key, Fraction(n, d))
        table[r] = key, n, d
    if fault is not None:
        raise fault
    model._settle(table)
    return model


def _checked_row(row: object, where: str, row_keys: set[str]) -> tuple[tuple, int, int]:
    """A row's key as given and its `p` as (n, d), or its first fault of
    its own: not an object, an unknown key or a missing key other than
    "lambda", then a fault of `outcome`, `measurement`, `p` and `lambda`."""
    if not isinstance(row, dict):
        raise ModelFormatError(f"{where}: expected an object, got {show_value(row)}")
    extra = set(row) - _ROW_KEYS
    if extra:
        raise ModelFormatError(f"{where}: unknown keys {show_value(sorted(extra))}")
    for required in ("outcome", "measurement", "p"):
        if required not in row:
            raise ModelFormatError(f"{where}: missing key {required!r}")
    key: tuple = (
        tuple(_string_list(row["outcome"], f"{where}.outcome")),
        tuple(_string_list(row["measurement"], f"{where}.measurement")),
    )
    n, d = read_ratio(row["p"], where)
    if "lambda" in row:
        if "lambda" not in row_keys:
            raise ModelFormatError(f"{where}: row names a hidden state but the model declares no \"lambda\" block")
        if not isinstance(row["lambda"], str):
            raise ModelFormatError(f"{where}.lambda: expected a string, got {show_value(row['lambda'])}")
        key += (row["lambda"],)
    elif "lambda" in row_keys:
        raise ModelFormatError(f"{where}: model declares hidden states, row is missing \"lambda\"")
    return key, n, d


# A model file nests 4 levels deep. How deep `json` parses before it raises
# `RecursionError` depends on the Python version, so a refused file that
# nests deeper than this, outside its strings, is refused as nested too deeply.
_MAX_NESTING = 100
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_BRACKET = re.compile(r"[][{}]")


def parse_model(text: str) -> Model:
    """Parse a model file's content. Only a refused file is scanned for how
    deep it nests."""
    try:
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ModelFormatError("not valid JSON: nested too deeply") from exc
        except ValueError as exc:  # a decoding error, or an integer past the int-to-str limit
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
        return model_from_dict(data)
    except InputError as exc:
        steps = [1 if bracket in "[{" else -1 for bracket in _BRACKET.findall(_STRING.sub("", text))]
        if max(itertools.accumulate(steps), default=0) > _MAX_NESTING:
            raise ModelFormatError("not valid JSON: nested too deeply") from exc
        raise


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
