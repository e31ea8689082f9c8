"""File format: round trips, canonical ordering, and pointed diagnostics."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import random
import re
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvw import (
    ConstructionMethod,
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    ModelFormatError,
    NegativeWeightError,
    Site,
    UnknownLabelError,
    WeightSumError,
    bell_model,
    construct,
    epr_escape_hvm,
    epr_model,
    generate_random_model,
    grid_sites,
    ks_model,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_model,
    save_model,
    serialize_model,
)
from hvw.codec import _PIECE_BITS, fraction_text
from hvw.modelio import MAX_EXPONENT, parse_fraction

EPR_TEXT = """
{
  "sites": [
    {"name": "a", "measurements": ["A"], "outcomes": ["+_a", "-_a"]},
    {"name": "b", "measurements": ["B"], "outcomes": ["+_b", "-_b"]}
  ],
  "weights": [
    {"outcome": ["+_a", "-_b"], "measurement": ["A", "B"], "p": "1/2"},
    {"outcome": ["-_a", "+_b"], "measurement": ["A", "B"], "p": "1/2"}
  ]
}
"""


def test_parse_concrete_file():
    model = parse_model(EPR_TEXT)
    assert model == epr_model()


def test_fraction_string_parses_exactly():
    model = parse_model(EPR_TEXT.replace('"1/2"', '"3/8"').replace(
        '{"outcome": ["-_a", "+_b"], "measurement": ["A", "B"], "p": "3/8"}',
        '{"outcome": ["-_a", "+_b"], "measurement": ["A", "B"], "p": "5/8"}',
    ))
    key = (("+_a", "-_b"), ("A", "B"))
    assert model.weights[key] == Fraction(3, 8)


def test_round_trip_all_canonical_models():
    for model in (epr_model(), bell_model(), ks_model(), epr_escape_hvm()):
        assert parse_model(serialize_model(model)) == model


def test_round_trip_random_models():
    for seed in range(20):
        sites = grid_sites(2, 2, 2)
        lambda_size = None if seed % 2 else 3
        model = generate_random_model(seed, sites, lambda_size=lambda_size)
        assert parse_model(serialize_model(model)) == model


def test_serialization_is_deterministic_and_sorted():
    text = serialize_model(bell_model())
    assert text == serialize_model(bell_model())
    rows = json.loads(text)["weights"]
    keys = [(tuple(r["measurement"]), tuple(r["outcome"])) for r in rows]
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_serialized_fractions_are_reduced_strings():
    rows = json.loads(serialize_model(bell_model()))["weights"]
    values = {r["p"] for r in rows}
    assert values <= {"1/18", "1/24", "1/72"}


def test_hidden_model_rows_carry_lambda():
    data = json.loads(serialize_model(epr_escape_hvm()))
    assert data["lambda"] == ["l1", "l2"]
    assert all("lambda" in row for row in data["weights"])


def test_not_valid_json_diagnostic():
    with pytest.raises(ModelFormatError) as exc:
        parse_model("{nope")
    assert "not valid JSON" in str(exc.value)


def test_top_level_diagnostics():
    with pytest.raises(ModelFormatError):
        parse_model("[]")
    with pytest.raises(ModelFormatError) as exc:
        parse_model('{"sites": [], "weights": [], "comment": "hi"}')
    assert "unknown top-level keys" in str(exc.value)
    with pytest.raises(ModelFormatError) as exc:
        parse_model('{"weights": []}')
    assert "missing top-level key 'sites'" in str(exc.value)


def test_site_entry_diagnostics():
    base = {"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}
    good = {"sites": [base], "weights": [
        {"outcome": ["x"], "measurement": ["A"], "p": "1"}
    ]}
    assert model_from_dict(good).sites[0].name == "a"

    bad = dict(base)
    bad["extra"] = 1
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict({"sites": [bad], "weights": []})
    assert "sites[0]: unknown keys ['extra']" in str(exc.value)

    missing = {"name": "a", "measurements": ["A"]}
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict({"sites": [missing], "weights": []})
    assert "missing keys ['outcomes']" in str(exc.value)


def test_weight_row_diagnostics():
    sites = [{"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}]

    with pytest.raises(ModelFormatError) as exc:
        model_from_dict({"sites": sites, "weights": [{"outcome": ["x"], "p": "1"}]})
    assert "missing key 'measurement'" in str(exc.value)

    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(
            {
                "sites": sites,
                "weights": [
                    {"outcome": ["x"], "measurement": ["A"], "p": "1", "lambda": "l0"}
                ],
            }
        )
    assert "declares no \"lambda\" block" in str(exc.value)

    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(
            {
                "sites": sites,
                "lambda": ["l0"],
                "weights": [{"outcome": ["x"], "measurement": ["A"], "p": "1"}],
            }
        )
    assert "row is missing \"lambda\"" in str(exc.value)

    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(
            {
                "sites": sites,
                "weights": [
                    {"outcome": ["x"], "measurement": ["A"], "p": "1/2"},
                    {"outcome": ["x"], "measurement": ["A"], "p": "1/2"},
                ],
            }
        )
    assert "duplicate weight row" in str(exc.value)


def test_float_probability_rejected():
    sites = [{"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}]
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(
            {"sites": sites, "weights": [{"outcome": ["x"], "measurement": ["A"], "p": 0.5}]}
        )
    assert "exact rational" in str(exc.value)


def test_unreduced_and_integer_fractions_accepted():
    sites = [{"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}]
    model = model_from_dict(
        {
            "sites": sites,
            "weights": [
                {"outcome": ["x"], "measurement": ["A"], "p": "2/4"},
                {"outcome": ["y"], "measurement": ["A"], "p": "1/2"},
            ],
        }
    )
    assert model.weights[(("x",), ("A",))] == Fraction(1, 2)
    whole = model_from_dict(
        {"sites": sites, "weights": [{"outcome": ["x"], "measurement": ["A"], "p": 1}]}
    )
    assert whole.weights[(("x",), ("A",))] == 1


def test_bad_fraction_diagnostics():
    sites = [{"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}]
    for bad in ("1/0", "pi", ""):
        with pytest.raises(ModelFormatError):
            model_from_dict(
                {
                    "sites": sites,
                    "weights": [{"outcome": ["x"], "measurement": ["A"], "p": bad}],
                }
            )


def test_exponent_limit_is_checked_before_the_power_is_built():
    assert parse_fraction(f"1e-{MAX_EXPONENT}", "w") == Fraction(1, 10**MAX_EXPONENT)
    assert parse_fraction(f"25E+{MAX_EXPONENT}", "w") == 25 * 10**MAX_EXPONENT
    for bad in (f"1e{MAX_EXPONENT + 1}", f"1.5e-{MAX_EXPONENT + 1}", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ModelFormatError, match="exponent"):
            parse_fraction(bad, "w")


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(4000, 6000), st.integers(1, 10**9), st.integers(1, 10**9), st.booleans())
def test_weights_with_parts_over_the_digit_limit_round_trip(digits, low, high, hidden):
    """Every rational a model holds is written exactly and reads back."""
    weight = Fraction(10 ** (digits - 1) + low, 10**digits + high)
    sites = (Site("a", ("M",), ("0", "1")),)
    table = {(("0",), ("M",)): weight, (("1",), ("M",)): 1 - weight}
    if hidden:
        model = HiddenVariableModel(sites, ("l",), {key + ("l",): value for key, value in table.items()})
    else:
        model = EmpiricalModel(sites, table)
    assert parse_model(serialize_model(model)) == model


def test_weight_sum_error_shows_only_the_size_of_a_huge_sum():
    text = EPR_TEXT.replace('"p": "1/2"', f'"p": "1/{10**3000 + 1}"', 1)
    with pytest.raises(WeightSumError) as exc:
        parse_model(text)
    total = Fraction(1, 2) + Fraction(1, 10**3000 + 1)
    assert exc.value.total == total
    size = f"{total.numerator.bit_length()}-bit numerator and a {total.denominator.bit_length()}-bit denominator"
    assert str(exc.value).startswith(f"weights sum to a fraction with a {size}, not 1 (short by a fraction")


def test_weight_sum_error_propagates_with_deficit():
    text = EPR_TEXT.replace('"p": "1/2"', '"p": "1/4"', 1)
    with pytest.raises(WeightSumError) as exc:
        parse_model(text)
    assert "short by 1/4" in str(exc.value)


def test_save_and_load(tmp_path):
    path = tmp_path / "bell.em"
    save_model(bell_model(), path)
    assert load_model(path) == bell_model()


def test_load_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(InputError):
        load_model(tmp_path / "absent.em")
    with pytest.raises(InputError):
        save_model(bell_model(), tmp_path / "no" / "such" / "dir" / "x.em")


def test_model_to_dict_matches_serialization():
    model = epr_model()
    assert json.loads(serialize_model(model)) == model_to_dict(model)


def test_readme_model_examples_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for block in blocks:
        parse_model(block)


# ---------------------------------------------------------------------------
# The writer against json.dumps, and the row checks' order


def _weights_view_dict(model) -> dict:
    """`model_to_dict` as built from the `weights` Fraction view."""
    data: dict = {
        "sites": [
            {"name": site.name, "measurements": list(site.measurements), "outcomes": list(site.outcomes)}
            for site in model.sites
        ]
    }
    if isinstance(model, HiddenVariableModel):
        data["lambda"] = list(model.lambda_set)
    data["weights"] = [
        dict(zip(("outcome", "measurement", "lambda"), (list(key[0]), list(key[1]), *key[2:])), p=fraction_text(value))
        for key, value in model.weights.items()
    ]
    return data


def _odd_label_model() -> EmpiricalModel:
    """Labels with quotes, backslashes, control characters, emoji, U+2028,
    and the `,` `|` `\\` that e1 escapes in its hidden-state labels."""
    sites = (
        Site('q"uote\\', ("M,1", "M|2"), ("a\u2028b", '"', "\x1f\x00")),
        Site("\N{GRINNING FACE}", ("\\", "\t"), ("x,|\\", "\N{GRINNING FACE}\u00e9")),
    )
    outcomes = itertools.product(*(site.outcomes for site in sites))
    contexts = list(itertools.product(*(site.measurements for site in sites)))
    shares = (1, 1, 2, 2, 1, 1)  # eighths, in each of the 4 contexts
    return EmpiricalModel(sites, {(o, c): Fraction(k, 32) for o, k in zip(outcomes, shares) for c in contexts})


def _long_weight_models() -> list:
    """Weights whose numerator or denominator is longer than `_PIECE_BITS`."""
    big = 10 ** (_PIECE_BITS // 3 + 40)  # about 1,790 bits
    site = Site("a", ("M",), ("0", "1", "2"))
    tables = [
        (Fraction(1, big + 1), Fraction(big, 3 * (big + 1))),  # long denominators
        (Fraction(big, 3 * big + 1), Fraction(big + 1, 3 * big + 1)),  # long numerators too
    ]
    models = []
    for first, second in tables:
        table = {(("0",), ("M",)): first, (("1",), ("M",)): second, (("2",), ("M",)): 1 - first - second}
        models.append(EmpiricalModel((site,), table))
        models.append(HiddenVariableModel((site,), ("l",), {key + ("l",): value for key, value in table.items()}))
    return models


def _oracle_models() -> list:
    models = [epr_model(), bell_model(), ks_model(), epr_escape_hvm()]
    for seed in range(3):
        for shape in ((1, 1, 2), (1, 3, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)):
            models.append(generate_random_model(seed, grid_sites(*shape)))
            models.append(generate_random_model(seed, grid_sites(*shape), lambda_size=1 + seed))
    odd = _odd_label_model()
    models.append(odd)
    for source in (odd, generate_random_model(7, grid_sites(2, 2, 2)), bell_model()):
        models.extend(construct(source, ConstructionMethod(method)) for method in ("e1", "e2", "sv"))
    models.extend(_long_weight_models())
    return models


def test_serialize_model_is_json_dumps_of_model_to_dict():
    """The writer builds no dict, yet writes the bytes of `json.dumps`; and
    `model_to_dict`, built from the int table, equals the dict built from
    the `weights` view."""
    models = _oracle_models()
    assert any("\\," in lam for model in models if isinstance(model, HiddenVariableModel) for lam in model.lambda_set)
    assert any(
        max(value.numerator.bit_length(), value.denominator.bit_length()) > _PIECE_BITS
        for model in models
        for value in model.weights.values()
    )
    for model in models:
        data = model_to_dict(model)
        assert data == _weights_view_dict(model)
        assert serialize_model(model) == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
        assert parse_model(serialize_model(model)) == model


_ROW_SITES = [{"name": "a", "measurements": ["A"], "outcomes": ["x", "y"]}]


@pytest.mark.parametrize(
    "hidden, row, message",
    [
        (False, {"outcome": ["x"], "q": 1, "p": "1"}, "weights[1]: unknown keys ['q']"),
        (False, ["x", "A", "1"], "weights[1]: expected an object, got ['x', 'A', '1']"),
        (False, None, "weights[1]: expected an object, got None"),
        (
            False,
            {"outcome": ["x"], "measurement": ["A"], "p": "1", "lambda": "l0"},
            'weights[1]: row names a hidden state but the model declares no "lambda" block',
        ),
        (True, {"outcome": ["x"], "measurement": ["A"], "p": "1"}, 'weights[1]: model declares hidden states, row is missing "lambda"'),
        (False, {"outcome": ["x"], "measurement": ["A"], "lambda": "l0"}, "weights[1]: missing key 'p'"),
        (True, {"outcome": "x", "measurement": ["A"], "p": "1"}, "weights[1].outcome: expected a list of strings, got 'x'"),
        (
            False,
            {"outcome": ["x"], "measurement": ["A"], "p": 0.5, "lambda": "l0"},
            'weights[1] is not a finite rational: 0.5; exact rationals are ints, Fractions and strings like "3/8"',
        ),
        (
            True,
            {"outcome": ["x"], "measurement": [1], "p": "1", "lambda": 3},
            "weights[1].measurement: expected a list of strings, got [1]",
        ),
        (True, {"outcome": ["x"], "measurement": ["A"], "p": "1", "lambda": 3}, "weights[1].lambda: expected a string, got 3"),
    ],
)
def test_row_faults_keep_their_order(hidden, row, message):
    """A row whose keys are not exactly the expected ones is checked fault
    by fault, in the order the messages name: shape, then the fields, then
    the hidden state."""
    good = {"outcome": ["y"], "measurement": ["A"], "p": "0"}
    data: dict = {"sites": _ROW_SITES, "weights": [good, row]}
    if hidden:
        data["lambda"] = ["l0"]
        good["lambda"] = "l0"
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert str(exc.value) == message


def test_a_row_of_a_dict_subclass_is_read():
    row = OrderedDict(outcome=["x"], measurement=["A"], p="1")
    assert model_from_dict({"sites": _ROW_SITES, "weights": [row]}).weights == {(("x",), ("A",)): 1}


# ---------------------------------------------------------------------------
# Every outcome of the reader over seeded mutated files, pinned as one digest


def _mutation_bases() -> list[str]:
    """Four model files on (2, 2, 2): seeds 0-3, the odd seeds with two
    hidden states."""
    return [
        serialize_model(generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=2 if seed % 2 else None))
        for seed in range(4)
    ]


def _a_row(rng, data):
    return rng.choice(data["weights"])


def _swap_p(rng, data):
    first, second = rng.sample(data["weights"], 2)
    first["p"], second["p"] = second["p"], first["p"]


def _unreduce_p(rng, data):
    row = _a_row(rng, data)
    n, _, d = row["p"].partition("/")
    k = rng.randint(2, 9)
    row["p"] = f"{int(n) * k}/{int(d or 1) * k}"


def _reorder_rows(rng, data):
    rng.shuffle(data["weights"])


def _add_zero_row(rng, data):
    row = dict(_a_row(rng, data), p=rng.choice(["0", "0/7", 0, "-0"]))
    row["outcome"] = [rng.choice(["o1", "o2"]) for _ in row["outcome"]]
    data["weights"].append(row)


def _p_in_another_form(rng, data):
    row = _a_row(rng, data)
    value = Fraction(row["p"])
    decimal = f"{float(value):.6f}"
    forms = ["+" + row["p"], f" {row['p']}\n", re.sub(r"(\d)(?=\d)", r"\1_", row["p"])]
    row["p"] = rng.choice(forms + [decimal] * (Fraction(decimal) == value) + [value.numerator] * (value.denominator == 1))


def _unknown_label(rng, data):
    row = _a_row(rng, data)
    field = rng.choice(["outcome", "measurement", "lambda"] if "lambda" in row else ["outcome", "measurement"])
    if field == "lambda":
        row["lambda"] = rng.choice(["l9", "", "L1"])
    else:
        row[field][rng.randrange(len(row[field]))] = rng.choice(["o3", "M3", "zz", "O1"])


def _miscounted_labels(rng, data):
    row = _a_row(rng, data)
    field = rng.choice(["outcome", "measurement"])
    row[field] = row[field][:1] if rng.random() < 0.5 else row[field] + row[field][:1]


def _negative_p(rng, data):
    row = _a_row(rng, data)
    row["p"] = "-" + row["p"] if rng.random() < 0.7 else -1


def _other_sum(rng, data):
    if rng.random() < 0.5:
        data["weights"].pop(rng.randrange(len(data["weights"])))
    else:
        _a_row(rng, data)["p"] = rng.choice(["1/3", "1", "2/9", "5/1000"])


def _duplicate_site_name(rng, data):
    data["sites"][1]["name"] = data["sites"][0]["name"]


def _bad_lambda_block(rng, data):
    if "lambda" in data:
        data["lambda"] = rng.choice([["l1", "l1"], [], ["l1", ""], ["l2", "l1"]])
    else:
        data["sites"] = rng.choice([[], data["sites"][:1], data["sites"][::-1]])


def _bad_row_shape(rng, data):
    rows = data["weights"]
    i = rng.randrange(len(rows))
    kind = rng.randrange(5)
    if kind == 0:
        rows[i] = rng.choice([None, ["o1"], "row", 3])
    elif kind == 1:
        del rows[i][rng.choice(sorted(rows[i]))]
    elif kind == 2:
        rows[i]["q"] = 1
    elif kind == 3:
        rows[i]["lambda"] = "l1" if "lambda" not in rows[i] else rows[i]["lambda"]
        if "lambda" not in data:
            return
        del rows[i]["lambda"]
    else:
        rows[i] = dict(rows[i])


def _bad_field(rng, data):
    row = _a_row(rng, data)
    field = rng.choice(["outcome", "measurement", "p", "lambda"])
    row[field] = rng.choice(["o1", ["o1", 1], [None], {"a": 1}, [["o1"]], 0.5, True, None, "1/0", "x", "1e2000", 7])


def _duplicate_row(rng, data):
    data["weights"].insert(rng.randrange(len(data["weights"]) + 1), dict(_a_row(rng, data)))


def _bad_top(rng, data):
    kind = rng.randrange(4)
    if kind == 0:
        data["extra"] = 1
    elif kind == 1:
        data[rng.choice(["sites", "weights", "lambda"])] = rng.choice(["x", {}, None, [1]])
    elif kind == 2:
        del data[rng.choice(sorted(data))]
    else:
        data["sites"][0][rng.choice(["name", "outcomes", "measurements", "x"])] = rng.choice([3, ["o1", "o1"], "s2", []])


_CLEAN_MUTATIONS = (_swap_p, _unreduce_p, _reorder_rows, _add_zero_row, _p_in_another_form)
_MODEL_MUTATIONS = (_unknown_label, _miscounted_labels, _negative_p, _other_sum, _duplicate_site_name, _bad_lambda_block)
_FORMAT_MUTATIONS = (_bad_row_shape, _bad_field, _duplicate_row, _bad_top)


def _mutated_files(count: int, seed: int = 2024):
    """`count` seeded files: 1-3 mutations each, drawn from the clean ones
    half the time, the model-level ones a third and the format ones a sixth."""
    rng = random.Random(seed)
    bases = _mutation_bases()
    for _ in range(count):
        data = json.loads(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            group = rng.choices((_CLEAN_MUTATIONS, _MODEL_MUTATIONS, _FORMAT_MUTATIONS), weights=(3, 2, 1))[0]
            try:
                rng.choice(group)(rng, data)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                pass  # an earlier mutation left nothing for this one to change
        yield data


def _reader_outcome(data) -> tuple[str, str]:
    """(exception type name, message), or ("", the file written back)."""
    try:
        model = model_from_dict(data)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    return "", serialize_model(model)


_MODEL_LEVEL_ERRORS = ("UnknownLabelError", "NegativeWeightError", "WeightSumError")
# Recorded with the reader that built a `Fraction` per row and handed every
# file to the public constructor, before rows were read into the int table.
_MUTATED_DIGEST = "eff35ec327cf4460ed5a0d48fae9ef8cca65dac10577e7da3e85dea1d7928a66"


def test_mutated_files_keep_every_outcome():
    """4,000 mutated files give the same model bytes or the same first
    fault as they always have: one sha256 over every outcome."""
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for data in _mutated_files(4000):
        kind, text = _reader_outcome(data)
        kinds[kind] += 1
        digest.update(f"{kind}\0{text}\0".encode())
    assert kinds[""] >= 100
    assert sum(kinds[kind] for kind in _MODEL_LEVEL_ERRORS) >= 300
    assert digest.hexdigest() == _MUTATED_DIGEST


def _hidden_file() -> dict:
    """A two-site file with two hidden states, as `parse_model` receives it."""
    return json.loads(serialize_model(generate_random_model(1, grid_sites(2, 2, 2), lambda_size=2)))


def test_a_malformed_p_is_named_before_an_earlier_unknown_label():
    data = _hidden_file()
    data["weights"][0]["outcome"] = ["o1", "o9"]
    data["weights"][1]["p"] = "1/0"
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert str(exc.value) == "weights[1] is not a finite rational: '1/0'"


def test_a_malformed_row_is_named_before_duplicate_site_names():
    data = _hidden_file()
    data["sites"][1]["name"] = data["sites"][0]["name"]
    data["weights"][-1] = ["o1", "o2"]
    with pytest.raises(ModelFormatError) as exc:
        model_from_dict(data)
    assert str(exc.value) == f"weights[{len(data['weights']) - 1}]: expected an object, got ['o1', 'o2']"


def test_a_negative_weight_is_named_before_a_later_unknown_label():
    data = _hidden_file()
    data["weights"][0]["p"] = "-1/4"
    data["weights"][1]["measurement"] = ["M1", "M9"]
    with pytest.raises(NegativeWeightError) as exc:
        model_from_dict(data)
    row = data["weights"][0]
    assert exc.value.key == (tuple(row["outcome"]), tuple(row["measurement"]), row["lambda"])
    assert exc.value.value == Fraction(-1, 4)


def test_an_unknown_hidden_state_is_named_before_a_short_sum():
    data = _hidden_file()
    data["weights"][0]["lambda"] = "l9"
    del data["weights"][1]
    with pytest.raises(UnknownLabelError) as exc:
        model_from_dict(data)
    assert str(exc.value) == "unknown hidden state 'l9'"


def test_a_clean_file_is_read_without_the_key_rule_or_fraction_reader(monkeypatch):
    """Plain "n/d" weights are read as ints, and their labels ranked in the
    reader's one pass: neither the constructor's key rule nor the
    `Fraction` reader runs."""
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    from hvw import codec, models, modelio
    from hvw.models import _BaseModel

    texts = [serialize_model(generate_random_model(seed, grid_sites(2, 3, 2), lambda_size=seed or None)) for seed in range(4)]
    assert all(re.fullmatch(r"\d+/\d+", row["p"]) for text in texts for row in json.loads(text)["weights"])
    monkeypatch.setattr(_BaseModel, "_ranked_key", counted("_ranked_key", _BaseModel._ranked_key))
    for module, name in ((codec, "read_rational"), (models, "read_rational"), (modelio, "parse_fraction")):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted("read_rational", getattr(module, name)))
    models_read = [parse_model(text) for text in texts]
    assert calls == {}
    assert [serialize_model(model) for model in models_read] == texts
