"""File format: round trips, canonical ordering, and pointed diagnostics."""

from __future__ import annotations

import itertools
import json
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
    Site,
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
