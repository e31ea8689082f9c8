"""File format: round trips, canonical ordering, and pointed diagnostics."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvw import (
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    ModelFormatError,
    Site,
    WeightSumError,
    bell_model,
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
