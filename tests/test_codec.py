"""The dict form of every result class survives a trip through JSON."""

from __future__ import annotations

import json
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvw import (
    ClassificationReport,
    ConstructionMethod,
    ModelFormatError,
    KsColoring,
    KsTable,
    PolytopeResult,
    PropertyVerdict,
    Witness,
    bell_certificate,
    bell_model,
    bell_pi_escape,
    classify_all,
    classify_region,
    construct,
    epr_model,
    generate_random_model,
    grid_sites,
    ks_parity_certificate,
    ks_search_colorings,
    ks_table,
    local_polytope_feasibility,
    model_to_dict,
    serialize_model,
    verify_bell,
    verify_epr,
    verify_ks,
)
from hvw import cli, modelio
from hvw.codec import _EXPONENT, MAX_DIGITS, MAX_EXPONENT, Codec, _text_int, read_rational, write_json
from hvw.errors import show_value
from hvw.nogo import CertificateEquation

WITNESS = Witness(
    lhs_desc="p(x)", rhs_desc="p(y)", lhs=Fraction(1, 3), rhs=Fraction(1, 2), where=("a", "l0")
)


def _sample_classification() -> ClassificationReport:
    return classify_all(sample=epr_model())


# One instance of every class that uses the codec, built on demand.
INSTANCES = {
    "Witness": lambda: WITNESS,
    "Witness-no-where": lambda: Witness(
        lhs_desc="p(x)", rhs_desc="p(y)", lhs=Fraction(0), rhs=Fraction(1)
    ),
    "PropertyVerdict": lambda: PropertyVerdict(False, WITNESS),
    "PropertyVerdict-holds": lambda: PropertyVerdict(True),
    "PolytopeResult": lambda: local_polytope_feasibility(bell_model()),
    "PolytopeResult-feasible": lambda: local_polytope_feasibility(epr_model()),
    "EprReport": verify_epr,
    "CertificateEquation": lambda: bell_certificate().equations[0],
    "BellCertificate": bell_certificate,
    "BellEscapeReport": bell_pi_escape,
    "BellReport": lambda: verify_bell(method="certificate"),
    "KsTable": ks_table,
    "KsColoring": lambda: ks_search_colorings(KsTable((("a", "b"), ("b", "c"))))[0],
    "KsParityReport": lambda: ks_parity_certificate(ks_table()),
    "KsReport": lambda: verify_ks(method="parity"),
    "RegionVerdict": lambda: classify_region({"SV", "LI"}),
    "RegionEvidence": lambda: _sample_classification().regions[0].evidence[0],
    "RegionEntry": lambda: _sample_classification().regions[0],
    "ClassificationReport": _sample_classification,
}


def test_every_codec_class_has_an_instance():
    covered = {name.split("-")[0] for name in INSTANCES}
    assert {cls.__name__ for cls in Codec.__subclasses__()} <= covered


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_json_round_trip(name):
    value = INSTANCES[name]()
    assert type(value).__name__ == name.split("-")[0]
    data = json.loads(json.dumps(value.to_dict()))
    assert type(value).from_dict(data) == value


def test_embedded_model_uses_the_model_file_form():
    result = local_polytope_feasibility(epr_model())
    assert result.feasible and result.hvm is not None
    assert result.to_dict()["hvm"] == model_to_dict(result.hvm)


def test_kind_tag_comes_first_and_is_ignored_on_decode():
    result = local_polytope_feasibility(bell_model())
    data = result.to_dict()
    assert list(data)[:2] == ["kind", "feasible"]
    assert data["kind"] == "polytope-membership"
    assert PolytopeResult.from_dict({**data, "kind": "other"}) == result


def test_derived_rhs_is_written_but_not_read():
    equation = bell_certificate().equations[0]
    data = equation.to_dict()
    assert list(data)[-1] == "rhs"
    assert data["rhs"] == str(equation.plus_plus + equation.minus_minus)
    assert CertificateEquation.from_dict({**data, "rhs": "99"}) == equation


def test_missing_optional_keys_take_defaults():
    data = WITNESS.to_dict()
    del data["where"]
    assert Witness.from_dict(data).where == ()
    assert KsColoring.from_dict({"assignment": [["a", 1]]}) == KsColoring((("a", 1),))


def test_parts_over_the_digit_limit_are_written_and_read_exactly():
    """CPython's `str` and `int` refuse an int of more than 4,300 digits."""
    cases = [
        (Fraction(1, 10**3000 + 1) ** 2, "1/1" + "0" * 2999 + "2" + "0" * 2999 + "1"),
        (-Fraction(10**5000 + 3, 7), "-1" + "0" * 4999 + "3/7"),
        (Fraction(10**4400), "1" + "0" * 4400),
        (Fraction(-(3**20000), 2**30000), None),
        (Fraction(3, 8), "3/8"),
    ]
    for value, text in cases:
        witness = Witness("p(a)", "p(b)", value, value + 1)
        data = json.loads(json.dumps(witness.to_dict()))
        assert text is None or data["lhs"] == text
        assert Witness.from_dict(data) == witness


def test_read_rational_takes_ints_and_fractions_as_they_are():
    for value in (7, -(10**5000), Fraction(3, 8)):
        assert read_rational(value, "w") is value
    assert read_rational(" 6/8 ", "w") == Fraction(3, 4)
    assert read_rational("-1.25e-3", "w") == Fraction(-1, 800)
    long = "-" + "9" * 5000 + "/" + "7" * 4500
    assert read_rational(long, "w") == Fraction(1 - 10**5000, 7 * (10**4500 - 1) // 9)


@pytest.mark.parametrize(
    "bad",
    [True, False, 0.5, Decimal("0.5"), Decimal("1e999999999"), None, [1], {"n": 1}, "-1/-2", "1/-2",
     "1" * 5000 + "/-2", "1/" + "0" * 5000, "", "half"],
)
def test_read_rational_refuses_everything_else(bad):
    with pytest.raises(ModelFormatError, match=r"^p\[3\] is not a finite rational: "):
        read_rational(bad, "p[3]")


def test_a_long_bad_value_is_echoed_in_part():
    with pytest.raises(ModelFormatError) as caught:
        read_rational(["1"] * 100_000, "w")
    message = str(caught.value)
    assert message.startswith("w is not a finite rational: ['1', '1', ")
    assert "'1',...; exact rationals are ints" in message
    assert len(message) < 250
    with pytest.raises(ModelFormatError, match=r"^w is not a finite rational: 'x{99}\.\.\.$"):
        read_rational("x" * 200_000, "w")
    with pytest.raises(ModelFormatError, match=r"^w: exponent in '1e9{97}\.\.\. is beyond"):
        read_rational("1e" + "9" * 200_000, "w")


def test_read_rational_refuses_more_than_max_digits_before_reading():
    assert read_rational("7" * MAX_DIGITS, "w") == 7 * (10**MAX_DIGITS - 1) // 9
    half = MAX_DIGITS // 2
    assert read_rational("1" * half + "/" + "3" * half, "w") == Fraction(1, 3)
    for bad in ("7" * (MAX_DIGITS + 1), "1" * half + "/" + "3" * (half + 1), "7" * 10**6):
        started = time.monotonic()
        with pytest.raises(ModelFormatError, match=rf"^w: '(7{{99}}|1{{99}})\.\.\. has more than {MAX_DIGITS} digits$"):
            read_rational(bad, "w")
        assert time.monotonic() - started < 0.5


def test_non_ascii_digits_count_against_max_digits():
    """`Fraction` and `int` read every Unicode decimal digit, so each counts."""
    assert read_rational("\u0663/\u0668", "w") == Fraction(3, 8)
    started = time.monotonic()
    with pytest.raises(ModelFormatError, match=rf"^w: '\u0661+\.\.\. has more than {MAX_DIGITS} digits$"):
        read_rational("\u0661" * 10**6, "w")
    assert time.monotonic() - started < 0.1


# The plain form that `fraction_text` writes, as the reference below matches it.
_PLAIN = re.compile(r"(-?)(\d+)(?:/(\d+))?")


def _read_rational_before_the_fast_path(value: object, where: str) -> Fraction | int:
    """`read_rational` as it was before plain strings took one `int` call a
    part, kept verbatim as the reference for that path: `Fraction` read every
    string, and a plain one too long for it was read in pieces."""
    if type(value) is Fraction or type(value) is int:
        return value
    if not isinstance(value, str):
        raise ModelFormatError(
            f"{where} is not a finite rational: {show_value(value)}; "
            'exact rationals are ints, Fractions and strings like "3/8"'
        )
    exponent = _EXPONENT.search(value)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ModelFormatError(f"{where}: exponent in {show_value(value)} is beyond ±{MAX_EXPONENT}")
    if len(value) > MAX_DIGITS and sum(map(value.count, "0123456789")) > MAX_DIGITS:
        raise ModelFormatError(f"{where}: {show_value(value)} has more than {MAX_DIGITS} digits")
    try:
        try:
            return Fraction(value)
        except ValueError:  # a part over the digit limit, or not a number at all
            plain = _PLAIN.fullmatch(value)
            if plain is None:
                raise
            sign, numerator, denominator = plain.groups()
            numerator_int = _text_int(numerator)
            return Fraction(-numerator_int if sign else numerator_int, _text_int(denominator or "1"))
    except (ValueError, ZeroDivisionError):
        raise ModelFormatError(f"{where} is not a finite rational: {show_value(value)}") from None


_FAST_PATH_CASES = [
    "3/8", "+3/8", " 3/8", "-3/8", "00/01", "3/0", "0/0", "3/", "/3", "", "1_0/3",
    "\u0663/\u0668", "\u00b2/3", "3/\u00b2", "1e-30", "0.125", "7", "6/8", "3/8/9", "3/8 ",
] + [
    text
    for digits in (449, 450, 451)
    for part in ("9" * digits, "1" + "0" * (digits - 1))
    for text in (part, f"{part}/7", f"7/{part}", f"{part}/{part}", f"-{part}/3")
] + [
    "-0", "-0/5", "-", "--3", "-/3", "3/-8",
] + [
    # Across the digit limit of one `int` call (4,300 by default).
    text
    for digits in (4300, 4301, 9000)
    for part in ("9" * digits, "1" + "0" * (digits - 1))
    for text in (part, f"{part}/7", f"7/{part}", f"{part}/0", f"-{part}", f"-{part}/{part}")
]


@pytest.mark.parametrize("text", _FAST_PATH_CASES, ids=lambda text: repr(text)[:24])
def test_read_rational_fast_path_matches_the_reference(text):
    def outcome(reader):
        try:
            value = reader(text, "p[0]")
        except ModelFormatError as exc:
            return "error", str(exc)
        return type(value), value

    new, old = outcome(read_rational), outcome(_read_rational_before_the_fast_path)
    assert new == old
    if new[0] is Fraction:
        assert (new[1].numerator, new[1].denominator) == (old[1].numerator, old[1].denominator)


def test_decoding_a_huge_exponent_fails_fast():
    data = PropertyVerdict(False, WITNESS).to_dict()
    data["witness"]["lhs"] = "1e999999999"
    started = time.monotonic()
    with pytest.raises(ModelFormatError, match=r"^lhs: exponent in '1e999999999' is beyond ±1000"):
        PropertyVerdict.from_dict(data)
    assert time.monotonic() - started < 0.5


# ---------------------------------------------------------------------------
# write_json against json.dumps(indent=2, ensure_ascii=False)


def _dumps(value: object) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


_STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=())),  # surrogates included
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\N{GRINNING FACE}", "\ud800", "\udfff"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**4300, max_value=10**4400),
    st.integers(min_value=-(10**4400), max_value=-(10**4300)),
    _STRINGS,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_VALUES)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "d": ["x", "y"], "e": [1, "x"]})
@example(["\"\\\x00\u00e9\ud800"])
def test_write_json_matches_json_dumps(value):
    try:
        expected = _dumps(value)
    except ValueError:  # an int past the int-to-str digit limit
        with pytest.raises(ValueError):
            write_json(value)
    else:
        assert write_json(value) == expected


def test_write_json_matches_json_dumps_on_every_golden_payload(tmp_path, monkeypatch):
    """Every document the golden CLI cases print or save: each report's
    `to_dict()` payload through `write_json`, and each model file through
    `serialize_model`, which writes its weight rows itself."""
    from test_golden import CASES, run_case, write_inputs

    seen: list = []
    models: list = []

    def recording(value):
        seen.append(value)
        return write_json(value)

    def recording_model(model):
        models.append(model)
        return serialize_model(model)

    monkeypatch.setattr(cli, "write_json", recording)
    monkeypatch.setattr(cli, "serialize_model", recording_model)
    monkeypatch.setattr(modelio, "serialize_model", recording_model)
    monkeypatch.delenv("HVW_GUARD", raising=False)
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for case in CASES:
        run_case(case)
    commands = {value["command"] for value in seen if "command" in value}
    assert commands == {"check", "construct", "equiv", "nogo", "classify"}
    assert len(models) >= 10
    for value in seen:
        assert write_json(value) == _dumps(value)
    for model in models:
        assert serialize_model(model) == _dumps(model_to_dict(model)) + "\n"


@pytest.mark.parametrize("method", ["e1", "e2", "sv"])
def test_write_json_matches_json_dumps_on_a_completion(method):
    source = generate_random_model(11, grid_sites(2, 2, 2))
    data = model_to_dict(construct(source, ConstructionMethod(method)))
    assert write_json(data) == _dumps(data)


def test_write_json_refuses_what_it_cannot_write():
    with pytest.raises(TypeError):
        write_json(Fraction(1, 2))
    with pytest.raises(TypeError):
        write_json({1: "x"})
