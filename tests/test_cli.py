"""Command line behavior: exit codes, deterministic output, JSON fidelity."""

from __future__ import annotations

import collections
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hvw import (
    ClassificationReport,
    EprReport,
    HiddenVariableModel,
    KsReport,
    PropertyVerdict,
    bell_model,
    classify_all,
    epr_escape_hvm,
    epr_model,
    generate_random_model,
    grid_sites,
    load_model,
    parse_model,
    save_model,
    serialize_model,
    verify_bell,
    verify_epr,
    verify_ks,
)
from hvw.codec import MAX_DIGITS
from hvw.nogo import BellReport


@pytest.fixture
def epr_file(tmp_path):
    path = tmp_path / "epr.em"
    save_model(epr_model(), str(path))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.em"
    save_model(bell_model(), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# canon


def test_canon_is_byte_identical_across_runs(cli):
    code1, out1, _ = cli("canon", "bell")
    code2, out2, _ = cli("canon", "bell")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_canon_output_parses_back(cli):
    code, out, err = cli("canon", "epr")
    assert code == 0 and err == ""
    assert parse_model(out).weights == epr_model().weights


def test_canon_escape_includes_hidden_states(cli):
    code, out, _ = cli("canon", "epr-escape")
    assert code == 0
    model = parse_model(out)
    assert isinstance(model, HiddenVariableModel)
    assert model.lambda_set == ("l1", "l2")


def test_canon_out_writes_a_loadable_file(cli, tmp_path):
    target = tmp_path / "ks.em"
    code, out, _ = cli("canon", "ks", "--out", str(target))
    assert code == 0
    assert load_model(str(target)).n_sites == 4


def test_canon_rejects_unknown_name(cli):
    code, _, _ = cli("canon", "chsh")
    assert code == 2


# ---------------------------------------------------------------------------
# check


def test_check_holds_exits_zero(cli, epr_file):
    code, out, err = cli("check", epr_file, "--property", "non-contextuality")
    assert code == 0
    assert out.strip() == "non-contextuality: holds"
    assert err == ""


def test_check_fails_exits_one_with_witness(cli, tmp_path, epr_file):
    sv_path = tmp_path / "sv.hvm"
    code, _, _ = cli("construct", epr_file, "--method", "sv", "--out", str(sv_path))
    assert code == 0
    code, out, _ = cli("check", str(sv_path), "--property", "strong-determinism")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "strong-determinism: fails"
    assert "1/2" in lines[1]


def test_check_input_error_exits_two(cli, epr_file):
    code, out, err = cli("check", epr_file, "--property", "exchangeability")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _one_site_file(tmp_path, first: str, second: str) -> str:
    """A one-site model file whose two weights are the raw JSON values given."""
    rows = ", ".join(
        f'{{"outcome": ["{a}"], "measurement": ["M"], "p": {p}}}' for a, p in (("0", first), ("1", second))
    )
    path = tmp_path / "model.em"
    path.write_text(
        f'{{"sites": [{{"name": "a", "measurements": ["M"], "outcomes": ["0", "1"]}}], "weights": [{rows}]}}'
    )
    return str(path)


@pytest.mark.parametrize(
    "first, second",
    [
        ('"1"', '"1e-5000"'),
        ('"1e5000"', '"0"'),
        (f'"1/{10**3000 + 1}"', f'"1/{3 * 10**3000 + 7}"'),
        ("1" + "0" * 5000, '"0"'),
    ],
    ids=["tiny-exponent", "huge-exponent", "long-denominators", "long-json-integer"],
)
def test_huge_rationals_in_a_model_file_exit_two(cli, tmp_path, first, second):
    code, out, err = cli("check", _one_site_file(tmp_path, first, second), "--property", "exchangeability")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _long_weight_file(tmp_path) -> str:
    """A valid hidden model whose projection has the 6,001-digit weight 1/p + 1/q."""
    p, q = 10**3000 + 1, 10**3000 + 3
    path = tmp_path / "long.hvm"
    path.write_text(
        json.dumps(
            {
                "sites": [{"name": "a", "measurements": ["M1"], "outcomes": ["o1", "o2"]}],
                "lambda": ["l0", "l1"],
                "weights": [
                    {"outcome": [o], "measurement": ["M1"], "lambda": lam, "p": value}
                    for o, lam, value in (
                        ("o1", "l0", f"1/{p}"),
                        ("o2", "l0", f"{p - 2}/{2 * p}"),
                        ("o1", "l1", f"1/{q}"),
                        ("o2", "l1", f"{q - 2}/{2 * q}"),
                    )
                ],
            }
        )
    )
    return str(path)


def test_weights_over_the_digit_limit_are_written_and_read_back(cli, tmp_path):
    source = _long_weight_file(tmp_path)
    expected = Fraction(1, 10**3000 + 1) + Fraction(1, 10**3000 + 3)
    out_file = str(tmp_path / "long-sv.hvm")
    code, out, err = cli("construct", source, "--method", "sv", "--out", out_file)
    assert (code, err) == (0, "")
    assert out == f"sv: wrote equivalent completion with 1 hidden states to {out_file}\n"
    assert load_model(out_file).weights[(("o1",), ("M1",), "l0")] == expected
    assert cli("check", out_file, "--property", "single-valuedness")[:2] == (0, "single-valuedness: holds\n")
    code, out, err = cli("construct", source, "--method", "sv", "--format", "json")
    assert (code, err) == (0, "")
    model = parse_model(json.dumps(json.loads(out)["model"]))
    assert model == load_model(out_file)


# What a model file may hold as "p", well formed or not: exponents far beyond
# the bound, parts over the digit limit, "n/-d", and every non-string JSON type.
_DIGITS = st.integers(1, 10**6).map(str)
_P_VALUES = st.one_of(
    st.builds("{}e{}".format, st.sampled_from(["1", "-2", "0.5", "7_5"]), st.integers(-(10**9), 10**9)),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}/-{}".format, _DIGITS, _DIGITS),
    st.builds(lambda n, zeros: "1" + "0" * n + zeros, st.integers(4000, 6000), st.sampled_from(["", "/3", "e-5"])),
    st.builds(lambda n: "1/" + "3" * n, st.integers(4000, 6000)),
    st.sampled_from(["1", "0", "1/2", "", "half", "1/0", "-1/-2", "NaN", "inf"]),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)


@settings(
    derandomize=True, deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_P_VALUES, _P_VALUES)
def test_any_weight_value_exits_zero_one_or_two(cli, tmp_path, first, second):
    rows = [{"outcome": [a], "measurement": ["M"], "p": p} for a, p in (("0", first), ("1", second))]
    path = tmp_path / "fuzz.em"
    path.write_text(
        json.dumps({"sites": [{"name": "a", "measurements": ["M"], "outcomes": ["0", "1"]}], "weights": rows})
    )
    code, out, err = cli("check", str(path), "--property", "non-contextuality")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


# Values a structural mutation puts in place of any part of a model file.
_NODES = (None, True, 0, -1, 0.5, "", "x", "o1", "M1", "l1", "1/0", "-1/2", "9" * 60, [], {}, ["o1"], ["o1", 2], {"p": "1"})


def _structural_mutation(rng, data) -> None:
    """Replace, delete, duplicate or rename one part of `data`, found by a
    random walk down its JSON tree."""
    if not data:
        return
    node, key = data, rng.choice(sorted(data))
    while isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.75:
        node = node[key]
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
    action = rng.randrange(4)
    if action == 0:
        sibling = node[rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))]
        node[key] = rng.choice(_NODES + (json.loads(json.dumps(sibling)),))
    elif action == 1:
        del node[key]
    elif action == 2 and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif isinstance(node, dict):
        node[rng.choice(("lambda", "p", "name", "q", key.upper()))] = node.pop(key)


def test_structurally_mutated_files_exit_zero_one_or_two(cli, tmp_path):
    """Seeded mutations of model files, anywhere in their JSON structure,
    through `check`, `construct`, `equiv` and `classify --sample`: each run
    exits 0, 1 or 2 within a second, and exit 2 writes one short `error:`
    line and nothing else."""
    rng = random.Random(12)
    bases = [
        serialize_model(generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=2 if seed % 2 else None))
        for seed in range(4)
    ]
    reference = tmp_path / "reference.em"
    reference.write_text(bases[0], encoding="utf-8")
    path = tmp_path / "mutated.em"
    commands = (
        ("check", str(path), "--property", "non-contextuality"),
        ("check", str(path), "--property", "locality"),
        ("construct", str(path), "--method", "e1"),
        ("construct", str(path), "--method", "sv"),
        ("equiv", str(path), str(reference)),
        ("classify", "--sample", str(path)),
    )
    codes = collections.Counter()
    for _ in range(3000):
        data = json.loads(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _structural_mutation(rng, data)
        path.write_text(json.dumps(data), encoding="utf-8")
        args = rng.choice(commands)
        started = time.monotonic()
        code, out, err = cli(*args, *rng.choice(((), ("--format", "json"))))
        assert time.monotonic() - started < 1, args
        codes[code] += 1
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert len(err.encode()) < 400
        else:
            assert code in (0, 1) and err == "", (code, err)
    assert codes[0] + codes[1] >= 100 and codes[2] >= 1000


def test_a_long_bad_weight_is_echoed_in_part(cli, tmp_path):
    bad = "x" * 200_000
    path = tmp_path / "long-bad.em"
    path.write_text(
        json.dumps(
            {
                "sites": [{"name": "a", "measurements": ["M"], "outcomes": ["0"]}],
                "weights": [{"outcome": ["0"], "measurement": ["M"], "p": bad}],
            }
        )
    )
    code, out, err = cli("check", str(path), "--property", "non-contextuality")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"is not a finite rational: '{'x' * 99}...\n" in err
    assert len(err) < 300


def test_a_weight_of_a_million_digits_exits_two_fast(cli, tmp_path):
    path = tmp_path / "many-digits.em"
    row = {"outcome": ["0"], "measurement": ["M"], "p": "1" * 10**6}
    path.write_text(json.dumps({"sites": [{"name": "a", "measurements": ["M"], "outcomes": ["0"]}], "weights": [row]}))
    started = time.monotonic()
    code, out, err = cli("check", str(path), "--property", "non-contextuality")
    assert time.monotonic() - started < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"... has more than {MAX_DIGITS} digits\n")
    assert len(err.encode()) < 400


def test_exchangeability_with_a_long_site_name_exits_two_in_one_short_line(cli, tmp_path):
    path = tmp_path / "long-site.em"
    sites = [
        {"name": "x" * 200_000, "measurements": ["M"], "outcomes": ["0"]},
        {"name": "b", "measurements": ["N"], "outcomes": ["0"]},
    ]
    row = {"outcome": ["0", "0"], "measurement": ["M", "N"], "p": "1"}
    path.write_text(json.dumps({"sites": sites, "weights": [row]}))
    code, out, err = cli("check", str(path), "--property", "exchangeability")
    assert (code, out) == (2, "")
    assert err.startswith("error: exchangeability requires") and err.count("\n") == 1
    assert len(err.encode()) < 400


_SITE = {"name": "a", "measurements": ["M"], "outcomes": ["0"]}
_ROW = {"outcome": ["0"], "measurement": ["M"], "p": "1"}
_LONG = "x" * 200_000


@pytest.mark.parametrize(
    "data, message",
    [
        ({"sites": {}, "weights": []}, '"sites" must be a list'),
        ({"sites": [_SITE], "weights": {}}, '"weights" must be a list'),
        ({"sites": ["a"], "weights": []}, "sites[0]: expected an object, got 'a'"),
        ({"sites": [_SITE], "weights": [["0"]]}, "weights[0]: expected an object, got ['0']"),
        ({"sites": [{**_SITE, "name": 7}], "weights": []}, "sites[0]: site name must be a string, got 7"),
        (
            {"sites": [{**_SITE, "outcomes": ["0", 1]}], "weights": []},
            "sites[0].outcomes: expected a list of strings, got ['0', 1]",
        ),
        (
            {"sites": [_SITE], "lambda": ["l0"], "weights": [{**_ROW, "lambda": 0}]},
            "weights[0].lambda: expected a string, got 0",
        ),
        (
            {"sites": [_SITE], "weights": [{**_ROW, "outcome": [_LONG]}]},
            f"unknown outcome '{'x' * 99}... at site 'a'",
        ),
        (
            {"sites": [_SITE], "weights": [{**_ROW, _LONG: 1}]},
            f"weights[0]: unknown keys ['{'x' * 98}...",
        ),
    ],
    ids=[
        "sites-not-a-list",
        "weights-not-a-list",
        "site-not-an-object",
        "row-not-an-object",
        "site-name-not-a-string",
        "label-not-a-string",
        "row-lambda-not-a-string",
        "long-outcome-label",
        "long-row-key",
    ],
)
def test_malformed_model_file_exits_two_with_its_message(cli, tmp_path, data, message):
    path = tmp_path / "bad.em"
    path.write_text(json.dumps(data))
    code, out, err = cli("check", str(path), "--property", "non-contextuality")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 400


def test_witness_over_the_digit_limit_prints_exactly(cli, tmp_path):
    """The locality witness of this valid model has a 6,001-digit denominator."""
    big = 10**3000 + 1
    path = tmp_path / "long.em"
    path.write_text(
        json.dumps(
            {
                "sites": [
                    {"name": "a", "measurements": ["m"], "outcomes": ["0", "1"]},
                    {"name": "b", "measurements": ["m"], "outcomes": ["0", "1"]},
                ],
                "lambda": ["l"],
                "weights": [
                    {"outcome": [a, a], "measurement": ["m", "m"], "lambda": "l", "p": f"{p}/{big}"}
                    for a, p in (("0", 1), ("1", 10**3000))
                ],
            }
        )
    )
    code, out, err = cli("check", str(path), "--property", "locality")
    assert (code, err) == (1, "")
    assert out.startswith("locality: fails\n")
    assert " = 1/1" + "0" * 2999 + "1 but " in out
    code, out, err = cli("check", str(path), "--property", "locality", "--format", "json")
    assert (code, err) == (1, "")
    verdict = PropertyVerdict.from_dict(json.loads(out)["verdict"])
    assert not verdict.holds
    assert verdict.witness.lhs == Fraction(1, big)
    assert verdict.witness.rhs == Fraction(1, big) ** 2


def test_deeply_nested_model_file_exits_two(cli, tmp_path):
    path = tmp_path / "deep.em"
    path.write_text("[" * 3000)
    code, out, err = cli("check", str(path), "--property", "exchangeability")
    assert code == 2
    assert out == ""
    assert err == "error: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "text",
    ["[" * 3000 + "]" * 3000, '{"sites": ' + "[" * 3000 + "]" * 3000 + ', "weights": []}'],
    ids=["closed-list", "deep-value"],
)
def test_a_deep_file_that_json_may_parse_exits_two_as_nested_too_deeply(cli, tmp_path, text):
    """Whether `json` parses 3,000 levels depends on the Python version; a
    refused file that deep gets the same message on every version."""
    path = tmp_path / "deep.em"
    path.write_text(text)
    code, out, err = cli("check", str(path), "--property", "exchangeability")
    assert (code, out, err) == (2, "", "error: not valid JSON: nested too deeply\n")


def test_check_hidden_property_on_empirical_file(cli, epr_file):
    code, _, err = cli("check", epr_file, "--property", "locality")
    assert code == 2
    assert "hidden-variable model" in err


def test_check_unknown_property_is_usage_error(cli, epr_file):
    code, _, err = cli("check", epr_file, "--property", "determinism")
    assert code == 2
    # The longest usage error with a short token is printed whole.
    last = err.splitlines()[-1]
    assert last.startswith("hvw check: error: argument --property: invalid choice: ")
    assert "determinism" in last and "exchangeability" in last and not last.endswith("...")


def test_check_missing_file(cli):
    code, _, err = cli("check", "no-such-file.em", "--property", "locality")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_model_file_that_is_not_utf8_exits_two_with_one_line(cli, tmp_path, fmt):
    path = tmp_path / "bad.em"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = cli("check", str(path), "--property", "locality", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_check_json_format(cli, epr_file):
    code, out, _ = cli("check", epr_file, "--property", "non-contextuality", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["property"] == "non-contextuality"
    assert payload["verdict"]["holds"] is True


# ---------------------------------------------------------------------------
# construct


def test_construct_stdout_parses_to_equivalent_hvm(cli, epr_file):
    code, out, _ = cli("construct", epr_file, "--method", "e2")
    assert code == 0
    model = parse_model(out)
    assert isinstance(model, HiddenVariableModel)
    assert len(model.lambda_set) == 2


def test_construct_out_reports_size(cli, tmp_path, bell_file):
    target = tmp_path / "bell-e2.hvm"
    code, out, _ = cli("construct", bell_file, "--method", "e2", "--out", str(target))
    assert code == 0
    assert out.strip() == f"e2: wrote equivalent completion with 8 hidden states to {target}"
    assert isinstance(load_model(str(target)), HiddenVariableModel)


def test_construct_json_embeds_the_model(cli, epr_file):
    code, out, _ = cli("construct", epr_file, "--method", "e1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "e1"
    assert payload["lambda_size"] == 4
    assert payload["equivalent"] is True
    assert payload["model"]["lambda"] is not None


def test_construct_json_with_out_writes_the_file(cli, tmp_path, epr_file):
    target = tmp_path / "epr-e1.hvm"
    code, out, err = cli("construct", epr_file, "--method", "e1", "--out", str(target), "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload == {
        "command": "construct", "method": "e1", "lambda_size": 4, "equivalent": True, "out": str(target)
    }
    assert len(load_model(str(target)).lambda_set) == 4


def test_construct_projects_hidden_input(cli, tmp_path):
    source = tmp_path / "escape.hvm"
    code, _, _ = cli("canon", "epr-escape", "--out", str(source))
    assert code == 0
    code, out, _ = cli("construct", str(source), "--method", "sv")
    assert code == 0
    rebuilt = parse_model(out)
    assert rebuilt.lambda_set == ("l0",)


def test_construct_guard_failure_exits_two(cli, tmp_path):
    ks_path = tmp_path / "ks.em"
    cli("canon", "ks", "--out", str(ks_path))
    code, _, err = cli("construct", str(ks_path), "--method", "e1")
    assert code == 2
    assert "error:" in err


def test_construct_guard_failure_on_a_huge_lcm_is_one_short_line(cli, tmp_path):
    p, q = 10**3000 + 1, 10**3000 + 3
    rows = [("o1", "l0", f"1/{p}"), ("o2", "l0", f"{p - 2}/{2 * p}"), ("o1", "l1", f"1/{q}"), ("o2", "l1", f"{q - 2}/{2 * q}")]
    sites = [{"name": "a", "measurements": ["M1"], "outcomes": ["o1", "o2"]}]
    weights = [{"outcome": [o], "measurement": ["M1"], "lambda": lam, "p": v} for o, lam, v in rows]
    path = tmp_path / "long.hvm"
    path.write_text(json.dumps({"sites": sites, "lambda": ["l0", "l1"], "weights": weights}))
    code, out, err = cli("construct", str(path), "--method", "e2")
    assert (code, out) == (2, "")
    assert err.startswith("error: e2 hidden state set would enumerate at least 2^")
    assert err.count("\n") == 1 and len(err.encode()) < 400
    e1 = tmp_path / "long-e1.hvm"
    assert cli("construct", str(path), "--method", "e1", "--out", str(e1))[0] == 0
    assert cli("equiv", str(path), str(e1))[0] == 0


# ---------------------------------------------------------------------------
# equiv


def test_equiv_same_model_exits_zero(cli, epr_file, tmp_path):
    copy = tmp_path / "copy.em"
    save_model(epr_model(), str(copy))
    code, out, _ = cli("equiv", epr_file, str(copy))
    assert code == 0
    assert out.strip() == "equivalent: holds"


def test_equiv_differing_models_exit_one(cli, bell_file, tmp_path, uniform_quarter):
    other = tmp_path / "uniform.em"
    save_model(uniform_quarter, str(other))
    code, out, _ = cli("equiv", bell_file, str(other))
    assert code == 1
    assert "equivalent: fails" in out


def test_equiv_signature_mismatch_exits_two(cli, epr_file, bell_file):
    code, _, err = cli("equiv", epr_file, bell_file)
    assert code == 2
    assert err.startswith("error: ")


def test_equiv_json(cli, epr_file, tmp_path):
    copy = tmp_path / "copy.em"
    save_model(epr_model(), str(copy))
    code, out, _ = cli("equiv", epr_file, str(copy), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"]["holds"] is True


# ---------------------------------------------------------------------------
# nogo


def test_nogo_epr_text_and_exit(cli):
    code, out, _ = cli("nogo", "epr")
    assert code == 1
    assert "p(a=+_a | a=A, b=B, λ) = 1/2" in out
    assert "p(a=+_a | a=A, b=B, b=-_b, λ) = 1" in out
    assert "no-go confirmed" in out


def test_nogo_epr_json_round_trips(cli):
    code, out, _ = cli("nogo", "epr", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["argument"] == "epr"
    assert EprReport.from_dict(payload["report"]) == verify_epr()


def test_nogo_epr_rejects_method(cli):
    code, _, err = cli("nogo", "epr", "--method", "certificate")
    assert code == 2
    assert "omit --method" in err


def test_nogo_bell_text(cli):
    code, out, _ = cli("nogo", "bell")
    assert code == 1
    assert "directions (1,2): p{4,8,2,6} = 3/8 + 3/8 = 3/4" in out
    assert "total atom mass 9/8 > 1" in out
    assert "strategies enumerated: 64" in out
    assert "infeasible" in out
    assert "no-go confirmed" in out


def test_nogo_bell_single_routes(cli):
    code, out, _ = cli("nogo", "bell", "--method", "certificate", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    report = BellReport.from_dict(payload["report"])
    assert report.polytope is None and report.certificate is not None

    code, out, _ = cli("nogo", "bell", "--method", "polytope", "--format", "json")
    assert code == 1
    report = BellReport.from_dict(json.loads(out)["report"])
    assert report.certificate is None
    assert not report.polytope.feasible
    assert report == verify_bell("polytope")


def test_nogo_bell_rejects_foreign_method(cli):
    code, _, err = cli("nogo", "bell", "--method", "coloring")
    assert code == 2
    assert "certificate, polytope, or both" in err


def test_nogo_ks_text(cli):
    code, out, _ = cli("nogo", "ks")
    assert code == 1
    assert "exchangeability: holds" in out
    assert "non-contextuality: fails" in out
    assert "0 valid colorings among 262144 winner patterns" in out
    assert "column count 9 is odd: impossible" in out
    assert "no-go confirmed" in out


def test_nogo_ks_json_round_trips(cli):
    code, out, _ = cli("nogo", "ks", "--format", "json")
    assert code == 1
    report = KsReport.from_dict(json.loads(out)["report"])
    assert report.coloring_count == 0
    assert report.confirmed


def test_nogo_ks_parity_only(cli):
    code, out, _ = cli("nogo", "ks", "--method", "parity")
    assert code == 1
    assert "coloring search" not in out
    assert "parity certificate" in out


def test_each_nogo_text_ends_with_its_one_conclusion_line():
    """A confirmed report closes with "no-go confirmed: <claim>". Changing one
    piece of its evidence so that the argument no longer goes through closes
    it with "no-go NOT confirmed" instead; only that piece's lines and the
    conclusion line change."""
    import dataclasses

    import hvw.cli

    epr, bell = verify_epr(), verify_bell()
    witness = epr.oi_single_state.witness
    for render, report, change, old, new in (
        (
            hvw.cli._epr_text,
            epr,
            {"escape_sd": PropertyVerdict(holds=False, witness=witness)},
            ["  strong determinism: holds"],
            ["  strong determinism: fails", f"    {witness.describe()}"],
        ),
        (
            hvw.cli._bell_text,
            bell,
            {"escape": dataclasses.replace(bell.escape, oi=PropertyVerdict(holds=True))},
            ["  outcome independence: fails", f"    {bell.escape.oi.witness.describe()}"],
            ["  outcome independence: holds"],
        ),
        (
            hvw.cli._ks_text,
            verify_ks(),
            {"coloring_count": 1},
            ["coloring search: 0 valid colorings among 262144 winner patterns"],
            ["coloring search: 1 valid colorings among 262144 winner patterns"],
        ),
    ):
        *body, conclusion, end = render(report).split("\n")
        assert (conclusion.startswith("no-go confirmed: "), end) == (True, "")
        k = body.index(old[0])
        assert body[k : k + len(old)] == old
        unconfirmed = dataclasses.replace(report, **change)
        assert not unconfirmed.confirmed
        expected = [*body[:k], *new, *body[k + len(old) :], "no-go NOT confirmed", ""]
        assert render(unconfirmed).split("\n") == expected


@pytest.fixture
def failing_files(tmp_path):
    """A hidden-variable model that fails single-valuedness, and two random
    models of one shape that are not equivalent."""
    models = {
        "escape.hvm": epr_escape_hvm(),
        "r1.em": generate_random_model(1, grid_sites(2, 2, 2)),
        "r2.em": generate_random_model(2, grid_sites(2, 2, 2)),
    }
    for name, model in models.items():
        save_model(model, str(tmp_path / name))
    return [str(tmp_path / name) for name in models]


def test_nogo_json_renders_no_text(cli, monkeypatch, epr_file, failing_files):
    """No JSON run renders text: every text renderer of `hvw.cli` refuses."""
    import hvw.cli

    escape, left, right = failing_files

    def refuse(*args, **kwargs):
        raise AssertionError("text rendered for JSON output")

    for name in ("_epr_text", "_bell_text", "_ks_text", "_verdict_lines", "_classification_text", "serialize_model"):
        monkeypatch.setattr(hvw.cli, name, refuse)
    for argument in ("epr", "bell", "ks"):
        code, out, err = cli("nogo", argument, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["report"]["confirmed"] is True
    for args, code, key in [
        (("check", epr_file, "--property", "non-contextuality"), 0, "verdict"),
        (("check", escape, "--property", "single-valuedness"), 1, "verdict"),
        (("equiv", epr_file, epr_file), 0, "verdict"),
        (("equiv", left, right), 1, "verdict"),
        (("classify", "--sample", epr_file), 0, "report"),
        (("construct", epr_file, "--method", "e2"), 0, "model"),
    ]:
        status, out, err = cli(*args, "--format", "json")
        assert (status, err) == (code, "")
        assert key in json.loads(out)


def test_text_runs_encode_nothing(cli, monkeypatch, tmp_path, epr_file, failing_files):
    """No run that prints text builds a JSON form (canon and random print
    their model file under --format json too): the codec's encoder, `to_dict`
    and `model_to_dict` refuse, and every subcommand still prints."""
    import hvw.cli
    import hvw.codec
    import hvw.modelio

    escape, left, right = failing_files

    def refuse(*args, **kwargs):
        raise AssertionError("JSON built for text output")

    monkeypatch.setattr(hvw.cli, "_encode", refuse)
    monkeypatch.setattr(hvw.codec.Codec, "to_dict", refuse)
    monkeypatch.setattr(hvw.modelio, "model_to_dict", refuse)
    for args, code in [
        (("check", escape, "--property", "single-valuedness"), 1),
        (("equiv", left, right), 1),
        (("equiv", epr_file, epr_file), 0),
        (("construct", epr_file, "--method", "e1"), 0),
        (("construct", epr_file, "--method", "e1", "--out", str(tmp_path / "e1.hvm")), 0),
        (("nogo", "epr"), 1),
        (("nogo", "bell"), 1),
        (("nogo", "ks"), 1),
        (("classify", "--sample", epr_file), 0),
        (("canon", "epr-escape"), 0),
        (("canon", "bell", "--format", "json"), 0),
        (("random", "--seed", "3", "--hidden", "2"), 0),
    ]:
        status, out, err = cli(*args)
        assert (status, err) == (code, "")
        assert out


# ---------------------------------------------------------------------------
# classify


def test_classify_text(cli):
    code, out, _ = cli("classify")
    assert code == 0
    region_lines = [line for line in out.splitlines() if line.startswith("  {")]
    assert len(region_lines) == 21
    assert "achievable: 11, impossible: 10" in out
    assert "11 achievable and 10 impossible" in out


def test_classify_with_sample_shows_live_checks(cli, epr_file):
    code, out, _ = cli("classify", "--sample", epr_file)
    assert code == 0
    assert "checked on sample via e1: every region property holds, completion equivalent" in out
    assert "FAILS" not in out
    assert "NOT equivalent" not in out


def test_classify_json_round_trips(cli, epr_file):
    code, out, _ = cli("classify", "--sample", epr_file, "--format", "json")
    assert code == 0
    report = ClassificationReport.from_dict(json.loads(out)["report"])
    assert report == classify_all(sample=epr_model())


# ---------------------------------------------------------------------------
# random


def test_random_requires_seed(cli):
    code, _, err = cli("random")
    assert code == 2
    assert "requires --seed" in err


def test_seed_is_only_accepted_by_random(cli):
    code, _, err = cli("nogo", "epr", "--seed", "1")
    assert code == 2
    assert "--seed" in err


def test_random_is_deterministic(cli):
    code1, out1, _ = cli("random", "--seed", "9")
    code2, out2, _ = cli("random", "--seed", "9")
    code3, out3, _ = cli("random", "--seed", "10")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


def test_random_hidden_and_shape(cli):
    code, out, _ = cli(
        "random", "--seed", "4", "--sites", "1", "--measurements", "3", "--outcomes", "3",
        "--hidden", "2",
    )
    assert code == 0
    model = parse_model(out)
    assert isinstance(model, HiddenVariableModel)
    assert model.n_sites == 1
    assert model.sites[0].measurements == ("M1", "M2", "M3")
    assert len(model.lambda_set) == 2


def test_random_out_writes_file(cli, tmp_path):
    target = tmp_path / "rand.em"
    code, _, _ = cli("random", "--seed", "1", "--out", str(target))
    assert code == 0
    assert load_model(str(target)).n_sites == 2


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("construct", "{model}", "--method", "e1"), id="construct"),
        pytest.param(("construct", "{model}", "--method", "e1", "--format", "json"), id="construct-json"),
        pytest.param(("canon", "bell"), id="canon"),
        pytest.param(("canon", "bell", "--format", "json"), id="canon-json"),
        pytest.param(("random", "--seed", "1"), id="random"),
    ],
)
def test_out_in_a_missing_directory_exits_two_before_any_output(cli, tmp_path, epr_file, args):
    target = tmp_path / "missing" / "out.em"
    code, out, err = cli(*(arg.format(model=epr_file) for arg in args), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# Guard resolution


def test_env_guard_is_respected(cli, monkeypatch):
    monkeypatch.setenv("HVW_GUARD", "10")
    code, _, err = cli("nogo", "bell", "--method", "polytope")
    assert code == 2
    assert "error:" in err


def test_guard_flag_overrides_env(cli, monkeypatch):
    monkeypatch.setenv("HVW_GUARD", "10")
    code, _, _ = cli("nogo", "bell", "--method", "polytope", "--guard", "1000000")
    assert code == 1


def test_bad_env_guard_reports_cleanly(cli, monkeypatch):
    monkeypatch.setenv("HVW_GUARD", "banana")
    code, _, err = cli("nogo", "bell")
    assert code == 2
    assert "HVW_GUARD must be an integer" in err


def test_negative_guard_flag_is_usage_error(cli):
    code, _, err = cli("nogo", "bell", "--guard", "-5")
    assert code == 2
    assert err.endswith("hvw nogo: error: argument --guard: must be positive, got -5\n")
    code, _, err = cli("nogo", "bell", "--guard", "-" + "9" * 4000)
    assert code == 2
    assert err.endswith("hvw nogo: error: argument --guard: must be positive, got an int of 13288 bits\n")


@pytest.mark.parametrize("command", ("check", "equiv", "canon"))
def test_guard_is_rejected_where_nothing_is_enumerated(cli, epr_file, command):
    args = {
        "check": ("check", epr_file, "--property", "non-contextuality"),
        "equiv": ("equiv", epr_file, epr_file),
        "canon": ("canon", "epr"),
    }[command]
    assert cli(*args)[0] == 0
    code, out, err = cli(*args, "--guard", "5")
    assert code == 2
    assert out == ""
    assert "--guard" in err


def test_guard_is_accepted_by_the_enumerating_subcommands(cli, epr_file):
    assert cli("construct", epr_file, "--method", "e1", "--guard", "5")[0] == 0
    assert cli("nogo", "epr", "--guard", "5")[0] == 1
    assert cli("classify", "--guard", "1000000")[0] == 0
    assert cli("random", "--seed", "1", "--guard", "1000000")[0] == 0
    code, _, err = cli("construct", epr_file, "--method", "e1", "--guard", "1")
    assert code == 2
    assert "over the guard of 1" in err


# ---------------------------------------------------------------------------
# A 200,000-character token in any position, ASCII or four UTF-8 bytes a
# character


@pytest.mark.parametrize(
    "args, env",
    [
        pytest.param(("{huge}",), None, id="subcommand"),
        pytest.param(("check", "m.em", "--property", "{huge}"), None, id="check--property"),
        pytest.param(("check", "m.em", "--property", "locality", "--format", "{huge}"), None, id="--format"),
        pytest.param(("construct", "m.em", "--method", "{huge}"), None, id="construct--method"),
        pytest.param(("nogo", "{huge}"), None, id="nogo-argument"),
        pytest.param(("canon", "{huge}"), None, id="canon-name"),
        pytest.param(("nogo", "epr", "--guard", "{huge}"), None, id="--guard"),
        pytest.param(("random", "--seed", "{huge}"), None, id="--seed"),
        pytest.param(("random", "--seed", "1", "--sites", "{huge}"), None, id="--sites"),
        pytest.param(("random", "--seed", "1", "--measurements", "{huge}"), None, id="--measurements"),
        pytest.param(("random", "--seed", "1", "--outcomes", "{huge}"), None, id="--outcomes"),
        pytest.param(("random", "--seed", "1", "--hidden", "{huge}"), None, id="--hidden"),
        pytest.param(("random", "--seed", "1", "--guard", "9" * 200_000), None, id="--guard-digits"),
        pytest.param(("nogo", "bell", "--method", "{huge}"), None, id="bell--method"),
        pytest.param(("nogo", "ks", "--method", "{huge}"), None, id="ks--method"),
        pytest.param(("nogo", "epr"), "{huge}", id="HVW_GUARD"),
        pytest.param(("canon", "{wide}"), None, id="canon-name-emoji"),
        pytest.param(("nogo", "bell", "--method", "{wide}"), None, id="bell--method-emoji"),
        pytest.param(("check", "{huge}", "--property", "locality"), None, id="check-model-path"),
        pytest.param(("equiv", "{huge}", "m.em"), None, id="equiv-left-path"),
        pytest.param(("equiv", "m.em", "{huge}"), None, id="equiv-right-path"),
        pytest.param(("classify", "--sample", "{huge}"), None, id="classify--sample-path"),
        pytest.param(("canon", "bell", "--out", "{huge}"), None, id="canon--out-path"),
        pytest.param(("construct", "m.em", "--method", "e1", "--out", "{huge}"), None, id="construct--out-path"),
        pytest.param(("random", "--seed", "1", "--out", "{huge}"), None, id="random--out-path"),
        pytest.param(("check", "{wide}", "--property", "locality"), None, id="check-model-path-emoji"),
        pytest.param(("equiv", "{wide}", "m.em"), None, id="equiv-left-path-emoji"),
        pytest.param(("equiv", "m.em", "{wide}"), None, id="equiv-right-path-emoji"),
        pytest.param(("classify", "--sample", "{wide}"), None, id="classify--sample-path-emoji"),
        pytest.param(("canon", "bell", "--out", "{wide}"), None, id="canon--out-path-emoji"),
        pytest.param(("construct", "m.em", "--method", "e1", "--out", "{wide}"), None, id="construct--out-path-emoji"),
        pytest.param(("random", "--seed", "1", "--out", "{wide}"), None, id="random--out-path-emoji"),
    ],
)
def test_a_huge_token_exits_two_in_short_lines(cli, monkeypatch, tmp_path, args, env):
    """A bad token, or a file path too long to open, is echoed in part."""
    monkeypatch.chdir(tmp_path)
    save_model(epr_model(), "m.em")
    tokens = {"huge": "x" * 200_000, "wide": "\N{GRINNING FACE}" * 200_000}
    if env is not None:
        monkeypatch.setenv("HVW_GUARD", env.format(**tokens))
    code, out, err = cli(*(arg.format(**tokens) for arg in args))
    assert (code, out) == (2, "")
    assert "error: " in err.splitlines()[-1]
    assert max(len(line.encode()) for line in err.splitlines()) < 400


def test_show_text_bounds_utf8_bytes_and_keeps_ascii_as_it_was():
    from hvw.errors import show_text

    assert show_text("x" * 100) == "x" * 100
    assert show_text("x" * 101) == "x" * 100 + "..."
    assert show_text("\N{GRINNING FACE}" * 25) == "\N{GRINNING FACE}" * 25
    assert show_text("\N{GRINNING FACE}" * 26) == "\N{GRINNING FACE}" * 25 + "..."
    assert show_text("ab" + "\N{GRINNING FACE}" * 30, 8) == "ab\N{GRINNING FACE}..."
    assert show_text("\udcff" * 20, 15) == "\\udcff\\udcff\\ud..."


# ---------------------------------------------------------------------------
# Harness behavior


def test_missing_subcommand_is_usage_error(cli):
    code, _, _ = cli()
    assert code == 2


def test_unknown_subcommand_is_usage_error(cli):
    code, _, _ = cli("frobnicate")
    assert code == 2


def test_help_exits_zero(cli):
    code, out, _ = cli("--help")
    assert code == 0
    assert "usage" in out


def test_main_entry_raises_system_exit(capsys):
    from hvw.cli import main_entry

    import sys

    old_argv = sys.argv
    sys.argv = ["hvw", "canon", "epr"]
    try:
        with pytest.raises(SystemExit) as exc:
            main_entry()
        assert exc.value.code == 0
    finally:
        sys.argv = old_argv
    capsys.readouterr()
