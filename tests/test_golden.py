"""Byte-for-byte golden output of every subcommand, in both formats.

Each case runs `hvw.cli.main` in process from a scratch working directory
that holds a fixed set of model files under relative names, and compares the
exit code, stdout and stderr with the recording under `tests/golden/`. A
refactor that changes any byte of any report fails here. The `help` cases pin
argparse's help text; the harness sets `COLUMNS=80` so that it wraps the same
way on every terminal.

Recorded outputs live in `tests/golden/<case>.stdout`; outputs too large to
keep readable are stored as `<case>.stdout.sha256` instead. Exit codes and
stderr live in `tests/golden/index.json`. Every recorded JSON report also
reads back through its class's `from_dict` to the recorded bytes, with its
conclusions recomputed from its evidence rather than read. To record again after a deliberate
output change, run `PYTHONPATH=src python tests/test_golden.py` from the
repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hvw import bell_model, epr_escape_hvm, epr_model, generate_random_model, grid_sites, save_model
from hvw.classify import ClassificationReport, RegionVerdict
from hvw.cli import main
from hvw.codec import Codec, write_json
from hvw.nogo import (
    BellCertificate,
    BellEscapeReport,
    BellReport,
    CertificateEquation,
    EprReport,
    KsParityReport,
    KsReport,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
INDEX = GOLDEN_DIR / "index.json"

# The terminal width argparse wraps help text to.
HELP_COLUMNS = "80"

# Outputs above this size are pinned by digest rather than stored verbatim.
MAX_STORED_BYTES = 20_000

MALFORMED_MODEL = """{
  "sites": [{"name": "a", "measurements": ["A"], "outcomes": ["0", "1"]}],
  "weights": [{"outcomes": ["0"], "measurements": ["A"], "p": "1"}]
}
"""

COMMANDS: dict[str, list[str]] = {
    "canon-epr": ["canon", "epr"],
    "canon-bell": ["canon", "bell"],
    "canon-ks": ["canon", "ks"],
    "canon-epr-escape": ["canon", "epr-escape"],
    "nogo-epr": ["nogo", "epr"],
    "nogo-bell": ["nogo", "bell"],
    "nogo-ks": ["nogo", "ks"],
    "nogo-bell-certificate": ["nogo", "bell", "--method", "certificate"],
    "nogo-bell-polytope": ["nogo", "bell", "--method", "polytope"],
    "nogo-ks-coloring": ["nogo", "ks", "--method", "coloring"],
    "nogo-ks-parity": ["nogo", "ks", "--method", "parity"],
    "classify": ["classify"],
    "classify-sample": ["classify", "--sample", "random.em"],
    "check-oi": ["check", "hidden.hvm", "--property", "outcome-independence"],
    "check-li": ["check", "hidden.hvm", "--property", "lambda-independence"],
    "check-locality": ["check", "hidden.hvm", "--property", "locality"],
    "check-nc-bell": ["check", "bell.em", "--property", "non-contextuality"],
    "check-nc-random": ["check", "random.em", "--property", "non-contextuality"],
    "construct-e1": ["construct", "random.em", "--method", "e1"],
    "construct-e2": ["construct", "random.em", "--method", "e2"],
    "construct-sv": ["construct", "random.em", "--method", "sv"],
    "equiv-epr": ["equiv", "epr.em", "epr-escape.hvm"],
    "random": ["random", "--seed", "7", "--measurements", "3", "--hidden", "2"],
    "error-bell-method": ["nogo", "bell", "--method", "bogus"],
    "error-ks-method": ["nogo", "ks", "--method", "bogus"],
    "error-epr-method": ["nogo", "epr", "--method", "x"],
    "error-random-seed": ["random"],
    "error-malformed": ["check", "malformed.em", "--property", "locality"],
    "help": ["--help"],
    "help-check": ["check", "--help"],
    "help-construct": ["construct", "--help"],
    "help-equiv": ["equiv", "--help"],
    "help-nogo": ["nogo", "--help"],
    "help-classify": ["classify", "--help"],
    "help-canon": ["canon", "--help"],
    "help-random": ["random", "--help"],
}

CASES = [f"{name}.{fmt}" for name in COMMANDS for fmt in ("text", "json")]

# The JSON cases that print a report, and the report classes by `kind` tag.
REPORT_CASES = [f"{name}.json" for name in COMMANDS if name.startswith(("nogo", "classify"))]
REPORTS = {cls.kind: cls for cls in (EprReport, BellReport, KsReport, ClassificationReport)}

# Each derived key of a report: the case that records it, the path from the
# payload to the object that holds it, that object's class, and a value that
# contradicts the recorded evidence.
DERIVED_KEYS = [
    ("nogo-epr", ("report",), EprReport, "confirmed", False),
    ("nogo-bell", ("report",), BellReport, "confirmed", False),
    ("nogo-bell", ("report", "escape"), BellEscapeReport, "confirmed", False),
    ("nogo-bell", ("report", "certificate"), BellCertificate, "aggregate_atoms", [1, 2]),
    ("nogo-bell", ("report", "certificate"), BellCertificate, "atoms_counted_twice", False),
    ("nogo-bell", ("report", "certificate"), BellCertificate, "aggregate_value", "1/2"),
    ("nogo-bell", ("report", "certificate"), BellCertificate, "impossible", False),
    ("nogo-bell", ("report", "certificate", "equations", 0), CertificateEquation, "rhs", "99"),
    ("nogo-ks", ("report",), KsReport, "confirmed", False),
    ("nogo-ks", ("report", "parity"), KsParityReport, "all_counts_even", False),
    ("nogo-ks", ("report", "parity"), KsParityReport, "column_count_odd", False),
    ("nogo-ks", ("report", "parity"), KsParityReport, "verdict", "undecided"),
    ("classify", ("report",), ClassificationReport, "achievable_count", 21),
    ("classify", ("report",), ClassificationReport, "impossible_count", 0),
    ("classify", ("report",), ClassificationReport, "split_note", "all 21 regions are achievable"),
    ("classify", ("report", "regions", -1, "verdict"), RegionVerdict, "kernel_properties", ["SV"]),
]


def write_inputs(directory: Path) -> None:
    """The model files every case reads, under fixed relative names."""
    save_model(epr_model(), str(directory / "epr.em"))
    save_model(epr_escape_hvm(), str(directory / "epr-escape.hvm"))
    save_model(bell_model(), str(directory / "bell.em"))
    save_model(generate_random_model(11, grid_sites(2, 2, 2)), str(directory / "random.em"))
    save_model(
        generate_random_model(12, grid_sites(2, 2, 2), lambda_size=2),
        str(directory / "hidden.hvm"),
    )
    (directory / "malformed.em").write_text(MALFORMED_MODEL, encoding="utf-8")


def run_case(case: str) -> tuple[int, str, str]:
    name, fmt = case.rsplit(".", 1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[name] + ["--format", fmt])
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def index() -> dict:
    return json.loads(INDEX.read_text(encoding="utf-8"))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("HVW_GUARD", raising=False)
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_recording_covers_every_case(index):
    assert sorted(index) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case, index, workdir):
    code, stdout, stderr = run_case(case)
    assert code == index[case]["exit"]
    assert stderr == index[case]["stderr"]
    stored = GOLDEN_DIR / f"{case}.stdout"
    if stored.exists():
        assert stdout.encode("utf-8") == stored.read_bytes()
    else:
        digest = (GOLDEN_DIR / f"{case}.stdout.sha256").read_text(encoding="utf-8").strip()
        assert _digest(stdout) == digest


def test_the_one_parser_keeps_no_state_between_calls(index, workdir, monkeypatch):
    """`main` reuses one parser per process: a usage error, --help and a
    changed HVW_GUARD leave nothing behind, so every case, run afterwards in
    reverse order, still prints its recorded bytes."""
    from hvw.cli import build_parser

    assert build_parser() is build_parser()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["nogo", "frobnicate"]) == 2
        assert main(["--help"]) == 0
        monkeypatch.setenv("HVW_GUARD", "1")
        assert main(["nogo", "bell"]) == 2
    assert err.getvalue().endswith("over the guard of 1\n")
    monkeypatch.delenv("HVW_GUARD")
    for case in reversed(CASES):
        test_golden_output(case, index, workdir)


def test_the_shared_ks_model_prints_its_recorded_bytes(index, workdir):
    """`ks_model` is built once per process, and reusing it (its tables
    already built by an earlier command) still prints the recorded bytes."""
    from hvw import ks_model

    assert ks_model() is ks_model()
    for _ in range(2):
        for case in ("canon-ks.text", "canon-ks.json", "nogo-ks.text"):
            test_golden_output(case, index, workdir)


def test_the_shared_bell_model_prints_its_recorded_bytes(index, workdir):
    """`bell_model` is built once per process too, and the no-go routes
    that share it print the recorded bytes on every run."""
    from hvw import bell_model

    assert bell_model() is bell_model()
    for _ in range(2):
        for case in ("canon-bell.text", "canon-bell.json", "nogo-bell.text", "nogo-bell.json"):
            test_golden_output(case, index, workdir)


def _recorded_payload(case: str) -> tuple[str, dict]:
    text = (GOLDEN_DIR / f"{case}.stdout").read_text(encoding="utf-8")
    return text, json.loads(text)


def _decode(payload: dict):
    return REPORTS[payload["report"]["kind"]].from_dict(payload["report"])


def _at(node, path: tuple):
    """The item at `path` in a payload, or the attribute at its tail in a report."""
    for step in path:
        node = node[step] if isinstance(node, (dict, list, tuple)) else getattr(node, step)
    return node


def test_every_recorded_report_reads_back_to_its_bytes():
    for case in REPORT_CASES:
        text, payload = _recorded_payload(case)
        report = _decode(payload)
        assert write_json({**payload, "report": report.to_dict()}) + "\n" == text, case


def test_derived_keys_are_recomputed_not_read():
    """A report's conclusions are read-only properties of its evidence: the
    constructor refuses them, and `from_dict` recomputes them, so a payload
    whose conclusion is altered or missing reads back as recorded."""
    every = {(cls, key) for cls in Codec.__subclasses__() for key in cls.derived}
    assert sorted(every, key=str) == sorted(((cls, key) for _, _, cls, key, _ in DERIVED_KEYS), key=str)
    for case, path, cls, key, altered in DERIVED_KEYS:
        _, payload = _recorded_payload(f"{case}.json")
        recorded = _decode(payload)
        for edit in ("alter", "remove"):
            changed = json.loads(json.dumps(payload))
            if edit == "alter":
                _at(changed, path)[key] = altered
            else:
                del _at(changed, path)[key]
            report = _decode(changed)
            assert report == recorded, (cls, key, edit)
            assert report.to_dict() == payload["report"], (cls, key, edit)
        held = _at(recorded, path[1:])
        assert type(held) is cls and key in cls.derived, (cls, key)
        assert key not in {field.name for field in dataclasses.fields(cls)}, (cls, key)
        with pytest.raises(TypeError):
            dataclasses.replace(held, **{key: getattr(held, key)})


def record() -> None:
    """Run every case and overwrite the recording."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.glob("*.stdout*"):
        old.unlink()
    index = {}
    home = os.getcwd()
    os.environ.pop("HVW_GUARD", None)
    os.environ["COLUMNS"] = HELP_COLUMNS
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        os.chdir(scratch)
        try:
            for case in CASES:
                code, stdout, stderr = run_case(case)
                index[case] = {"exit": code, "stderr": stderr}
                data = stdout.encode("utf-8")
                if len(data) > MAX_STORED_BYTES:
                    (GOLDEN_DIR / f"{case}.stdout.sha256").write_text(_digest(stdout) + "\n")
                else:
                    (GOLDEN_DIR / f"{case}.stdout").write_bytes(data)
        finally:
            os.chdir(home)
    INDEX.write_text(json.dumps(index, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} cases in {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    record()
