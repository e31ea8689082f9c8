"""Byte-for-byte golden output of every subcommand, in both formats.

Each case runs `hvw.cli.main` in process from a scratch working directory
that holds a fixed set of model files under relative names, and compares the
exit code, stdout and stderr with the recording under `tests/golden/`. A
refactor that changes any byte of any report fails here. The `help` cases pin
argparse's help text; the harness sets `COLUMNS=80` so that it wraps the same
way on every terminal.

Recorded outputs live in `tests/golden/<case>.stdout`; outputs too large to
keep readable are stored as `<case>.stdout.sha256` instead. Exit codes and
stderr live in `tests/golden/index.json`. To record again after a deliberate
output change, run `PYTHONPATH=src python tests/test_golden.py` from the
repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hvw import bell_model, epr_escape_hvm, epr_model, generate_random_model, grid_sites, save_model
from hvw.cli import main

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
