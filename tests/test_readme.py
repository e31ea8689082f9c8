"""The README's examples run as written.

Each `hvw ...` line of the "Command line" block runs in order through
`hvw.cli.main` from one scratch working directory, so later lines read the
files earlier lines wrote. Each must exit as the README's table says (1 for a
confirmed `nogo`, 0 otherwise) and write nothing to stderr. The "Python API"
block is then executed as it stands.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from hvw.cli import main

README = Path(__file__).parent.parent / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced `language` block under the `## section` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```$", body, re.MULTILINE | re.DOTALL)
    assert match is not None, f"no {language} block under {section!r}"
    return match.group(1)


def test_the_command_line_examples_exit_as_documented(tmp_path, monkeypatch):
    monkeypatch.delenv("HVW_GUARD", raising=False)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _block("Command line", "sh").splitlines() if line.startswith("hvw ")]
    assert len(commands) == 9
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv[1:])
        assert (code, err.getvalue()) == (1 if argv[1] == "nogo" else 0, ""), argv


def test_the_python_api_example_runs():
    exec(compile(_block("Python API", "python"), str(README), "exec"), {})

