"""The package's public names: each resolves lazily to its module's current
object, importing one module loads only what it imports, and every module
reads each name it imports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hvw
import hvw.properties

SRC = Path(hvw.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("hvw", set()),
        ("hvw.models", {"hvw.errors", "hvw.codec", "hvw.models"}),
        ("hvw.linprog", {"hvw.errors", "hvw.codec", "hvw.linprog"}),
        ("hvw.local", {"hvw.errors", "hvw.codec", "hvw.models", "hvw.properties", "hvw.linprog", "hvw.local"}),
    ],
)
def test_an_import_loads_only_what_it_needs(module, loaded):
    code = f"import sys, {module}; print(' '.join(n for n in sys.modules if n.startswith('hvw.')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert set(result.stdout.split()) == loaded


def test_every_public_name_is_its_modules_current_object():
    assert len(hvw.__all__) == len(set(hvw.__all__)) == 95
    for name in hvw.__all__:
        module = sys.modules[hvw._MODULE_OF[name]]
        assert getattr(hvw, name) is getattr(module, name)
        assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__
    assert "check_locality" not in vars(hvw)


def test_every_module_level_import_is_used():
    """A name bound by a top-level import and never read would let a test
    patch it in the wrong module and still pass. Annotations are parsed as
    expressions, so a name read only in one counts. Re-exports are marked
    `# noqa: F401`."""
    unused = []
    for path in sorted((SRC / "hvw").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            unused += [f"{path.name}: {name}" for name in names if name not in read]
    assert unused == []


def test_a_patched_function_shows_through_the_package(monkeypatch):
    original = hvw.check_locality
    replacement = lambda model: None  # noqa: E731
    monkeypatch.setattr(hvw.properties, "check_locality", replacement)
    assert hvw.check_locality is replacement
    monkeypatch.undo()
    assert hvw.check_locality is original


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from hvw import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hvw.__all__)


def test_dir_lists_every_public_name():
    assert set(hvw.__all__) <= set(dir(hvw))
    assert "__version__" in dir(hvw)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hvw' has no attribute 'no_such_name'"):
        hvw.no_such_name
    assert not hasattr(hvw, "no_such_name")
    with pytest.raises(ImportError):
        from hvw import no_such_name  # noqa: F401


def _run_module(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_python_m_hvw_runs_the_command_line(tmp_path):
    result = _run_module("hvw", "nogo", "bell", cwd=tmp_path)
    golden = Path(__file__).parent / "golden" / "nogo-bell.text.stdout"
    assert (result.returncode, result.stderr) == (1, b"")
    assert result.stdout == golden.read_bytes()


def test_python_m_hvw_cli_runs_the_command_line(tmp_path):
    result = _run_module("hvw.cli", "canon", "bell", "--out", "f.em", cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hvw.load_model(tmp_path / "f.em") == hvw.bell_model()
