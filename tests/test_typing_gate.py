"""The strict-typing ratchet stays ratcheted.

``storage/`` and ``concurrent/`` are the strict packages (see
``[tool.mypy]`` in pyproject.toml); the AST gate in tools/typecheck.py
enforces annotation completeness there without needing mypy installed.
When mypy *is* available (the CI lint job installs it), the full
checker runs too.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
TOOLS = os.path.join(REPO, "tools")

sys.path.insert(0, TOOLS)
import typecheck  # noqa: E402

sys.path.remove(TOOLS)


def test_strict_packages_are_fully_annotated():
    problems = typecheck.ast_gate()
    assert problems == [], "\n".join(problems)


def test_ast_gate_catches_missing_annotations(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "bad.py").write_text(
        "def incomplete(x) -> int:\n    return x\n"
        "def no_return(y: int):\n    return y\n"
    )
    problems = typecheck.ast_gate(packages=("pkg",), repo=str(tmp_path))
    assert len(problems) == 2
    assert "missing annotations for x" in problems[0]
    assert "missing a return annotation" in problems[1]
    # A single module on the ratchet is checked as its own entry.
    single = typecheck.ast_gate(packages=("pkg/bad.py",), repo=str(tmp_path))
    assert single == problems


def test_single_module_entries_are_on_the_disk():
    for entry in typecheck.STRICT_PACKAGES:
        assert os.path.exists(os.path.join(REPO, entry)), entry


def test_typecheck_cli_is_clean_in_ast_mode():
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "typecheck.py"), "--ast-only"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "AST gate clean" in result.stdout


@pytest.mark.skipif(
    not typecheck.mypy_available(), reason="mypy not installed here; CI runs it"
)
def test_mypy_passes_the_configured_strictness():
    assert typecheck.run_mypy() == 0
