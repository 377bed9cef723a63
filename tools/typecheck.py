"""The typing gate: mypy when available, an AST fallback always.

CI installs mypy and runs it against ``pyproject.toml``'s ``[tool.mypy]``
config (strict on ``storage/``, ``concurrent/``, ``cluster/``,
``replication/`` and ``obs.py``, base strictness everywhere else — the
ratchet).  Development containers without mypy
still get a meaningful gate: the AST pass below enforces the part of
strict mode that needs no type inference — ``disallow_untyped_defs`` /
``disallow_incomplete_defs`` — by walking every function signature in
the strict packages and failing on any missing parameter or return
annotation.

Usage::

    python tools/typecheck.py            # mypy if importable, else AST gate
    python tools/typecheck.py --ast-only # force the fallback (what CI
                                         # asserts stays clean pre-mypy)

Exit codes: 0 clean, 1 findings, 2 bad usage.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from typing import Iterator, List, Tuple

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

#: Packages and single modules held to strict typing (mirrors
#: [tool.mypy] overrides).
STRICT_PACKAGES = (
    "src/repro/storage",
    "src/repro/concurrent",
    "src/repro/cluster",
    "src/repro/replication",
    "src/repro/obs.py",
)


def iter_functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def incomplete_signature(fn) -> Tuple[List[str], bool]:
    """``(missing_params, missing_return)`` for one function node."""
    args = fn.args
    missing = [
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
        if arg.arg not in ("self", "cls") and arg.annotation is None
    ]
    for arg in (args.vararg, args.kwarg):
        if arg is not None and arg.annotation is None:
            missing.append("*" + arg.arg)
    missing_return = fn.returns is None and fn.name != "__init__"
    return missing, missing_return


def iter_sources(root: str) -> Iterator[str]:
    """``root`` itself when it is a file, else every ``.py`` under it."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def ast_gate(packages=STRICT_PACKAGES, repo: str = REPO) -> List[str]:
    """Annotation-completeness findings for the strict packages."""
    problems = []
    for package in packages:
        for path in iter_sources(os.path.join(repo, package)):
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for fn in iter_functions(tree):
                missing, missing_return = incomplete_signature(fn)
                rel = os.path.relpath(path, repo)
                if missing:
                    problems.append(
                        f"{rel}:{fn.lineno}: {fn.name} is missing "
                        f"annotations for {', '.join(missing)}"
                    )
                if missing_return:
                    problems.append(
                        f"{rel}:{fn.lineno}: {fn.name} is missing a "
                        "return annotation"
                    )
    return problems


def mypy_available() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


def run_mypy() -> int:
    """Run mypy over the package using pyproject's [tool.mypy] config."""
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        os.path.join(REPO, "pyproject.toml"),
        os.path.join(REPO, "src", "repro"),
    ]
    return subprocess.call(command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ast-only",
        action="store_true",
        help="skip mypy even when importable; run only the AST gate",
    )
    args = parser.parse_args(argv)

    problems = ast_gate()
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"{len(problems)} incomplete signature(s) in strict packages "
            f"({', '.join(STRICT_PACKAGES)})"
        )
        return 1
    print(
        "AST gate clean: every signature in "
        f"{', '.join(STRICT_PACKAGES)} is fully annotated"
    )
    if args.ast_only:
        return 0
    if not mypy_available():
        print("mypy not installed; AST gate stands in (CI runs full mypy)")
        return 0
    return run_mypy()


if __name__ == "__main__":
    sys.exit(main())
