"""``tools/{stress,chaos,soak,bench}.py`` are forwards to ``repro <cmd>``.

Each tool must stay a thin spelling of its CLI command: no parser of its
own, nothing imported from the package but ``repro.cli.main``, and the
same exit code and output as ``python -m repro <cmd>`` for the same
argv.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")
FIXTURE = os.path.join(REPO, "benchmarks", "fixtures", "ci_baseline_quick.json")

#: One quick argv per tool; wall-clock soak counters differ run to run,
#: so its output is compared with every number masked.
CASES = {
    "stress": ["--ops", "40", "--threads", "2", "--iterations", "2"],
    "chaos": ["--ops", "12", "--profile", "clean", "--iterations", "1"],
    "soak": ["--seconds", "0.3", "--seed", "3", "--crash-every", "40"],
    "bench": ["--validate", FIXTURE],
}


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )
    return result.returncode, re.sub(r"\d+(\.\d+)?", "N", result.stdout)


@pytest.mark.parametrize("command", sorted(CASES))
def test_forward_matches_cli_command(command, tmp_path):
    tool = os.path.join(REPO, "tools", f"{command}.py")
    argv = CASES[command]
    via_tool = _run([tool, *argv], tmp_path)
    via_cli = _run(["-m", "repro", command, *argv], tmp_path)
    assert via_tool == via_cli
    assert via_tool[0] == 0, via_tool[1]


@pytest.mark.parametrize("command", sorted(CASES))
def test_forward_has_no_parser_of_its_own(command):
    with open(os.path.join(REPO, "tools", f"{command}.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(
                f"{node.module}.{alias.name}" for alias in node.names
            )
    assert "argparse" not in imported
    assert {name for name in imported if name.startswith("repro")} == {
        "repro.cli.main"
    }
