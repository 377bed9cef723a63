"""Standalone entry point for the repro AST linter.

Usage:  python tools/lint.py [paths...] [--format=json] [--fix]
        python tools/lint.py --list-rules

Thin wrapper over ``repro lint`` (one implementation, two spellings) so
CI and pre-commit hooks can run the linter without installing the
package.  Exit codes: 0 clean, 1 findings or bad usage.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["lint"] + sys.argv[1:]))
