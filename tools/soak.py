"""Standalone entry point for the replication SLO soak.

Usage:  python tools/soak.py --seconds 20 --seed 7 --out soak.json
        python tools/soak.py --seconds 300 --transport directory

Thin wrapper over ``repro soak`` (one implementation, two spellings);
``python -m repro soak --help`` lists the flags.  Exit codes: 0 clean,
1 bad usage, 3 findings.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["soak"] + sys.argv[1:]))
