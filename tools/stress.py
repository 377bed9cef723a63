"""Standalone entry point for the concurrency torture harness.

Usage:  python tools/stress.py --threads 8 --ops 400 --seed 7
        python tools/stress.py --stack faulty --fault-rate 0.1 --seconds 20
        python tools/stress.py --self-test [--sanitize]
        python tools/stress.py --replica-reads --ops 200 --seed 7

Thin wrapper over ``repro stress`` (one implementation, two spellings);
``python -m repro stress --help`` lists the flags.  Exit codes: 0 clean,
1 bad usage, 3 findings.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["stress"] + sys.argv[1:]))
