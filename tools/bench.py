"""Standalone entry point for the wall-clock benchmark harness.

Usage:  python tools/bench.py --quick                      # CI smoke sizes
        python tools/bench.py --baseline BENCH_PR9.json    # run + gate
        python tools/bench.py --validate BENCH_PR9.json    # schema check
        python tools/bench.py --compare OLD.json NEW.json  # gate two reports
        python tools/bench.py --profile                    # hot functions

Thin wrapper over ``repro bench`` (one implementation, two spellings);
``python -m repro bench --help`` lists the flags.  Exit codes: 0 ok,
1 bad usage or an invalid report, 4 regression beyond the threshold.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["bench"] + sys.argv[1:]))
