"""Standalone entry point for the network chaos harness.

Usage:  python tools/chaos.py --seed 7 --ops 200
        python tools/chaos.py --profile kill-shard --ops 120
        python tools/chaos.py --seconds 30            # random-seed sweeps
        python tools/chaos.py --out chaos.json        # CI artifact

Thin wrapper over ``repro chaos`` (one implementation, two spellings);
``python -m repro chaos --help`` lists the flags.  Exit codes: 0 the
trichotomy held everywhere, 1 bad usage or unknown profile, 3 findings.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["chaos"] + sys.argv[1:]))
