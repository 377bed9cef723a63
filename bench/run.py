"""Run the benchmark and print every metric by name with its unit.

    python3 bench/run.py [--workload W]... [--seed S] [--seconds T]
                         [--scale X] [--trace [0|1]] [--out FILE]

Every workload (all five unless ``--workload`` names some) runs in a
fresh ``worker.py`` process.  An untraced run prints the end-to-end
metrics; ``--trace`` makes a separate run that prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
with several workloads each metric name is prefixed by its workload.
``--out`` writes the full report, which ``compare.py`` reads.

Exit status: 0 when every output matched the oracle, 1 when a check
failed or a worker died, 2 when the program under test (``src/repro``)
is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("update_uniform", "hotspot_burst", "scan_mixed",
             "durable_commit", "cluster_rpc")
#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 20
#: A worker that outlives this is killed and counted as failed.
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """One workload in a fresh interpreter; its JSON result, or None."""
    command = [
        sys.executable, str(BENCH / "worker.py"), workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(args.trace),
    ]
    # A fixed hash seed gives every worker the same string hashes, and
    # so the same layout of every namespace and attribute dict.  With a
    # random one the ten-seed spread of the timings was a quarter to a
    # third wider (bench/README.md).
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: worker exited with status {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def show(workload: str, result: Dict[str, Any]) -> None:
    """Print one workload's metrics, one per line, with units."""
    for name, metric in result["metrics"].items():
        print(f"{workload:15} {name:42} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in sorted(result["exact"].items()):
        if name not in result["metrics"]:
            print(f"{workload:15} {name:42} {value:>16.6g} (exact)")
    for name, value in sorted(result["diagnostics"].items()):
        print(f"{workload:15} {name:42} {value:>16.6g} (diagnostic)")
    for problem in result["problems"]:
        print(f"{workload:15} FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Dense-sequential-file benchmark: five workloads, "
                    "end-to-end or per-layer metrics.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed window per workload (at least three rounds)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the commands per round")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead")
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        result = run_worker(name, args)
        if result is None:
            return 1
        results[name] = result
        show(name, result)
    if args.out:
        report = {
            "schema": "bench-report/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": bool(args.trace),
            "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
