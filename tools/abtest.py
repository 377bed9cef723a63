"""A/B-test two revisions on one workload of the repository benchmark.

Usage:
    python tools/abtest.py BASE [CHANGE] --workload W --pairs N [--seed S]

``BASE`` is a git revision; it is exported with ``git archive`` into a
temporary directory (no worktree, no network).  ``CHANGE`` is a git
revision exported the same way, or a directory holding a checkout; it
defaults to this working tree.  The tool runs ``N`` pairs of
``python3 bench/run.py --workload W --seed S --out FILE``, one in each
tree, alternating which side goes first.

It prints, for every end-to-end metric of ``BENCHMARK.json``, the base
median, the base interquartile range, the change median, the change in
percent and how many pairs the change won, then whether the exact
counts (``accesses_per_cmd``, ``max_accesses_per_cmd``,
``write_bytes_per_cmd``) were identical across every run.

Exit status: 0 when every run succeeded and the exact counts agree,
1 when a run failed or the exact counts differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXACT = ("accesses_per_cmd", "max_accesses_per_cmd", "write_bytes_per_cmd")


@dataclass
class Row:
    """One end-to-end metric over all pairs."""

    name: str
    better: str
    base_median: float
    base_iqr: float
    change_median: float
    delta_pct: float
    wins: int


def iqr(values: Sequence[float]) -> float:
    """Upper minus lower quartile (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return upper - lower


def summarize(
    base: List[Dict[str, Any]], change: List[Dict[str, Any]],
    metrics: List[Dict[str, Any]],
) -> List[Row]:
    """One row per metric; ``base[i]`` and ``change[i]`` are pair ``i``'s
    results for one workload (a ``bench/run.py`` report's workload entry).
    """
    rows = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        old = [result["metrics"][name]["value"] for result in base]
        new = [result["metrics"][name]["value"] for result in change]
        sign = 1 if better == "higher" else -1
        base_median = statistics.median(old)
        change_median = statistics.median(new)
        rows.append(Row(
            name=name,
            better=better,
            base_median=base_median,
            base_iqr=iqr(old),
            change_median=change_median,
            delta_pct=100.0 * (change_median - base_median) / base_median
            if base_median else 0.0,
            wins=sum(sign * (n - o) > 0 for o, n in zip(old, new)),
        ))
    return rows


def exact_identical(results: List[Dict[str, Any]]) -> bool:
    """Whether every run reported the same exact counts."""
    return len({tuple(r["exact"][name] for name in EXACT) for r in results}) == 1


def render(rows: List[Row], pairs: int, identical: bool) -> str:
    lines = [
        f"{'metric':22} {'better':6} {'base median':>13} {'base IQR':>11} "
        f"{'change median':>13} {'delta':>8} {'wins':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row.name:22} {row.better:6} {row.base_median:13.6g} "
            f"{row.base_iqr:11.4g} {row.change_median:13.6g} "
            f"{row.delta_pct:+7.1f}% {row.wins:>3}/{pairs}"
        )
    lines.append(
        f"exact counts ({', '.join(EXACT)}): "
        + ("identical" if identical else "DIFFER")
    )
    return "\n".join(lines)


def export(revision: str, dest: str) -> str:
    """Extract ``revision`` of this repository into ``dest``; returns it."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", revision],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    # The "data" filter (where this Python has it) refuses members that
    # would land outside ``dest``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    return dest


def run_once(tree: str, workload: str, seed: int, out: str) -> Optional[Dict[str, Any]]:
    """One ``bench/run.py`` run in ``tree``; its workload result, or None."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--out", out],
        cwd=tree, stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0 or not os.path.exists(out):
        print(f"abtest: bench/run.py failed in {tree} (status {done.returncode})",
              file=sys.stderr)
        return None
    with open(out) as handle:
        result = json.load(handle)["workloads"][workload]
    if result["failed"]:
        print(f"abtest: {result['failed']} commands failed in {tree}",
              file=sys.stderr)
        return None
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating A/B pairs of bench/run.py on one workload.")
    parser.add_argument("base", help="git revision of the base")
    parser.add_argument("change", nargs="?", default=ROOT,
                        help="git revision or directory (default: this tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="abtest-") as scratch:
        trees = {"base": export(args.base, os.path.join(scratch, "base"))}
        trees["change"] = (
            args.change if os.path.isdir(args.change)
            else export(args.change, os.path.join(scratch, "change"))
        )
        results: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                out = os.path.join(scratch, f"{side}-{pair}.json")
                result = run_once(trees[side], args.workload, args.seed, out)
                if result is None:
                    return 1
                results[side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {side:6} ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.6g}",
                      file=sys.stderr)
    identical = exact_identical(results["base"] + results["change"])
    rows = summarize(results["base"], results["change"], metrics)
    print(f"abtest {args.workload}: {args.pairs} pairs, seed {args.seed}, "
          f"base {args.base} vs change {args.change}")
    print(render(rows, args.pairs, identical))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
