"""A/B-test two revisions on one workload of the repository benchmark,
or on one cell of ``repro bench``.

Usage:
    python tools/abtest.py BASE [CHANGE] --workload W --pairs N [--seed S]
                           [--claim METRIC]
    python tools/abtest.py BASE [CHANGE] --cell SCENARIO/BACKEND --pairs N
                           [--seed S] [--claim ops_per_sec]

``BASE`` is a git revision; it is exported with ``git archive`` into a
temporary directory (no worktree, no network).  ``CHANGE`` is a git
revision exported the same way, or a directory holding a checkout; it
defaults to this working tree.  The tool runs ``N`` pairs, one run in
each tree, alternating which side goes first.

``--workload W`` runs ``python3 bench/run.py --workload W --seed S
--out FILE`` and prints, for every end-to-end metric of
``BENCHMARK.json``, the base median, the base interquartile range, the
change median, the change in percent and how many pairs the change won,
then whether the exact counts (``accesses_per_cmd``,
``max_accesses_per_cmd``, ``write_bytes_per_cmd``) were identical
across every run.

``--cell SCENARIO/BACKEND`` runs one in-process cell of the package's
own matrix, ``python -m repro bench --scenario SCENARIO --bench-backend
BACKEND --seed S --out FILE`` with the tree's ``src`` on
``PYTHONPATH``, each run in a child process pinned to one CPU.  It
prints the same summary for the cell's ``ops_per_sec``, and its exact
count is the cell's ``page_accesses``.

``--claim METRIC`` adds a verdict line for one of the metrics printed:
``gain`` when the change won every pair but at most one, its median
beats the base median by more than the base interquartile range, and
the exact counts are identical; ``no gain`` otherwise.

Exit status: 0 when every run succeeded, the exact counts agree and a
claimed gain held; 1 otherwise.
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
#: ``--cell`` mode: the timed metric of a ``repro bench`` cell and its
#: exact count.
CELL_METRICS = [{"name": "ops_per_sec", "better": "higher"}]
CELL_EXACT = ("page_accesses",)


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


def exact_identical(
    results: List[Dict[str, Any]], exact: Sequence[str] = EXACT
) -> bool:
    """Whether every run reported the same exact counts."""
    return len({tuple(r["exact"][name] for name in exact) for r in results}) == 1


def gain(row: Row, pairs: int, identical: bool) -> bool:
    """Whether ``row`` shows a gain: the change wins all pairs but at
    most one, and its median beats the base median by more than the
    base IQR, with identical exact counts."""
    sign = 1 if row.better == "higher" else -1
    margin = sign * (row.change_median - row.base_median)
    return identical and row.wins >= pairs - 1 and margin > row.base_iqr


def render(
    rows: List[Row], pairs: int, identical: bool, exact: Sequence[str] = EXACT
) -> str:
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
        f"exact counts ({', '.join(exact)}): "
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


def cell_result(report: Dict[str, Any], scenario: str, backend: str) -> Dict[str, Any]:
    """A ``repro bench`` report's cell in the shape :func:`summarize` and
    :func:`exact_identical` read (``--cell`` mode's metric and count)."""
    cell = next(
        result for result in report["results"]
        if result["scenario"] == scenario and result["backend"] == backend
    )
    return {
        "metrics": {"ops_per_sec": {"value": cell["ops_per_sec"]}},
        "exact": {"page_accesses": cell["page_accesses"]},
    }


def pin_to_one_cpu() -> None:
    """Confine the calling process to the highest CPU it may run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_cell(
    tree: str, scenario: str, backend: str, seed: int, out: str
) -> Optional[Dict[str, Any]]:
    """One ``repro bench`` cell in ``tree``, pinned to one CPU; its
    :func:`cell_result`, or None."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--scenario", scenario,
         "--bench-backend", backend, "--seed", str(seed), "--out", out],
        cwd=tree, stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
        preexec_fn=pin_to_one_cpu,
    )
    if done.returncode != 0 or not os.path.exists(out):
        print(f"abtest: repro bench failed in {tree} (status {done.returncode})",
              file=sys.stderr)
        return None
    with open(out) as handle:
        return cell_result(json.load(handle), scenario, backend)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating A/B pairs of bench/run.py on one workload, "
        "or of repro bench on one cell.")
    parser.add_argument("base", help="git revision of the base")
    parser.add_argument("change", nargs="?", default=ROOT,
                        help="git revision or directory (default: this tree)")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--cell", metavar="SCENARIO/BACKEND",
                        help="one cell of repro bench, e.g. stream_scan/buffered")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", metavar="METRIC",
                        help="print whether this metric gained")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.cell:
        scenario, _, backend = args.cell.partition("/")
        if not scenario or not backend or "/" in backend:
            parser.error("--cell takes SCENARIO/BACKEND")
        label, metrics, exact, kind = args.cell, CELL_METRICS, CELL_EXACT, "a cell"
        headline = "ops_per_sec"

        def run(tree: str, out: str) -> Optional[Dict[str, Any]]:
            return run_cell(tree, scenario, backend, args.seed, out)
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            metrics = json.load(handle)["end_to_end"]
        label, exact, kind = args.workload, EXACT, "an end-to-end"
        headline = "ops_per_s"

        def run(tree: str, out: str) -> Optional[Dict[str, Any]]:
            return run_once(tree, args.workload, args.seed, out)
    if args.claim and args.claim not in [metric["name"] for metric in metrics]:
        parser.error(f"--claim {args.claim} is not {kind} metric")
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
                result = run(trees[side], out)
                if result is None:
                    return 1
                results[side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {side:6} {headline} "
                      f"{result['metrics'][headline]['value']:.6g}",
                      file=sys.stderr)
    identical = exact_identical(results["base"] + results["change"], exact)
    rows = summarize(results["base"], results["change"], metrics)
    print(f"abtest {label}: {args.pairs} pairs, seed {args.seed}, "
          f"base {args.base} vs change {args.change}")
    print(render(rows, args.pairs, identical, exact))
    if args.claim:
        row = next(row for row in rows if row.name == args.claim)
        held = gain(row, args.pairs, identical)
        print(f"claim {args.claim}: {'gain' if held else 'no gain'}")
        return 0 if held else 1
    return 0 if identical else 1

if __name__ == "__main__":
    sys.exit(main())
