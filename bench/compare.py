"""Compare two benchmark reports against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASELINE.json CANDIDATE.json

Both files are ``run.py --out`` reports.  For every workload of the
baseline and every end-to-end metric, the candidate is marked:

``ok``
    no worse than the baseline by more than the metric's bound;
``regressed``
    worse by more than the bound; for the exact counts, worse at all
    when both reports ran the same inputs (seed, seconds and scale);
``unresolved``
    worse by more than the bound, but the baseline's two halves (its
    even and its odd rounds, measured independently) differ by more
    than the bound, so a move of that size cannot be told from noise;
    unless both candidate halves beat both baseline halves.

A pair in :data:`UNGATED` is shown as ``diagnostic`` and never judged.
``write_bytes_per_cmd`` is judged only on the same inputs, where it is
exact.  ``latency_p99_us`` and the unscaled ``ops_per_s_unscaled`` are
shown as diagnostics and never judged.  ``failed_frac`` must be 0 in
the candidate, and a workload missing from the candidate counts as
regressed.  One row per workload.  The last line is ``regressed``,
``unresolved`` or ``no regression``, and the exit status is 1, 3 or 0
accordingly (2 for a usage error).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Counts fixed by the inputs and the code; any change is a real change.
EXACT = ("accesses_per_cmd", "max_accesses_per_cmd", "write_bytes_per_cmd")

#: An exact count a report carries outside ``metrics`` (it is 0 on the
#: in-memory workloads, so BENCHMARK.json cannot gate it).  It has no
#: bound across inputs, so it is judged only on the same inputs.
SAME_INPUTS_ONLY = {"name": "write_bytes_per_cmd", "better": "lower"}

#: Workload x metric pairs whose ten-seed spread (interquartile range
#: over median) exceeds their bound on a 2-vCPU VM.  ``durable_commit``
#: waits on fsync for half its time, which no scaling steadies, so it is
#: not a workload of BENCHMARK.json; bench/README.md has every spread.
#: Shown, never judged.
UNGATED = {
    ("durable_commit", "ops_per_s"),
    ("durable_commit", "latency_p50_us"),
}

#: Reported beside the gated metrics, never judged.
DIAGNOSTICS = ({"name": "latency_p99_us", "better": "lower"},
               {"name": "ops_per_s_unscaled", "better": "higher"})


def value(report: Dict[str, Any], name: str) -> float:
    for section in ("metrics", "exact", "diagnostics"):
        if name in report[section]:
            found = report[section][name]
            return found["value"] if section == "metrics" else found
    raise KeyError(name)


def spread(values: List[float]) -> float:
    """Range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def change(better: str, old: float, new: float) -> float:
    """Signed relative change; positive is worse."""
    sign = 1 if better == "lower" else -1
    return sign * (new - old) / old if old else sign * new


def judge(metric: Dict[str, Any], base: Dict[str, Any], cand: Dict[str, Any],
          same_inputs: bool) -> Tuple[str, float]:
    """``(verdict, change)`` for one metric of one workload."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    worse = change(better, value(base, name), value(cand, name))
    if name in EXACT and same_inputs:
        return ("ok" if worse <= 0 else "regressed"), worse
    if worse <= bound:
        return "ok", worse
    old_halves = base.get("halves", {}).get(name, [])
    new_halves = cand.get("halves", {}).get(name, [])
    if spread(old_halves) > bound:
        sign = 1 if better == "lower" else -1
        if new_halves and max(sign * v for v in new_halves) < min(
            sign * v for v in old_halves
        ):
            return "ok", worse
        return "unresolved", worse
    return "regressed", worse


def compare(base: Dict[str, Any], cand: Dict[str, Any],
            bench: Dict[str, Any]) -> Tuple[List[str], str]:
    """Rendered rows and the overall verdict: ``regressed``,
    ``unresolved`` or ``no regression``."""
    same_inputs = all(base[key] == cand[key] for key in ("seed", "seconds", "scale"))
    metrics = bench["end_to_end"]
    header = (["workload"] + [m["name"] for m in metrics]
              + [SAME_INPUTS_ONLY["name"], "failed_frac"]
              + [f"{m['name']} (diagnostic)" for m in DIAGNOSTICS])
    rows = [header]
    verdicts = set()
    for workload, old in base["workloads"].items():
        new: Optional[Dict[str, Any]] = cand["workloads"].get(workload)
        if new is None:
            verdicts.add("regressed")
            rows.append([workload, "regressed: missing from the candidate"]
                        + [""] * (len(header) - 2))
            continue
        row = [workload]
        for metric in metrics:
            verdict, worse = judge(metric, old, new, same_inputs)
            if (workload, metric["name"]) in UNGATED:
                verdict = "diagnostic"
            verdicts.add(verdict)
            row.append(f"{verdict} {worse * 100:+.1f}%")
        if same_inputs:
            verdict, worse = judge(dict(SAME_INPUTS_ONLY, bound=0.0), old, new, True)
            verdicts.add(verdict)
            row.append(f"{verdict} {worse * 100:+.1f}%")
        else:
            row.append("n/a (other inputs)")
        failed = new["diagnostics"]["failed_frac"]
        verdicts.add("ok" if failed == 0 else "regressed")
        row.append("ok" if failed == 0 else f"regressed {failed:.3g}")
        for metric in DIAGNOSTICS:
            name = metric["name"]
            worse = change(metric["better"], value(old, name), value(new, name))
            row.append(f"{worse * 100:+.1f}%")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    rendered = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                for row in rows]
    for overall in ("regressed", "unresolved"):
        if overall in verdicts:
            return rendered, overall
    return rendered, "no regression"


EXIT = {"no regression": 0, "regressed": 1, "unresolved": 3}


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path) as handle:
            reports.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    rows, overall = compare(reports[0], reports[1], bench)
    print("\n".join(rows))
    print(overall)
    return EXIT[overall]


if __name__ == "__main__":
    sys.exit(main())
