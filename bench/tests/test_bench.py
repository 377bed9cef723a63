"""Tests of the benchmark itself (outside the tier-1 suite).

    python -m pytest bench/tests

Every run here uses ``--scale 0.02`` and ``--seconds 0`` (four short
rounds per workload), so the whole file takes under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
OUT = BENCH / "out" / "tests"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

WORKLOADS = ["update_uniform", "hotspot_burst", "scan_mixed",
             "durable_commit", "cluster_rpc"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The layer each workload is built to load, with the layers it must enter.
HEAVY = {
    "update_uniform": ["core", "storage.pagefile", "storage.disk",
                       "storage.backend"],
    "hotspot_burst": ["core", "storage.bufferpool", "storage.codec",
                      "storage.ondisk"],
    "scan_mixed": ["storage.pagefile", "storage.bufferpool"],
    "durable_commit": ["persistent", "storage.codec", "storage.ondisk",
                       "storage.wal"],
    "cluster_rpc": ["cluster.client", "cluster.wire", "cluster.transport",
                    "cluster.server", "concurrent"],
}


def run(name: str, *args: str) -> dict:
    """``run.py`` at smoke scale; returns the report it wrote."""
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "0.02",
         "--seconds", "0", "--out", str(out), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke() -> dict:
    start = time.perf_counter()
    report = run("smoke-seed0")
    report["wall_s"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def traced() -> dict:
    return run("trace-seed0", "--trace")


def test_smoke_run_reports_every_metric(smoke):
    assert smoke["wall_s"] < 60
    assert sorted(smoke["workloads"]) == sorted(WORKLOADS)
    for result in smoke["workloads"].values():
        assert result["correct"] and result["diagnostics"]["failed_frac"] == 0
        for metric in SPEC["end_to_end"]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0


def test_spec_names_match_the_runner():
    # durable_commit runs by default but is not gated: its timings
    # follow the VM's fsync, not the program (bench/README.md).
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in WORKLOADS if name != "durable_commit"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    sys.path.insert(0, str(ROOT / "src"))
    import run as runner
    import worker

    assert list(runner.WORKLOADS) == WORKLOADS
    assert runner.DEFAULT_SECONDS == SPEC["run_seconds"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == worker.END_TO_END
    # Timing bounds are 10%; set-up time's is the largest.
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["ops_per_s"] == bounds["latency_p50_us"] == 0.1
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == worker.per_layer_units()


def test_exact_counters_repeat_under_a_seed_and_move_with_it(smoke):
    chosen = ["--workload", "hotspot_burst", "--workload", "scan_mixed"]
    again = run("smoke-seed0-again", *chosen)
    other = run("smoke-seed1", "--seed", "1", *chosen)
    for name in ("hotspot_burst", "scan_mixed"):
        assert again["workloads"][name]["exact"] == smoke["workloads"][name]["exact"]
        assert other["workloads"][name]["exact"] != smoke["workloads"][name]["exact"]


def test_tracing_changes_no_counter(smoke, traced):
    # A traced run replays round 0 of the untraced run.
    for name, result in traced["workloads"].items():
        assert result["exact"] == smoke["workloads"][name]["exact_by_round"][0]


def test_trace_reports_every_layer(traced):
    names = {m["name"] for m in SPEC["per_layer"]}
    for workload, result in traced["workloads"].items():
        assert set(result["metrics"]) == names
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["harness.self_s"] > 0
        for layer in HEAVY[workload]:
            assert metrics[f"{layer}.calls"] > 0, (workload, layer)
            assert metrics[f"{layer}.self_s"] > 0, (workload, layer)
    trace_file = BENCH / "out" / "durable_commit.trace.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {e["name"].split(".")[0] for e in events} >= {"persistent", "storage"}


def steady_copy(report: dict) -> dict:
    """A deep copy whose halves agree, so a drop is resolved, not noise."""
    steady = json.loads(json.dumps(report))
    for result in steady["workloads"].values():
        for name, halves in result["halves"].items():
            value = result["metrics"][name]["value"]
            halves[:] = [value, value]
    return steady


def test_compare_flags_a_throughput_drop(smoke):
    rows, overall = compare.compare(smoke, smoke, SPEC)
    assert overall == "no regression"
    assert all("regressed" not in row for row in rows)
    steady = steady_copy(smoke)
    doctored = json.loads(json.dumps(steady))
    result = doctored["workloads"]["update_uniform"]
    value = result["metrics"]["ops_per_s"]["value"]
    result["metrics"]["ops_per_s"]["value"] = value * 0.8
    result["halves"]["ops_per_s"] = [value * 0.8, value * 0.8]
    rows, overall = compare.compare(steady, doctored, SPEC)
    assert overall == "regressed"
    flagged = [row for row in rows if "regressed" in row]
    assert len(flagged) == 1 and flagged[0].startswith("update_uniform")
    assert "regressed +20.0%" in flagged[0]


def test_compare_judges_exact_counts_only_on_the_same_inputs(smoke):
    grown = json.loads(json.dumps(smoke))
    exact = grown["workloads"]["durable_commit"]["exact"]
    exact["write_bytes_per_cmd"] *= 1.01
    _, overall = compare.compare(smoke, grown, SPEC)
    assert overall == "regressed"
    # Another --seconds is another set of rounds, so other inputs.
    grown["seconds"] = smoke["seconds"] + 1
    rows, overall = compare.compare(smoke, grown, SPEC)
    assert overall == "no regression"
    assert "n/a (other inputs)" in rows[1]


def test_compare_reports_a_missing_workload_and_noise(smoke):
    partial = json.loads(json.dumps(smoke))
    del partial["workloads"]["cluster_rpc"]
    rows, overall = compare.compare(smoke, partial, SPEC)
    assert overall == "regressed"
    assert any(row.startswith("cluster_rpc") and "missing" in row for row in rows)
    # A drop past the bound, from a baseline whose halves disagree by
    # more than the bound, cannot be told from noise.
    noisy = steady_copy(smoke)
    result = noisy["workloads"]["cluster_rpc"]
    value = result["metrics"]["ops_per_s"]["value"]
    result["halves"]["ops_per_s"] = [value * 0.85, value * 1.15]
    slower = json.loads(json.dumps(noisy))
    slower["workloads"]["cluster_rpc"]["metrics"]["ops_per_s"]["value"] = value * 0.8
    _, overall = compare.compare(noisy, slower, SPEC)
    assert overall == "unresolved"
    # An ungated pair is shown, never judged.
    slower = json.loads(json.dumps(noisy))
    result = slower["workloads"]["durable_commit"]
    result["metrics"]["ops_per_s"]["value"] *= 0.5
    rows, overall = compare.compare(noisy, slower, SPEC)
    assert overall == "no regression"
    assert "diagnostic +50.0%" in next(r for r in rows if r.startswith("durable_commit"))
