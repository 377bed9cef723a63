"""The wall-clock benchmark harness: schema, matrix, regression gate.

Runs use quick sizes throughout — the point here is that the harness
produces valid, complete reports and that the gate trips on an injected
regression, not the absolute numbers.
"""

import copy
import io
import json
import os
import subprocess
import sys

import pytest

from repro import DensityParams, benchmark
from repro.cli import main

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "bench.py")


@pytest.fixture(scope="module")
def quick_report():
    return benchmark.run_bench(
        backends=("memory", "buffered"), quick=True, ops=300
    )


def _inflate(report, factor=10.0):
    """A fake 'faster past' baseline every fresh run regresses against."""
    doctored = copy.deepcopy(report)
    for cell in doctored["results"]:
        cell["ops_per_sec"] *= factor
    return doctored


class TestReportSchema:
    def test_quick_report_validates(self, quick_report):
        assert benchmark.validate_report(quick_report) == []

    def test_full_matrix_present(self, quick_report):
        cells = {
            (cell["scenario"], cell["backend"])
            for cell in quick_report["results"]
        }
        scenarios = {scenario for scenario, _ in cells}
        backends = {backend for _, backend in cells}
        assert scenarios == set(benchmark.SCENARIOS)
        assert len(scenarios) >= 4
        assert backends == {"memory", "buffered"}
        assert len(cells) == len(scenarios) * len(backends)

    def test_cells_carry_required_metrics(self, quick_report):
        for cell in quick_report["results"]:
            assert cell["ops_per_sec"] > 0
            assert cell["page_accesses"] > 0
            assert cell["latency_p99_us"] >= cell["latency_p50_us"] >= 0
            assert isinstance(cell["counters"], dict)

    def test_logical_accesses_backend_invariant(self, quick_report):
        """The paper's meter must not depend on the physical stack."""
        by_scenario = {}
        for cell in quick_report["results"]:
            by_scenario.setdefault(cell["scenario"], set()).add(
                cell["page_accesses"]
            )
        for scenario, meters in by_scenario.items():
            assert len(meters) == 1, scenario

    def test_stream_scan_includes_btree_baseline(self, quick_report):
        scans = [
            cell
            for cell in quick_report["results"]
            if cell["scenario"] == "stream_scan"
        ]
        assert scans
        for cell in scans:
            assert "baseline" in cell["extra"]

    def test_mixed_cells_report_the_worst_command(self, quick_report):
        worst = set()
        for cell in quick_report["results"]:
            if cell["scenario"] != "mixed":
                assert "max_accesses_per_command" not in cell
                continue
            value = cell["max_accesses_per_command"]
            assert isinstance(value, int)
            # A command costs at least its locate and its write, never
            # more than the whole cell.
            assert 3 <= value <= cell["page_accesses"]
            worst.add(value)
        # Deterministic, so every backend meters the same worst command.
        assert len(worst) == 1

    def test_worst_command_is_optional_but_numeric(self, quick_report):
        absent = copy.deepcopy(quick_report)
        for cell in absent["results"]:
            cell.pop("max_accesses_per_command", None)
        assert benchmark.validate_report(absent) == []
        wrong = copy.deepcopy(quick_report)
        mixed = next(
            cell for cell in wrong["results"] if cell["scenario"] == "mixed"
        )
        mixed["max_accesses_per_command"] = "many"
        assert any(
            "max_accesses_per_command" in problem
            for problem in benchmark.validate_report(wrong)
        )

    def test_local_mixed_cells_carry_the_theorem_bound(self, quick_report):
        for cell in quick_report["results"]:
            if cell["scenario"] != "mixed":
                assert "worst_case_bound" not in cell
                continue
            bound = DensityParams(**quick_report["geometry"]).worst_case_bound
            assert cell["worst_case_bound"] == bound
            assert cell["max_accesses_per_command"] <= bound

    def test_validator_rejects_a_worst_command_above_the_bound(
        self, quick_report
    ):
        doctored = copy.deepcopy(quick_report)
        mixed = next(
            cell for cell in doctored["results"] if cell["scenario"] == "mixed"
        )
        mixed["max_accesses_per_command"] = mixed["worst_case_bound"] + 1
        problems = benchmark.validate_report(doctored)
        assert len(problems) == 1
        assert "exceeds the Theorem 5.5 bound" in problems[0]

    def test_validator_rejects_broken_reports(self, quick_report):
        assert benchmark.validate_report({}) != []
        missing = copy.deepcopy(quick_report)
        del missing["results"][0]["ops_per_sec"]
        assert benchmark.validate_report(missing) != []
        wrong_schema = copy.deepcopy(quick_report)
        wrong_schema["schema"] = "other/9"
        assert benchmark.validate_report(wrong_schema) != []



#: Each cluster cell at ops=600, seed 0:
#: (ops, page_accesses, max_accesses_per_command, latency_source,
#: latency_samples).  Loopback TCP has no retries, so all are exact.
CLUSTER_CELLS = {
    "bulk_load": (600, 2236, None, "per_chunk_mean", 10),
    "insert_burst": (300, 1236, None, "per_chunk_mean", 5),
    "mixed": (300, 897, 3, "per_op", 300),
    "stream_scan": (12000, 26, None, "per_chunk_mean", 20),
}


class TestClusterCell:
    @pytest.mark.parametrize("scenario", sorted(CLUSTER_CELLS))
    def test_cell_reads_the_meter_without_shard_locks(
        self, monkeypatch, scenario
    ):
        from repro.concurrent.file import ThreadSafeDenseFile

        locked_reads = []
        wrapped = ThreadSafeDenseFile.stats

        def counting(front):
            locked_reads.append(1)
            return wrapped.fget(front)

        monkeypatch.setattr(ThreadSafeDenseFile, "stats", property(counting))
        report = benchmark.run_bench(
            scenarios=(scenario,), backends=("cluster",), ops=600
        )
        cell = report["results"][0]
        assert locked_reads == []
        assert (
            cell["ops"],
            cell["page_accesses"],
            cell.get("max_accesses_per_command"),
            cell["latency_source"],
            cell["latency_samples"],
        ) == CLUSTER_CELLS[scenario]
        assert sorted(cell["counters"]) == [
            "client_retries", "dedup_replays", "errors", "num_shards",
            "requests",
        ]
        assert cell["counters"]["client_retries"] == 0
        assert cell["extra"] == {}

    def test_profile_covers_the_server_thread(self):
        report, table = benchmark.run_bench_profiled(
            profile_top=1000, scenarios=("mixed",), backends=("cluster",),
            ops=200,
        )
        assert report["results"][0]["page_accesses"] == 297
        assert "(handle_frame)" in table
        assert "(_serve_connection)" in table


class TestRegressionGate:
    def test_self_comparison_is_clean(self, quick_report):
        assert benchmark.compare_reports(quick_report, quick_report) == []

    def test_injected_regression_detected(self, quick_report):
        regressions = benchmark.compare_reports(
            _inflate(quick_report), quick_report
        )
        assert regressions

    def test_access_regression_detected(self, quick_report):
        doctored = copy.deepcopy(quick_report)
        doctored["results"][0]["page_accesses"] = int(
            doctored["results"][0]["page_accesses"] / 1.5
        )
        regressions = benchmark.compare_reports(doctored, quick_report)
        assert any("page accesses" in line for line in regressions)

    def test_worst_command_growth_flagged_exactly(self, quick_report):
        grown = copy.deepcopy(quick_report)
        mixed = next(
            cell for cell in grown["results"] if cell["scenario"] == "mixed"
        )
        mixed["max_accesses_per_command"] += 1
        regressions = benchmark.compare_reports(quick_report, grown)
        assert len(regressions) == 1
        assert "worst command" in regressions[0]
        # A smaller worst command, or a baseline without the field, is
        # not a regression.
        assert benchmark.compare_reports(grown, quick_report) == []
        legacy = copy.deepcopy(quick_report)
        for cell in legacy["results"]:
            cell.pop("max_accesses_per_command", None)
        assert benchmark.compare_reports(legacy, grown) == []

    def test_threshold_is_respected(self, quick_report):
        mild = _inflate(quick_report, factor=1.05)
        assert (
            benchmark.compare_reports(mild, quick_report, max_regression=50.0)
            == []
        )


class TestCli:
    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_bench_writes_report(self, tmp_path):
        out_path = str(tmp_path / "bench.json")
        code, output = self._run(
            "bench", "--quick", "--ops", "300", "--out", out_path,
            "--scenario", "bulk_load", "--scenario", "insert_burst",
        )
        assert code == 0
        with open(out_path) as handle:
            report = json.load(handle)
        assert benchmark.validate_report(report) == []
        assert "bulk_load" in output

    def test_bench_baseline_gate_exits_nonzero(self, tmp_path, quick_report):
        baseline_path = str(tmp_path / "inflated.json")
        with open(baseline_path, "w") as handle:
            json.dump(_inflate(quick_report), handle)
        code, output = self._run(
            "bench", "--quick", "--ops", "300", "--out", "-",
            "--scenario", "bulk_load", "--baseline", baseline_path,
        )
        assert code == 4
        assert "REGRESSION" in output

    def test_bench_clean_baseline_passes(self, tmp_path, quick_report):
        baseline_path = str(tmp_path / "self.json")
        with open(baseline_path, "w") as handle:
            json.dump(quick_report, handle)
        code, output = self._run(
            "bench", "--quick", "--ops", "300", "--out", "-",
            "--baseline", baseline_path, "--max-regression", "95",
        )
        assert code == 0
        assert "no regression" in output


class TestStandaloneTool:
    def _tool(self, *argv):
        return subprocess.run(
            [sys.executable, TOOL, *argv],
            capture_output=True,
            text=True,
        )

    def test_validate_mode(self, tmp_path, quick_report):
        report_path = str(tmp_path / "report.json")
        with open(report_path, "w") as handle:
            json.dump(quick_report, handle)
        result = self._tool("--validate", report_path)
        assert result.returncode == 0, result.stdout + result.stderr

        with open(report_path, "w") as handle:
            json.dump({"schema": "nope"}, handle)
        assert self._tool("--validate", report_path).returncode == 1

    def test_compare_mode_flags_regression(self, tmp_path, quick_report):
        old = str(tmp_path / "old.json")
        new = str(tmp_path / "new.json")
        with open(old, "w") as handle:
            json.dump(_inflate(quick_report), handle)
        with open(new, "w") as handle:
            json.dump(quick_report, handle)
        result = self._tool("--compare", old, new)
        assert result.returncode == 4
        assert "REGRESSION" in result.stdout
        assert self._tool("--compare", new, new).returncode == 0
