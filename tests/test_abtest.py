"""The A/B tool's summary, on synthetic ``bench/run.py`` results."""

import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
ROOT = os.path.join(os.path.dirname(__file__), "..")

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.1},
    {"name": "latency_p50_us", "better": "lower", "bound": 0.1},
]


@pytest.fixture(scope="module")
def abtest():
    sys.path.insert(0, TOOLS)
    try:
        import abtest as module
    finally:
        sys.path.remove(TOOLS)
    return module


def result(ops, p50, accesses=21.5, worst=35, write_bytes=362.0):
    return {
        "metrics": {
            "ops_per_s": {"unit": "cmd/s", "value": ops},
            "latency_p50_us": {"unit": "us", "value": p50},
        },
        "exact": {
            "accesses_per_cmd": accesses,
            "max_accesses_per_cmd": worst,
            "write_bytes_per_cmd": write_bytes,
        },
        "failed": 0,
    }


def test_medians_iqr_delta_and_wins(abtest):
    base = [result(100, 90), result(110, 80), result(90, 100), result(120, 70),
            result(105, 85)]
    change = [result(115, 80), result(108, 81), result(104, 86),
              result(130, 60), result(112, 79)]
    ops, p50 = abtest.summarize(base, change, METRICS)
    assert (ops.base_median, ops.change_median) == (105, 112)
    # Inclusive quartiles of 90, 100, 105, 110, 120: 100 and 110.
    assert ops.base_iqr == 10
    assert ops.delta_pct == pytest.approx(100 * 7 / 105)
    # Higher is better: pair 2 (108 < 110) is the one loss.
    assert ops.wins == 4
    assert (p50.base_median, p50.change_median) == (85, 80)
    assert p50.base_iqr == 10
    # Lower is better: pair 2 (81 > 80) is the one loss.
    assert p50.wins == 4


def test_ties_are_not_wins(abtest):
    rows = abtest.summarize([result(100, 90)], [result(100, 90)], METRICS)
    assert [row.wins for row in rows] == [0, 0]
    assert [row.base_iqr for row in rows] == [0.0, 0.0]
    assert [row.delta_pct for row in rows] == [0.0, 0.0]


@pytest.mark.parametrize("field", ["accesses", "worst", "write_bytes"])
def test_exact_counts_must_agree_across_every_run(abtest, field):
    runs = [result(100, 90), result(101, 91), result(99, 89)]
    assert abtest.exact_identical(runs)
    assert not abtest.exact_identical(runs + [result(100, 90, **{field: 1})])


def test_render_names_every_metric_and_the_exact_verdict(abtest):
    rows = abtest.summarize([result(100, 90)] * 2, [result(110, 80)] * 2,
                            METRICS)
    text = abtest.render(rows, 2, identical=True)
    assert "ops_per_s" in text and "latency_p50_us" in text
    assert "+10.0%" in text and "2/2" in text
    assert text.endswith("identical")
    assert abtest.render(rows, 2, identical=False).endswith("DIFFER")


def test_export_writes_a_runnable_tree(abtest, tmp_path):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")
    tree = abtest.export("HEAD", str(tmp_path / "head"))
    assert os.path.isfile(os.path.join(tree, "bench", "run.py"))
    assert os.path.isfile(os.path.join(tree, "src", "repro", "__init__.py"))


def claim_rows(abtest, base_ops, change_ops):
    base = [result(ops, 90) for ops in base_ops]
    change = [result(ops, 90) for ops in change_ops]
    ops, _ = abtest.summarize(base, change, METRICS)
    return ops


def test_gain_needs_all_wins_but_one_and_a_margin_over_the_base_iqr(abtest):
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    # Nine wins of ten, median 110 against 100 with a base IQR of 1.5.
    change = [110, 111, 109, 112, 108, 110, 110, 111, 109, 99]
    assert abtest.gain(claim_rows(abtest, base, change), 10, identical=True)
    # The same figures with differing exact counts are no gain.
    assert not abtest.gain(claim_rows(abtest, base, change), 10,
                           identical=False)


def test_two_losses_are_no_gain(abtest):
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    change = [110, 111, 109, 112, 108, 110, 110, 111, 99, 99]
    row = claim_rows(abtest, base, change)
    assert row.wins == 8
    assert not abtest.gain(row, 10, identical=True)


def test_a_median_inside_the_base_iqr_is_no_gain(abtest):
    base = [90, 110, 95, 105, 100, 92, 108, 96, 104, 100]
    change = [value + 2 for value in base]  # wins every pair by 2
    row = claim_rows(abtest, base, change)
    assert row.wins == 10 and row.base_iqr > 2
    assert not abtest.gain(row, 10, identical=True)


def test_lower_is_better_metrics_gain_by_falling(abtest):
    base = [result(100, p50) for p50 in (90, 91, 89, 90, 90)]
    change = [result(100, p50) for p50 in (60, 61, 59, 60, 60)]
    _, p50 = abtest.summarize(base, change, METRICS)
    assert abtest.gain(p50, 5, identical=True)
    _, worse = abtest.summarize(change, base, METRICS)
    assert not abtest.gain(worse, 5, identical=True)


def test_claim_must_name_an_end_to_end_metric(abtest, capsys):
    with pytest.raises(SystemExit) as exit_info:
        abtest.main(["HEAD", "--workload", "update_uniform", "--claim", "nope"])
    assert exit_info.value.code == 2
    assert "not an end-to-end metric" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --cell: one cell of ``repro bench``
# ----------------------------------------------------------------------


def bench_report(ops_per_sec, page_accesses=1024, scenario="stream_scan",
                 backend="buffered"):
    """A synthetic ``repro bench`` report holding one cell beside another."""
    other = {"scenario": "mixed", "backend": backend, "ops_per_sec": 1.0,
             "page_accesses": 7}
    return {
        "schema": "repro-bench/1",
        "results": [other, {
            "scenario": scenario, "backend": backend,
            "ops_per_sec": ops_per_sec, "page_accesses": page_accesses,
        }],
    }


def cells(abtest, values, **kwargs):
    return [abtest.cell_result(bench_report(value, **kwargs), "stream_scan",
                               "buffered") for value in values]


def test_cell_result_picks_the_named_cell(abtest):
    cell = abtest.cell_result(bench_report(2.5e6, 512), "stream_scan",
                              "buffered")
    assert cell["metrics"] == {"ops_per_sec": {"value": 2.5e6}}
    assert cell["exact"] == {"page_accesses": 512}


def test_cell_summary_and_claim(abtest):
    base = cells(abtest, [100, 102, 98, 101, 99, 100, 103, 97, 100, 100])
    change = cells(abtest, [110, 111, 109, 112, 108, 110, 110, 111, 109, 99])
    [row] = abtest.summarize(base, change, abtest.CELL_METRICS)
    assert row.name == "ops_per_sec" and row.wins == 9
    identical = abtest.exact_identical(base + change, abtest.CELL_EXACT)
    assert identical and abtest.gain(row, 10, identical)
    text = abtest.render([row], 10, identical, abtest.CELL_EXACT)
    assert "ops_per_sec" in text and "9/10" in text
    assert text.endswith("exact counts (page_accesses): identical")


def test_cell_page_accesses_must_agree(abtest):
    runs = cells(abtest, [100, 101]) + cells(abtest, [99], page_accesses=1025)
    assert not abtest.exact_identical(runs, abtest.CELL_EXACT)
    assert abtest.render([], 1, False, abtest.CELL_EXACT).endswith("DIFFER")


@pytest.mark.parametrize("argv, message", [
    (["--cell", "stream_scan"], "SCENARIO/BACKEND"),
    (["--cell", "/buffered"], "SCENARIO/BACKEND"),
    (["--cell", "stream_scan/buffered", "--claim", "ops_per_s"],
     "not a cell metric"),
    (["--cell", "stream_scan/buffered", "--workload", "scan_mixed"],
     "not allowed with"),
])
def test_cell_arguments_are_checked(abtest, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        abtest.main(["HEAD"] + argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_run_cell_pins_its_child_to_one_cpu(abtest, tmp_path):
    """``run_cell`` on a stand-in tree whose ``repro`` writes a report
    naming the CPUs the child may use."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import json, os, sys\n"
        "args = sys.argv[1:]\n"
        "value = lambda flag: args[args.index(flag) + 1]\n"
        "cell = {'scenario': value('--scenario'),\n"
        "        'backend': value('--bench-backend'),\n"
        "        'ops_per_sec': float(value('--seed')),\n"
        "        'page_accesses': len(os.sched_getaffinity(0))}\n"
        "with open(value('--out'), 'w') as handle:\n"
        "    json.dump({'results': [cell]}, handle)\n"
    )
    out = str(tmp_path / "cell.json")
    cell = abtest.run_cell(str(tmp_path), "stream_scan", "buffered", 3, out)
    assert cell["metrics"]["ops_per_sec"]["value"] == 3.0
    assert cell["exact"]["page_accesses"] == 1


def test_a_failing_cell_run_is_none(abtest, tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("raise SystemExit(1)\n")
    out = str(tmp_path / "cell.json")
    assert abtest.run_cell(str(tmp_path), "mixed", "memory", 0, out) is None
