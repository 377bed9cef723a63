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


# ----------------------------------------------------------------------
# repeated --workload and the bounds verdict
# ----------------------------------------------------------------------


def bounded_rows(abtest, base_ops, change_ops, base_p50, change_p50):
    base = [result(ops, p50) for ops, p50 in zip(base_ops, base_p50)]
    change = [result(ops, p50) for ops, p50 in zip(change_ops, change_p50)]
    return abtest.summarize(base, change, METRICS)


def test_rows_carry_their_bound(abtest):
    ops, p50 = bounded_rows(abtest, [100], [100], [90], [90])
    assert ops.bound == 0.1 and p50.bound == 0.1
    [row] = abtest.summarize([result(100, 90)], [result(100, 90)],
                             [{"name": "ops_per_s", "better": "higher"}])
    assert row.bound is None and not abtest.past_bound(row)


@pytest.mark.parametrize("change_ops, change_p50, breached", [
    ([95, 96, 94], [95, 96, 97], []),  # 5% slower, ~7% higher p50: within
    ([89, 89, 88], [90, 90, 90], ["ops_per_s"]),  # 11% fewer ops/s
    ([100, 100, 100], [100, 99, 101], ["latency_p50_us"]),  # p50 +11.1%
    ([120, 121, 119], [80, 81, 79], []),  # better on both
])
def test_past_bound_is_the_rejection_rule(abtest, change_ops, change_p50,
                                          breached):
    rows = bounded_rows(abtest, [100, 100, 100], change_ops, [90, 90, 90],
                        change_p50)
    assert [row.name for row in rows if abtest.past_bound(row)] == breached


def test_exactly_at_the_bound_is_within(abtest):
    ops, p50 = bounded_rows(abtest, [100], [90], [90], [99])
    assert not abtest.past_bound(ops) and not abtest.past_bound(p50)


def test_bounds_verdict_names_every_breach_by_workload(abtest):
    good = bounded_rows(abtest, [100] * 3, [101] * 3, [90] * 3, [89] * 3)
    slow = bounded_rows(abtest, [100] * 3, [80] * 3, [90] * 3, [90] * 3)
    assert abtest.bounds_verdict({"a": good, "b": good}) == "bounds: within"
    verdict = abtest.bounds_verdict({"a": good, "b": slow})
    assert verdict.startswith("bounds: EXCEEDED ")
    assert "b ops_per_s -20.0% (bound 10%)" in verdict
    assert "a " not in verdict


def report_tree(tmp_path, body):
    """A stand-in checkout whose ``bench/run.py`` runs ``body``."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "args = sys.argv[1:]\n"
        "names = [args[i + 1] for i, a in enumerate(args) if a == '--workload']\n"
        "out = args[args.index('--out') + 1]\n" + body
    )
    return str(tmp_path)


def test_run_once_runs_every_workload_in_one_report(abtest, tmp_path):
    tree = report_tree(tmp_path, (
        "report = {'workloads': {name: dict(ops=len(name), failed=0)\n"
        "                        for name in names + ['other']}}\n"
        "json.dump(report, open(out, 'w'))\n"
    ))
    found = abtest.run_once(tree, ["scan_mixed", "cluster_rpc"], 0,
                            str(tmp_path / "out.json"))
    assert found == {"scan_mixed": {"ops": 10, "failed": 0},
                     "cluster_rpc": {"ops": 11, "failed": 0}}


def test_run_once_fails_when_any_workload_failed(abtest, tmp_path):
    tree = report_tree(tmp_path, (
        "report = {'workloads': {name: dict(failed=int(name == 'b'))\n"
        "                        for name in names}}\n"
        "json.dump(report, open(out, 'w'))\n"
    ))
    assert abtest.run_once(tree, ["a"], 0, str(tmp_path / "a.json")) == {
        "a": {"failed": 0}
    }
    assert abtest.run_once(tree, ["a", "b"], 0, str(tmp_path / "b.json")) is None


def test_workload_is_repeatable(abtest, capsys):
    # Both workloads parse; the bad claim is what stops the run.
    with pytest.raises(SystemExit):
        abtest.main(["HEAD", "--workload", "scan_mixed", "--workload",
                     "cluster_rpc", "--claim", "nope"])
    assert "not an end-to-end metric" in capsys.readouterr().err


def measured_run(abtest, monkeypatch, tmp_path, change_ops, claim=True):
    """``abtest.main`` over synthetic runs, with ``--out``; returns the
    written report."""
    import json

    def every_metric(run):
        # The other end-to-end metrics of BENCHMARK.json, held still.
        for name in ("setup_s", "accesses_per_cmd", "max_accesses_per_cmd",
                     "peak_rss_mb"):
            run["metrics"][name] = {"value": 1.0}
        return run

    base_runs = iter([every_metric(run) for run in
                      (result(100, 90), result(101, 91), result(99, 92))])
    change_runs = iter([every_metric(run) for run in change_ops])
    monkeypatch.setattr(abtest, "export", lambda revision, dest: dest)

    def fake_run_once(tree, workloads, seed, out):
        side = "base" if tree.endswith("base") else "change"
        found = next(base_runs) if side == "base" else next(change_runs)
        return {workloads[0]: found}

    monkeypatch.setattr(abtest, "run_once", fake_run_once)
    out = tmp_path / "measurement.json"
    argv = ["HEAD", "HEAD", "--workload", "cluster_rpc", "--pairs", "3",
            "--seed", "4", "--out", str(out)]
    if claim:
        argv += ["--claim", "ops_per_s"]
    abtest.main(argv)
    return json.loads(out.read_text())


def test_out_writes_a_measurement_block_that_validates(abtest, monkeypatch,
                                                       tmp_path, capsys):
    from repro.benchmark import MEASUREMENT_SCHEMA, validate_report

    report = measured_run(abtest, monkeypatch, tmp_path, [
        result(110, 80), result(112, 79), result(111, 81),
    ])
    block = report["measurement"]
    assert block["schema"] == MEASUREMENT_SCHEMA == abtest.MEASUREMENT_SCHEMA
    assert block["command"] == (
        "python3 tools/abtest.py HEAD HEAD --workload cluster_rpc "
        "--pairs 3 --seed 4 --claim ops_per_s"
    )
    assert len(block["base"]) == 40 and block["change"] == block["base"]
    assert (block["seed"], block["pairs"]) == (4, 3)
    workload = block["workloads"]["cluster_rpc"]
    ops = workload["metrics"]["ops_per_s"]
    assert ops["base"] == [100, 101, 99] and ops["change"] == [110, 112, 111]
    assert (ops["base_median"], ops["change_median"], ops["wins"]) == (100, 111, 3)
    assert ops["bound"] == 0.1
    assert workload["exact"] == {"identical": True, "values": {
        "accesses_per_cmd": 21.5, "max_accesses_per_cmd": 35,
        "write_bytes_per_cmd": 362.0,
    }}
    assert workload["claim"] == "gain" and block["claim"] == "ops_per_s"
    assert block["bounds"] == "bounds: within"
    assert validate_report(report) == []
    assert "claim ops_per_s: gain" in capsys.readouterr().out


@pytest.mark.parametrize("doctor, problem", [
    (lambda b, w: w["metrics"]["ops_per_s"].update(change_median=130), "change_median"),
    (lambda b, w: w["metrics"]["ops_per_s"].update(wins=1), "wins"),
    (lambda b, w: w["metrics"]["ops_per_s"].update(base_iqr=0.5), "base_iqr"),
    (lambda b, w: w["metrics"]["ops_per_s"]["base"].pop(), "3 base"),
    (lambda b, w: w.update(claim="no gain"), "the runs say 'gain'"),
    (lambda b, w: w["exact"].update(identical=False), "the runs say 'no gain'"),
    (lambda b, w: b.update(schema="repro-measurement/0"), "schema"),
    (lambda b, w: b.update(bounds="fine"), "bounds"),
    (lambda b, w: b.update(pairs=0), "pairs"),
], ids=["median", "wins", "iqr", "runs", "claim", "exact", "schema", "bounds",
        "pairs"])
def test_a_doctored_measurement_block_is_refused(abtest, monkeypatch, tmp_path,
                                                 doctor, problem):
    from repro.benchmark import validate_report

    report = measured_run(abtest, monkeypatch, tmp_path, [
        result(110, 80), result(112, 79), result(111, 81),
    ])
    block = report["measurement"]
    doctor(block, block["workloads"]["cluster_rpc"])
    problems = validate_report(report)
    assert problems and any(problem in line for line in problems), problems


def test_no_claim_writes_no_verdict(abtest, monkeypatch, tmp_path):
    from repro.benchmark import validate_report

    report = measured_run(abtest, monkeypatch, tmp_path, [
        result(90, 80), result(112, 79), result(111, 81),
    ], claim=False)
    block = report["measurement"]
    assert block["claim"] is None
    assert block["workloads"]["cluster_rpc"]["claim"] is None
    assert validate_report(report) == []


def test_every_committed_bench_report_validates():
    import glob
    import json

    from repro.benchmark import validate_report

    reports = sorted(glob.glob(os.path.join(ROOT, "BENCH_PR*.json")))
    assert len(reports) >= 7
    for path in reports:
        with open(path) as handle:
            assert validate_report(json.load(handle)) == [], path
