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
