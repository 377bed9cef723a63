"""EXP-W1 — Theorem 5.5 / Corollary 5.6: the worst-case bound.

The headline claim: CONTROL 2 serves every insertion/deletion in
O(log^2 M / (D - d)) page accesses, where CONTROL 1's worst case grows
with the file size M (its step B rewrites a whole subtree range).

We drive both engines with the converging-insert adversary (the "surge
of insertions in a small portion of the file" from the introduction)
across increasing M, and report the worst single-command page-access
count.  Expected shape: CONTROL 2 flat (it tracks J ~ log^2 M / (D-d)),
CONTROL 1 growing roughly linearly in M.
"""

import pytest
from bench_helpers import banner, emit, once

from repro import Control1Engine, Control2Engine, DensityParams
from repro.analysis import growth_exponent, render_comparison
from repro.workloads import converging_inserts, run_workload

SIZES = [64, 256, 1024]
SLACK_D = 8


def params_for(num_pages: int) -> DensityParams:
    # Keep D - d comfortably above 3*log2(M) at every size.
    return DensityParams(num_pages=num_pages, d=SLACK_D, D=SLACK_D + 56)


def run_adversary(engine_cls, num_pages: int):
    params = params_for(num_pages)
    engine = engine_cls(params)
    operations = converging_inserts(min(4 * num_pages, 4000))
    result = run_workload(engine, operations)
    engine.validate()
    return result.log


@pytest.mark.parametrize("engine_cls", [Control1Engine, Control2Engine])
def test_adversary_run(benchmark, engine_cls):
    """Timed single-size run (M=256) for pytest-benchmark's table."""
    log = once(benchmark, lambda: run_adversary(engine_cls, 256))
    assert log.worst_case_accesses > 0


def test_worst_case_scaling(benchmark):
    def sweep():
        table = {}
        for engine_cls in (Control1Engine, Control2Engine):
            worsts, means = [], []
            for num_pages in SIZES:
                log = run_adversary(engine_cls, num_pages)
                worsts.append(float(log.worst_case_accesses))
                means.append(log.amortized_accesses)
            table[engine_cls.__name__] = (worsts, means)
        return table

    table = once(benchmark, sweep)
    c1_worst, c1_mean = table["Control1Engine"]
    c2_worst, c2_mean = table["Control2Engine"]
    bounds = [
        float(params_for(m).worst_case_bound)
        for m in SIZES
    ]
    emit(
        banner("EXP-W1: worst-case page accesses per command (adversarial surge)"),
        render_comparison(
            "",
            "M",
            SIZES,
            [
                ("CONTROL1 worst", c1_worst),
                ("CONTROL2 worst", c2_worst),
                ("CONTROL2 bound(J)", bounds),
                ("CONTROL1 mean", c1_mean),
                ("CONTROL2 mean", c2_mean),
            ],
        ),
        f"growth exponent of worst case vs M: "
        f"CONTROL1={growth_exponent(SIZES, c1_worst):.2f}, "
        f"CONTROL2={growth_exponent(SIZES, c2_worst):.2f}",
    )
    # Shape assertions: who wins, and how the curves scale.
    for index in range(len(SIZES)):
        assert c2_worst[index] < c1_worst[index]
        # CONTROL 2 honours the O(J) = O(log^2 M / (D-d)) ceiling.
        assert c2_worst[index] <= bounds[index]
    # CONTROL 1's spike grows roughly linearly with M; CONTROL 2's grows
    # only with J ~ log^2 M, i.e. with a much smaller power of M.
    c1_exp = growth_exponent(SIZES, c1_worst)
    c2_exp = growth_exponent(SIZES, c2_worst)
    assert c1_exp > 0.8
    assert c2_exp < c1_exp - 0.3
    # At the largest size the deamortization gap is at least ~4x.
    assert c1_worst[-1] > 4 * c2_worst[-1]
