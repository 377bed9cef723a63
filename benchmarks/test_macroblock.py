"""EXP-W5 — Theorem 5.7: macro-blocks remove the slack condition.

When D - d <= 3*ceil(log2 M), CONTROL 2 runs over macro-blocks of K
pages against the (K*d, K*D)-dense constraint.  The translated cost is
O(log^2 M / (D - d)) in ordinary page units.  We drive the adversary at
a geometry where the plain algorithm is inapplicable and check both
correctness (density maintained) and the bounded-cost shape.
"""

from bench_helpers import banner, emit, once

from repro import DensityParams, MacroBlockControl2Engine, macro_params
from repro.analysis import render_table
from repro.workloads import converging_inserts, mixed_workload, run_workload

GEOMETRIES = [
    # (M, d, D): all with D - d <= 3*ceil(log2 M).
    (64, 8, 12),
    (256, 8, 16),
    (1024, 8, 24),
]


def run_geometry(num_pages, d, cap_d):
    engine = MacroBlockControl2Engine(num_pages=num_pages, d=d, D=cap_d)
    operations = converging_inserts(min(3 * num_pages, 2000))
    result = run_workload(engine, operations)
    engine.validate()
    return engine, result.log


def test_macroblock_maintenance_and_cost(benchmark):
    def sweep():
        rows = []
        for num_pages, d, cap_d in GEOMETRIES:
            engine, log = run_geometry(num_pages, d, cap_d)
            factor = engine.block_factor
            rows.append(
                [
                    f"{num_pages}",
                    f"{cap_d - d}",
                    f"{factor}",
                    f"{engine.params.num_pages}",
                    f"{log.worst_case_accesses * factor}",
                    f"{log.amortized_accesses * factor:.1f}",
                    f"{engine.stuck_shifts}",
                ]
            )
        return rows

    rows = once(benchmark, sweep)
    emit(
        banner("EXP-W5: macro-block CONTROL 2 where D-d <= 3 log M"),
        render_table(
            [
                "M", "D-d", "K", "macro blocks",
                "worst phys accesses/op", "mean phys accesses/op", "stuck",
            ],
            rows,
        ),
    )
    for row in rows:
        assert int(row[-1]) == 0  # no defensive fallbacks
    # Worst physical accesses stay bounded by K * (3J + search) per op.
    for (num_pages, d, cap_d), row in zip(GEOMETRIES, rows):
        params = macro_params(num_pages, d, cap_d)
        factor = int(row[2])
        bound = factor * params.worst_case_bound
        assert int(row[4]) <= bound


def test_macroblock_mixed_workload_correctness(benchmark):
    def run():
        engine = MacroBlockControl2Engine(num_pages=256, d=8, D=16)
        run_workload(engine, mixed_workload(1500, seed=31), validate_every=250)
        return engine

    engine = once(benchmark, run)
    keys = [record.key for record in engine.pagefile.iter_all()]
    assert keys == sorted(keys)
    emit(
        f"EXP-W5b: mixed workload on macro-blocks: size={len(engine)}, "
        f"K={engine.block_factor}, validations passed"
    )
