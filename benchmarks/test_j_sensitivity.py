"""EXP-A1 — the J parameter: "typically J should be about 18".

The paper proves J = 90*ceil(log^2 M)/(D-d) suffices, remarks the proof
is loose by at least an order of magnitude ("and probably by 1 1/2
magnitudes"), and says J ~ 18 is typical.  This ablation sweeps J over
three scenarios (comfortable slack, slack barely above 3 log M, and a
surge followed by calm traffic), reporting per J: commands that ended
with BALANCE(d, D) violated, the least BALANCE headroom seen at a
command's end (the ``core.balance_headroom`` gauge: negative exactly
when BALANCE is broken), the maximum page fill reached, and the worst
per-command page-access cost (the price of a larger budget).

Measured finding: J = 1 is not safe.  The two high-fill adversaries
stay balanced at J = 1, but the surge-then-calm session (800 inserts
converging on one point, then 800 uniform inserts, d = 8, D = 48)
leaves BALANCE broken after 12 of its calm commands at J = 1 and after
none at any J >= 2.  The smallest violation-free J measured is 2, so
the paper's prediction that its constant is loose by 1-1.5 orders of
magnitude is confirmed: the proven constant is ~2 orders above it.
"""

from bench_helpers import banner, emit, once

from repro import Control2Engine, DensityParams
from repro.analysis import render_table
from repro.core.invariants import balance_scan
from repro.workloads import (
    converging_inserts,
    interleaved_point_inserts,
    uniform_random_inserts,
)

NUM_PAGES = 256
J_VALUES = [1, 2, 3, 4, 6, 8, 12, 18, 27]
COMMANDS = 1500

#: 800 inserts converging on one point, then 800 uniform inserts into
#: the gaps they leave: the session that breaks BALANCE at J = 1.
SURGE_THEN_CALM = [operation.key for operation in converging_inserts(800)] + [
    float(operation.key) + 0.3
    for operation in uniform_random_inserts(800, seed=2)
]
SURGE_THEN_CALM_LABEL = "slack 40, surge then calm"

#: (label, d, D, preload fraction, the keys to insert: ``None`` for one
#: hot point, a list of hot points, or SURGE_THEN_CALM itself)
SCENARIOS = [
    ("slack 40, one hot point", 8, 48, 0.0, None),
    ("slack 25 (near 3logM=24), 80% full, 8 hot points", 8, 33, 0.80,
     [(1 << 30) * i // 8 + 12345 for i in range(8)]),
    (SURGE_THEN_CALM_LABEL, 8, 48, 0.0, SURGE_THEN_CALM),
]


def violations_for(j: int, d: int, cap_d: int, preload: float, points):
    params = DensityParams(num_pages=NUM_PAGES, d=d, D=cap_d, j=j)
    engine = Control2Engine(params)
    key_space = 1 << 30
    if preload:
        base = int(preload * params.max_records)
        engine.bulk_load(
            k + 0.5 for k in range(0, key_space, key_space // base)
        )
    budget = params.max_records - engine.size - 2
    count = min(COMMANDS, budget)
    if points is SURGE_THEN_CALM:
        keys = SURGE_THEN_CALM
    elif points is None:
        keys = [operation.key for operation in converging_inserts(count)]
    else:
        keys = [
            operation.key
            for operation in interleaved_point_inserts(count, points=points)
        ]
    log = engine.enable_operation_log()
    bad_commands = 0
    max_fill = 0
    least_headroom = params.max_records
    for key in keys:
        engine.insert(key)
        violating, headroom = balance_scan(engine.calibrator, params)
        assert (headroom < 0) == bool(violating)
        if violating:
            bad_commands += 1
        least_headroom = min(least_headroom, headroom)
        max_fill = max(max_fill, max(engine.occupancies()))
    return bad_commands, least_headroom, max_fill, log.worst_case_accesses


def test_j_sweep(benchmark):
    def sweep():
        results = {}
        for label, d, cap_d, preload, points in SCENARIOS:
            results[label] = {
                j: violations_for(j, d, cap_d, preload, points)
                for j in J_VALUES
            }
        return results

    results = once(benchmark, sweep)
    chunks = [banner("EXP-A1: J sweep under three adversaries")]
    for label, d, cap_d, preload, points in SCENARIOS:
        table = results[label]
        rows = [
            [j, bad, headroom, fill, worst, "yes" if bad == 0 else "no"]
            for j, (bad, headroom, fill, worst) in table.items()
        ]
        chunks.append(
            render_table(
                ["J", "unbalanced commands", "least headroom",
                 "max page fill", "worst accesses/op", "safe"],
                rows,
                title=f"scenario: {label} (d={d}, D={cap_d})",
            )
        )
    params = DensityParams(NUM_PAGES, 8, 48)
    paper_bound = 90 * (params.log_m ** 2) / 40
    # The smallest J from which every larger tested J is clean too.
    threshold = min(
        j
        for j in J_VALUES
        if all(
            table[larger][0] == 0
            for table in results.values()
            for larger in J_VALUES
            if larger >= j
        )
    )
    chunks.append(
        f"paper's proven-sufficient J: {paper_bound:.0f}; "
        f"paper's 'typical' J: 18; "
        f"measured violation-free threshold: {threshold}"
    )
    emit(*chunks)

    # J = 1 leaves BALANCE broken after some surge-then-calm commands,
    # so its headroom goes negative; every larger tested J keeps it.
    surge = results[SURGE_THEN_CALM_LABEL]
    assert surge[1][0] > 0 and surge[1][1] < 0
    assert all(
        bad == 0 and headroom >= 0
        for j, (bad, headroom, _, _) in surge.items()
        if j >= 2
    )

    for label in results:
        table = results[label]
        if label != SURGE_THEN_CALM_LABEL:
            # The high-fill adversaries are violation-free at every
            # tested J, confirming the paper's constants are conservative...
            assert all(bad == 0 for bad, _, _, _ in table.values())
        # ...while larger J monotonically (weakly) raises the worst-case
        # cost ceiling actually paid.
        worsts = [worst for _, _, _, worst in table.values()]
        assert worsts[-1] >= worsts[0]
        # And no page ever exceeded its capacity D.
        for (scenario_label, d, cap_d, _, _) in SCENARIOS:
            if scenario_label == label:
                assert all(fill <= cap_d for _, _, fill, _ in table.values())


def test_capacity_respected_at_recommended_j(benchmark):
    """With the default J no page ever exceeds D at command end."""

    def run():
        params = DensityParams(num_pages=NUM_PAGES, d=8, D=48)
        engine = Control2Engine(params)
        worst_fill = 0
        for operation in converging_inserts(COMMANDS):
            engine.insert(operation.key)
            worst_fill = max(worst_fill, max(engine.occupancies()))
        return worst_fill

    worst_fill = once(benchmark, run)
    emit(
        f"EXP-A1b: max page fill at command ends with default J: "
        f"{worst_fill} (D = 48)"
    )
    assert worst_fill <= 48
