"""EXP-A4 — ablation: Theorem 5.5's initial-distribution precondition.

Theorem 5.5 requires "a (d,D)-dense file whose records are initially
distributed with a uniform density over the address space".  This
ablation shows the precondition is load-bearing: loading the same
records packed into the leftmost pages (a classic sequential-file dump)
starts the calibrator with BALANCE(d, D) already violated, and CONTROL 2
— whose correctness argument assumes violations never arise — does not
repair the skew; subsequent inserts make it worse, eventually pushing
pages beyond D.  The uniform bulk loader keeps violations at zero
forever under the same insert stream.

The remedy matches the paper: one up-front uniform redistribution
(CONTROL 1's primitive over the whole file) re-establishes the
precondition.
"""

from bench_helpers import banner, emit, once

from repro import Control2Engine, DensityParams
from repro.analysis import render_comparison
from repro.core.invariants import balance_violations
from repro.workloads import uniform_random_inserts

NUM_PAGES = 128
PARAMS = DensityParams(num_pages=NUM_PAGES, d=8, D=48)
PRELOAD = PARAMS.max_records // 2
CHECK_EVERY = 100
COMMANDS = 450
KEY_SPACE = PRELOAD * 200


def packed_left_engine():
    engine = Control2Engine(PARAMS)
    occupancies = []
    left = PRELOAD
    for _ in range(NUM_PAGES):
        take = min(PARAMS.D - 1, left)
        occupancies.append(take)
        left -= take
    engine.load_occupancies(occupancies, key_start=0, key_gap=100)
    return engine


def uniform_engine():
    engine = Control2Engine(PARAMS)
    engine.bulk_load(k * 100 for k in range(PRELOAD))
    return engine


def violation_series(engine):
    series = [len(balance_violations(engine.calibrator, PARAMS))]
    operations = uniform_random_inserts(
        COMMANDS, key_space=KEY_SPACE, seed=5
    )
    peak_fill = max(engine.occupancies())
    for index, operation in enumerate(operations):
        engine.insert(operation.key + 0.5)  # avoid preloaded-key collisions
        peak_fill = max(peak_fill, max(engine.occupancies()))
        if (index + 1) % CHECK_EVERY == 0:
            series.append(len(balance_violations(engine.calibrator, PARAMS)))
    return series, peak_fill


def test_initial_distribution_matters(benchmark):
    def run():
        packed_series, packed_peak = violation_series(packed_left_engine())
        uniform_series, uniform_peak = violation_series(uniform_engine())
        repaired = packed_left_engine()
        # One redistribution of the whole file, counters rebuilt.
        repaired.compact()
        repaired_series, repaired_peak = violation_series(repaired)
        return (
            packed_series, packed_peak,
            uniform_series, uniform_peak,
            repaired_series, repaired_peak,
        )

    (packed, packed_peak, uniform, uniform_peak,
     repaired, repaired_peak) = once(benchmark, run)
    checkpoints = [i * CHECK_EVERY for i in range(len(packed))]
    emit(
        banner(
            "EXP-A4: BALANCE(d,D) violations over time by initial layout "
            f"(M={NUM_PAGES}, d=8, D=48, {PRELOAD} preloaded records)"
        ),
        render_comparison(
            "",
            "commands",
            checkpoints,
            [
                ("packed-left load", [float(v) for v in packed]),
                ("uniform load (Thm 5.5)", [float(v) for v in uniform]),
                ("packed + one redistribution", [float(v) for v in repaired]),
            ],
        ),
        f"peak page fill: packed={packed_peak} (D=48!), "
        f"uniform={uniform_peak}, repaired={repaired_peak}",
    )
    # The precondition is violated from the start under a packed dump...
    assert packed[0] > 0
    # ...and the algorithm does not repair it (it may get worse).
    assert packed[-1] > 0
    # The packed layout eventually breaks the physical capacity bound.
    assert packed_peak > PARAMS.D
    # A uniform load keeps BALANCE(d,D) at zero violations throughout...
    assert all(v == 0 for v in uniform)
    assert uniform_peak <= PARAMS.D
    # ...and a single up-front redistribution is a sufficient remedy.
    assert all(v == 0 for v in repaired)
    assert repaired_peak <= PARAMS.D
