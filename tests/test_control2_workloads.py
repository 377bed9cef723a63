"""Integration tests: CONTROL 2 under sustained workloads.

Every test drives hundreds of commands and asserts the paper's
guarantees at end-of-command moments: BALANCE(d, D) (hence
(d, D)-density), sequential order, bounded per-command page accesses,
and the absence of defensive fallbacks (stuck shifts).
"""

import pytest

from repro import Control2Engine, DensityParams
from repro.workloads import (
    ascending_inserts,
    converging_inserts,
    descending_inserts,
    interleaved_point_inserts,
    mixed_workload,
    run_workload,
    sawtooth_workload,
    uniform_random_inserts,
    zipf_region_inserts,
)

WORKLOADS = {
    "uniform": lambda n: uniform_random_inserts(n, seed=1),
    "ascending": lambda n: ascending_inserts(n),
    "descending": lambda n: descending_inserts(n),
    "converging": lambda n: converging_inserts(n),
    "converging_below": lambda n: converging_inserts(n, from_above=False),
    "mixed": lambda n: mixed_workload(n, seed=2),
    "sawtooth": lambda n: sawtooth_workload(n, seed=3),
    "zipf": lambda n: zipf_region_inserts(n, seed=4),
    "two_hot_points": lambda n: interleaved_point_inserts(
        n, points=[100, 900]
    ),
    "four_hot_points": lambda n: interleaved_point_inserts(
        n, points=[100, 300, 600, 900], seed=5
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_invariants_hold_throughout(name):
    params = DensityParams(num_pages=64, d=8, D=40)
    engine = Control2Engine(params)
    operations = WORKLOADS[name](min(500, params.max_records))
    result = run_workload(engine, operations, validate_every=50)
    assert result.validations > 0
    assert engine.stuck_shifts == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_command_cost_is_bounded(name):
    """Worst-case accesses stay O(J): each of the J shifts touches O(1)
    pages and the search adds O(log M)."""
    params = DensityParams(num_pages=64, d=8, D=40)
    engine = Control2Engine(params)
    operations = WORKLOADS[name](min(500, params.max_records))
    result = run_workload(engine, operations)
    bound = params.worst_case_bound
    assert result.log.worst_case_accesses <= bound


def test_fill_to_exact_capacity_and_drain():
    params = DensityParams(num_pages=16, d=4, D=20)
    engine = Control2Engine(params)
    for key in range(params.max_records):
        engine.insert(key)
    engine.validate()
    assert len(engine) == params.max_records
    for key in range(params.max_records):
        engine.delete(key)
    engine.validate()
    assert len(engine) == 0
    assert engine.warning_nodes() == []


def test_insert_beyond_capacity_raises():
    from repro.core.errors import FileFullError

    params = DensityParams(num_pages=16, d=4, D=20)
    engine = Control2Engine(params)
    for key in range(params.max_records):
        engine.insert(key)
    with pytest.raises(FileFullError):
        engine.insert(10**9)


def test_delete_missing_key_raises_and_leaves_state_clean():
    from repro.core.errors import RecordNotFoundError

    params = DensityParams(num_pages=16, d=4, D=20)
    engine = Control2Engine(params)
    engine.insert(1)
    with pytest.raises(RecordNotFoundError):
        engine.delete(2)
    engine.validate()
    assert len(engine) == 1


def test_duplicate_insert_raises():
    from repro.core.errors import DuplicateKeyError

    params = DensityParams(num_pages=16, d=4, D=20)
    engine = Control2Engine(params)
    engine.insert(5)
    with pytest.raises(DuplicateKeyError):
        engine.insert(5)


def test_set_semantics_match_a_model():
    """Model-based check against a plain Python set/sorted list."""
    import random

    params = DensityParams(num_pages=32, d=4, D=24)
    engine = Control2Engine(params)
    rng = random.Random(99)
    model = set()
    for _ in range(600):
        key = rng.randrange(200)
        if key in model:
            if rng.random() < 0.5:
                engine.delete(key)
                model.discard(key)
            continue
        if len(model) >= params.max_records:
            continue
        engine.insert(key)
        model.add(key)
    stored = [record.key for record in engine.pagefile.iter_all()]
    assert stored == sorted(model)
    engine.validate()


def test_search_and_scans_agree_with_contents():
    params = DensityParams(num_pages=32, d=4, D=24)
    engine = Control2Engine(params)
    keys = list(range(0, 100, 3))
    for key in keys:
        engine.insert(key, value=key * 2)
    assert engine.search(9).value == 18
    assert engine.search(10) is None
    assert [r.key for r in engine.range_scan(10, 30)] == [12, 15, 18, 21, 24, 27, 30]
    assert [r.key for r in engine.scan_count(50, 4)] == [51, 54, 57, 60]


def test_worst_case_below_control1_on_adversary():
    """The headline contrast, in miniature."""
    from repro import Control1Engine

    params = DensityParams(num_pages=128, d=8, D=48)
    adversary = converging_inserts(700)
    worst = {}
    for cls in (Control1Engine, Control2Engine):
        engine = cls(params)
        result = run_workload(engine, adversary)
        worst[cls.__name__] = result.log.worst_case_accesses
    assert worst["Control2Engine"] < worst["Control1Engine"]


def test_moments_fire_in_figure2_order():
    params = DensityParams(num_pages=16, d=4, D=20, j=2)
    engine = Control2Engine(params)
    seen = []
    engine.moment_listener = lambda kind, _: seen.append(kind)
    engine.insert(1)
    assert seen[:3] == ["1", "2", "3"]
    iteration = seen[3:]
    # Each executed iteration appends "4a"; "4b"/"4c" only when a target
    # was selected.
    assert iteration[0] == "4a"


def test_operation_log_moved_counts_records():
    params = DensityParams(num_pages=64, d=8, D=40)
    engine = Control2Engine(params)
    log = engine.enable_operation_log()
    for op in converging_inserts(200):
        engine.insert(op.key)
    assert sum(log.records_moved) == engine.records_moved_total
    assert engine.records_moved_total > 0
