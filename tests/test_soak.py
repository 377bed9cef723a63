"""Soak tests: long mixed sessions at moderate scale with full validation.

These runs chain every feature — bulk load, single and batch updates,
range deletions, compaction, order statistics, scans — over thousands of
commands, validating all structural invariants along the way.  They are
the closest thing to production traffic in the suite.
"""

import random

import pytest

from repro import Control2Engine, DenseSequentialFile, DensityParams
from repro.core.errors import FileFullError


@pytest.mark.parametrize("engine_cls", [Control2Engine])
def test_long_mixed_session(engine_cls):
    params = DensityParams(num_pages=512, d=8, D=48)
    engine = engine_cls(params)
    rng = random.Random(2026)
    live = set()

    # Phase 1: uniform load to ~half capacity.
    while len(live) < params.max_records // 2:
        key = rng.randrange(1 << 24)
        if key in live:
            continue
        engine.insert(key)
        live.add(key)
    engine.validate()

    # Phase 2: churn — inserts, deletes, occasional range deletes.
    for step in range(4000):
        roll = rng.random()
        if roll < 0.5 and len(live) < params.max_records:
            key = rng.randrange(1 << 24)
            if key in live:
                continue
            engine.insert(key)
            live.add(key)
        elif roll < 0.9 and live:
            key = rng.choice(tuple(live)) if len(live) < 4096 else min(live)
            engine.delete(key)
            live.remove(key)
        elif live:
            lo = rng.randrange(1 << 24)
            hi = lo + rng.randrange(1 << 16)
            removed = engine.delete_range(lo, hi)
            victims = {k for k in live if lo <= k <= hi}
            assert removed == len(victims)
            live -= victims
        if step % 1000 == 999:
            engine.validate()

    # Phase 3: order statistics agree with the model.
    ordered = sorted(live)
    assert len(engine) == len(ordered)
    for _ in range(20):
        probe = rng.randrange(1 << 24)
        assert engine.rank(probe) == sum(1 for k in ordered if k < probe)
    if ordered:
        index = rng.randrange(len(ordered))
        assert engine.select(index).key == ordered[index]

    # Phase 4: compact, then keep going.
    engine.compact()
    engine.validate()
    for key in range(1 << 25, (1 << 25) + 100):
        try:
            engine.insert(key)
            live.add(key)
        except FileFullError:
            break
    engine.validate()
    assert [r.key for r in engine.pagefile.iter_all()] == sorted(live)
    assert engine.stuck_shifts == 0


def test_facade_soak_with_scans():
    dense = DenseSequentialFile(num_pages=256, d=8, D=48)
    rng = random.Random(7)
    dense.bulk_load(range(0, 100_000, 100))
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.45:
            key = rng.randrange(100_000)
            if key % 100 and key not in dense:
                dense.insert(key)
        elif roll < 0.7:
            start = rng.randrange(100_000)
            window = list(dense.range(start, start + 500))
            keys = [record.key for record in window]
            assert keys == sorted(keys)
        elif roll < 0.85:
            probe = rng.randrange(100_000)
            succ = dense.successor(probe)
            if succ is not None:
                assert succ.key > probe
        else:
            probe = rng.randrange(100_000)
            assert dense.count_range(probe, probe + 1000) == sum(
                1 for _ in dense.range(probe, probe + 1000)
            )
    dense.validate()
