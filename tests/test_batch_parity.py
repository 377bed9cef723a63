"""Hypothesis parity: the batched write fast paths change no state.

The batched ``insert_many``/``delete_range`` coalesce *charges* (one
read plus one write per touched page per group instead of per record),
but execute the identical sequence of state mutations as the per-record
loop: each record is applied and maintained as its own command, with
the destination re-verified against the in-core directory after every
command's maintenance.  These tests prove the claim the cheap way —
by running both paths and asserting byte-identical page contents,
calibrator state and invariant outcomes — across random workloads,
every backend, and behind a :class:`ThreadSafeDenseFile`.  The
per-record reference is the loop written out here: an ``insert`` per
sorted key, a ``delete`` per key in the range.

One asymmetry is inherent: per-record *deletes* under CONTROL 2 run
steps 2-4 (including SHIFTs) after every command, while the bulk path
runs only the flag-lowering repair, so a per-key ``delete`` loop may
leave records on different pages than ``delete_range``.  CONTROL 1
deletes perform no maintenance at all, so there the two delete paths
are byte-identical too; for CONTROL 2 the parity claim is multiset
equality plus intact invariants on both sides.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Control1Engine,
    Control2Engine,
    DensityParams,
    JournaledDenseFile,
    ThreadSafeDenseFile,
)
from repro.storage.backend import BufferedStore, DiskStore, MemoryStore
from repro.storage.codec import encode_page
from repro.storage.faults import FaultPlan, fault_tolerant_stack

M, LOW_D, HIGH_D = 16, 4, 24  # slack 20 > 3*4; cap 64 records

KEYS = st.integers(min_value=0, max_value=5_000)

#: A step is either an insert batch or a bulk delete of a key range.
INSERT_BATCH = st.lists(KEYS, min_size=0, max_size=12, unique=True)
DELETE_RANGE = st.tuples(KEYS, KEYS).map(lambda t: (min(t), max(t)))
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), INSERT_BATCH),
        st.tuples(st.just("delete"), DELETE_RANGE),
    ),
    min_size=1,
    max_size=8,
)


def _params() -> DensityParams:
    return DensityParams(num_pages=M, d=LOW_D, D=HIGH_D)


def _page_images(engine):
    return [
        encode_page(engine.pagefile.page(p).records())
        for p in range(1, M + 1)
    ]


def _assert_identical(batched, reference):
    """Byte-identical pages, calibrator counters, flags and size."""
    assert len(batched) == len(reference)
    assert _page_images(batched) == _page_images(reference)
    assert batched.calibrator.count == reference.calibrator.count
    assert batched.calibrator.flag == reference.calibrator.flag
    assert batched.commands_executed == reference.commands_executed


def _keys_of(engine):
    return sorted(r.key for _, records in engine.pagefile.snapshot()
                  for r in records)


def insert_each(target, keys):
    """The per-record reference for ``insert_many``: one ``insert``
    command per key, in key order."""
    for key in sorted(keys):
        target.insert(key)
    return len(keys)


def delete_each(target, lo, hi):
    """The per-record reference for ``delete_range``: one ``delete``
    command per key in ``[lo, hi]``, in key order.  An engine's keys
    are read from its in-core pages, uncharged."""
    if hasattr(target, "pagefile"):
        victims = [key for key in _keys_of(target) if lo <= key <= hi]
    else:
        victims = [record.key for record in target.range(lo, hi)]
    for key in victims:
        target.delete(key)
    return len(victims)


def _apply(engine, steps, batch):
    inserted = set()
    for kind, payload in steps:
        if kind == "insert":
            fresh = [k for k in payload if k not in inserted]
            if len(engine) + len(fresh) > engine.params.max_records:
                continue
            if batch:
                engine.insert_many(fresh)
            else:
                insert_each(engine, fresh)
            inserted.update(fresh)
        else:
            lo, hi = payload
            engine.delete_range(lo, hi)
            inserted -= {k for k in inserted if lo <= k <= hi}


class TestInsertManyParity:
    """Batched inserts are byte-identical to the per-record loop."""

    @pytest.mark.parametrize("algorithm", [Control1Engine, Control2Engine])
    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS)
    def test_random_workloads(self, algorithm, steps):
        batched = algorithm(_params())
        reference = algorithm(_params())
        _apply(batched, steps, batch=True)
        _apply(reference, steps, batch=False)
        _assert_identical(batched, reference)
        batched.validate()
        reference.validate()

    @pytest.mark.parametrize("algorithm", [Control1Engine, Control2Engine])
    def test_sorted_burst_after_preload(self, algorithm):
        batched = algorithm(_params())
        reference = algorithm(_params())
        for engine in (batched, reference):
            engine.bulk_load(range(0, 60, 2))
        batched.insert_many(range(1, 61, 20))
        insert_each(reference, range(1, 61, 20))
        _assert_identical(batched, reference)

    def test_batched_charges_fewer_accesses(self):
        batched = Control2Engine(_params())
        reference = Control2Engine(_params())
        keys = list(range(48))
        batched.insert_many(keys)
        insert_each(reference, keys)
        _assert_identical(batched, reference)
        assert (
            batched.stats.page_accesses < reference.stats.page_accesses
        )


class TestDeleteRangeParity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(KEYS, min_size=1, max_size=40, unique=True),
        bounds=DELETE_RANGE,
    )
    def test_control1_byte_identical(self, keys, bounds):
        lo, hi = bounds
        batched = Control1Engine(_params())
        reference = Control1Engine(_params())
        for engine in (batched, reference):
            engine.insert_many(sorted(keys))
        batched.delete_range(lo, hi)
        delete_each(reference, lo, hi)
        # CONTROL 1 deletes run no maintenance, so even the page
        # placement matches; command accounting differs by design
        # (bulk = one command, per-record = one per key).
        assert _page_images(batched) == _page_images(reference)
        assert batched.calibrator.count == reference.calibrator.count
        batched.validate()
        reference.validate()

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(KEYS, min_size=1, max_size=40, unique=True),
        bounds=DELETE_RANGE,
    )
    def test_control2_multiset_parity(self, keys, bounds):
        lo, hi = bounds
        batched = Control2Engine(_params())
        reference = Control2Engine(_params())
        for engine in (batched, reference):
            engine.insert_many(sorted(keys))
        removed_batched = batched.delete_range(lo, hi)
        removed_reference = delete_each(reference, lo, hi)
        assert removed_batched == removed_reference
        assert _keys_of(batched) == _keys_of(reference)
        batched.validate()
        reference.validate()


class TestCrossBackendParity:
    """One batched command stream, four physical stacks, one state."""

    def _stores(self, workdir):
        return {
            "memory": MemoryStore(M),
            "disk": DiskStore.create(
                os.path.join(workdir, "batch.dsf"),
                num_pages=M, d=LOW_D, D=HIGH_D,
            ),
            "buffered": BufferedStore(
                DiskStore.create(
                    os.path.join(workdir, "batch-cache.dsf"),
                    num_pages=M, d=LOW_D, D=HIGH_D,
                ),
                capacity=4,
                readahead=2,
            ),
            "faulty": fault_tolerant_stack(
                MemoryStore(M), FaultPlan(seed=7, transient_rate=0.2)
            ),
        }

    def test_batched_state_identical_everywhere(self, tmp_path):
        engines = {
            name: Control2Engine(_params(), store=store)
            for name, store in self._stores(str(tmp_path)).items()
        }
        steps = [
            ("insert", list(range(0, 40, 2))),
            ("insert", list(range(1, 21, 2))),
            ("delete", (10, 25)),
            ("insert", [100, 101, 102]),
            ("delete", (0, 4)),
        ]
        for engine in engines.values():
            _apply(engine, steps, batch=True)
            engine.validate()
        reference = engines["memory"]
        for name, engine in engines.items():
            assert _page_images(engine) == _page_images(reference), name
            assert (
                engine.stats.page_accesses == reference.stats.page_accesses
            ), name
        for engine in engines.values():
            engine.store.close()


class TestThreadSafeBatch:
    def test_threadsafe_wrapper_parity(self, tmp_path):
        path = str(tmp_path / "ts.dsf")
        safe = ThreadSafeDenseFile(JournaledDenseFile.create(
            path, num_pages=M, d=LOW_D, D=HIGH_D
        ))
        reference = Control2Engine(_params())
        keys = list(range(0, 50))
        assert safe.insert_many(keys) == 50
        reference.insert_many(keys)
        assert safe.delete_range(10, 19) == 10
        reference.delete_range(10, 19)
        inner_engine = safe._inner.engine
        assert _page_images(inner_engine) == _page_images(reference)
        safe.close()

    def test_threadsafe_batch_false(self, tmp_path):
        path = str(tmp_path / "ts2.dsf")
        safe = ThreadSafeDenseFile(JournaledDenseFile.create(
            path, num_pages=M, d=LOW_D, D=HIGH_D
        ))
        assert insert_each(safe, range(20)) == 20
        assert delete_each(safe, 5, 9) == 5
        assert len(safe) == 15
        safe.close()
