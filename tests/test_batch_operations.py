"""Tests for batch updates: insert_many and bulk delete_range."""

import pytest

from repro import (
    Control1Engine,
    Control2Engine,
    DenseSequentialFile,
    DensityParams,
)
from repro.records import Record


@pytest.fixture(params=[Control1Engine, Control2Engine])
def engine(request):
    return request.param(DensityParams(num_pages=64, d=8, D=40))


class TestInsertMany:
    def test_inserts_everything_in_order(self, engine):
        count = engine.insert_many([5, 1, (3, "three"), Record(2, "two")])
        assert count == 4
        keys = [record.key for record in engine.pagefile.iter_all()]
        assert keys == [1, 2, 3, 5]
        assert engine.search(3).value == "three"

    def test_empty_iterable(self, engine):
        assert engine.insert_many([]) == 0

    def test_large_batch_stays_valid(self, engine):
        engine.insert_many(range(0, 500))
        engine.validate()
        assert len(engine) == 500

    def test_duplicates_in_batch_raise(self, engine):
        from repro.core.errors import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            engine.insert_many([1, 1])

    def test_generator_input(self, engine):
        assert engine.insert_many(k * 2 for k in range(10)) == 10


class TestDeleteRange:
    def test_deletes_inclusive_range(self, engine):
        engine.insert_many(range(20))
        removed = engine.delete_range(5, 9)
        assert removed == 5
        engine.validate()
        keys = [record.key for record in engine.pagefile.iter_all()]
        assert keys == [0, 1, 2, 3, 4] + list(range(10, 20))

    def test_empty_range_is_noop(self, engine):
        engine.insert_many(range(10))
        assert engine.delete_range(100, 200) == 0
        assert len(engine) == 10

    def test_range_on_empty_file(self, engine):
        assert engine.delete_range(0, 10) == 0

    def test_delete_everything(self, engine):
        engine.insert_many(range(200))
        removed = engine.delete_range(-1, 10**9)
        assert removed == 200
        assert len(engine) == 0
        engine.validate()

    def test_range_spanning_many_pages(self, engine):
        engine.insert_many(range(400))
        removed = engine.delete_range(50, 349)
        assert removed == 300
        engine.validate()
        assert len(engine) == 100

    def test_size_and_counters_consistent(self, engine):
        engine.insert_many(range(100))
        engine.delete_range(10, 40)
        assert len(engine) == engine.calibrator.count[engine.calibrator.root]

    def test_cost_is_one_pass(self, engine):
        engine.insert_many(range(400))
        engine.stats.checkpoint("rd")
        engine.delete_range(0, 399)
        delta = engine.stats.delta("rd")
        # One read + one write per touched page, nothing quadratic.
        touched = 64
        assert delta.page_accesses <= 2 * touched + 4

    def test_single_key_range(self, engine):
        engine.insert_many(range(10))
        assert engine.delete_range(4, 4) == 1
        assert 4 not in engine


class TestBatchFastPath:
    """The coalesced write path: grouping, hints, and the I/O win."""

    def test_monotone_page_visits_for_sorted_input(self, engine):
        """Sorted input + hint => destination groups open left to right.

        On a quiescent bulk-loaded file with wide slack, no maintenance
        moves the boundary between groups, so the sequence of pages
        opened by ``group_read`` must be non-decreasing — the hinted
        locate never re-searches behind the previous destination.
        """
        engine.bulk_load(range(0, 400, 2))
        visits = []
        original = engine.pagefile.group_read

        def spy(page_number):
            visits.append(page_number)
            return original(page_number)

        engine.pagefile.group_read = spy
        engine.insert_many(range(1, 401, 8))
        assert visits, "batched path must route through group_read"
        assert visits == sorted(visits)

    def test_hinted_locate_equals_plain_locate(self, engine):
        engine.insert_many(range(0, 300, 3))
        pagefile = engine.pagefile
        for key in range(-5, 305, 7):
            expected = pagefile.locate_in_core(key)
            for hint in (None, 1, 17, expected, engine.params.num_pages):
                assert pagefile.locate_in_core_hinted(key, hint) == expected

    def test_batch_false_escape_hatch(self, engine):
        """The per-record loops that replace the bulk calls leave a valid
        file; each command counts on its own."""
        for key in range(30):
            engine.insert(key)
        for key in range(5, 15):
            engine.delete(key)
        engine.validate()
        assert len(engine) == 20
        assert engine.commands_executed == 40

    def test_file_full_raised_mid_batch(self, engine):
        cap = engine.params.max_records
        from repro.core.errors import FileFullError

        with pytest.raises(FileFullError):
            engine.insert_many(range(cap + 10))
        # Everything up to the cap landed and the file is consistent.
        assert len(engine) == cap
        engine.validate()

    def test_sorted_burst_batched_does_less_io(self):
        """Acceptance: a 10k sorted burst pays measurably less I/O.

        Physical reads+writes are metered at the MemoryStore seam
        (gets + puts) and logical accesses at the simulated disk; the
        batched path must beat the per-record loop on both while
        producing the identical final file.
        """
        from repro.storage.backend import MemoryStore

        params = DensityParams(num_pages=2048, d=8, D=48)
        results = {}
        for batch in (True, False):
            store = MemoryStore(2048)
            engine = Control2Engine(params, store=store)
            if batch:
                engine.insert_many(range(10_000))
            else:
                for key in range(10_000):
                    engine.insert(key)
            engine.validate()
            stats = store.stats()
            results[batch] = {
                "physical": stats["gets"] + stats["puts"],
                "logical": engine.stats.page_accesses,
                "occupancies": engine.occupancies(),
                "flags": list(engine.calibrator.flag),
            }
        assert results[True]["occupancies"] == results[False]["occupancies"]
        assert results[True]["flags"] == results[False]["flags"]
        # "Measurably fewer": at least 25% off both meters on this burst.
        assert results[True]["physical"] < 0.75 * results[False]["physical"]
        assert results[True]["logical"] < 0.75 * results[False]["logical"]

    def test_delete_range_jumps_to_first_affected_page(self, engine):
        """The bisect satellite: pages left of the range are never read."""
        engine.insert_many(range(400))
        engine.stats.checkpoint("jump")
        engine.delete_range(390, 399)
        delta = engine.stats.delta("jump")
        # Two boundary-ish pages at most — nothing proportional to the
        # ~50 pages holding keys below the range.
        assert delta.page_accesses <= 6

    def test_nonempty_in_range_matches_scan(self, engine):
        engine.insert_many(range(0, 300, 3))
        pagefile = engine.pagefile
        nonempty = pagefile.nonempty_pages()
        for lo, hi in [(0, 10), (50, 200), (290, 400), (400, 500), (7, 7)]:
            got = pagefile.nonempty_in_range(lo, hi)
            holding = [
                page
                for page in nonempty
                if any(lo <= r.key <= hi for r in pagefile.page(page))
            ]
            # Covers every page holding a key in range, as a contiguous
            # run of nonempty pages with at most one extra boundary
            # page on the left (where lo may fall mid-page).
            assert set(holding) <= set(got)
            assert got == [p for p in nonempty if got and got[0] <= p <= got[-1]]
            extras = [p for p in got if p not in holding]
            assert len(extras) <= 1 if holding else True

    def test_empty_range_returns_empty(self, engine):
        engine.insert_many(range(10))
        assert engine.pagefile.nonempty_in_range(5, 2) == []


class TestControl2FlagRepair:
    def test_warning_flags_lowered_after_range_delete(self):
        params = DensityParams(num_pages=64, d=8, D=40, j=1)
        engine = Control2Engine(params)
        from repro.workloads import converging_inserts

        for operation in converging_inserts(300):
            engine.insert(operation.key)
        # Bulk-delete the hot region; densities collapse, flags must drop.
        engine.delete_range(-1, 10)
        engine.validate()  # includes Fact 5.1(a)

    def test_updates_continue_after_range_delete(self):
        params = DensityParams(num_pages=64, d=8, D=40)
        engine = Control2Engine(params)
        engine.insert_many(range(300))
        engine.delete_range(100, 199)
        engine.insert_many(range(1000, 1100))
        engine.validate()
        assert len(engine) == 300


class TestFacade:
    def test_dense_file_batch_api(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.insert_many([(k, str(k)) for k in range(50)])
        assert dense.delete_range(10, 19) == 10
        dense.validate()
        assert len(dense) == 40

    def test_macro_engine_batch_api(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=12)  # macro blocks
        dense.insert_many(range(100))
        assert dense.delete_range(0, 49) == 50
        dense.validate()
        assert len(dense) == 50
