"""Tests for rank / select / count_range / compact."""

import random
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Control1Engine,
    Control2Engine,
    DenseSequentialFile,
    DensityParams,
    MacroBlockControl2Engine,
)

#: Every engine, at geometries holding up to 128 records.  The last
#: one has too little slack for plain CONTROL 2 (8 <= 3 * 5), so its
#: pages are macro-blocks of K = 2 physical pages.
ENGINES = {
    "control1": lambda: Control1Engine(DensityParams(num_pages=32, d=4, D=24)),
    "control2": lambda: Control2Engine(DensityParams(num_pages=32, d=4, D=24)),
    "macroblock": lambda: MacroBlockControl2Engine(32, 4, 12),
}


@pytest.fixture
def engine():
    engine = Control2Engine(DensityParams(num_pages=64, d=8, D=40))
    engine.insert_many(range(0, 200, 2))  # keys 0,2,...,198
    return engine


class TestRank:
    def test_rank_of_stored_key(self, engine):
        assert engine.rank(0) == 0
        assert engine.rank(10) == 5
        assert engine.rank(198) == 99

    def test_rank_of_absent_key(self, engine):
        assert engine.rank(11) == 6
        assert engine.rank(1000) == 100

    def test_rank_below_minimum(self, engine):
        assert engine.rank(-5) == 0

    def test_rank_on_empty_file(self):
        engine = Control2Engine(DensityParams(num_pages=64, d=8, D=40))
        assert engine.rank(5) == 0

    def test_rank_charges_at_most_one_access(self, engine):
        engine.stats.checkpoint("rank")
        engine.rank(100)
        assert engine.stats.delta("rank").page_accesses <= 1

    def test_rank_matches_model_randomly(self):
        rng = random.Random(4)
        keys = sorted(rng.sample(range(5000), 300))
        engine = Control2Engine(DensityParams(num_pages=64, d=8, D=48))
        engine.insert_many(keys)
        for probe in rng.sample(range(5000), 60):
            expected = sum(1 for k in keys if k < probe)
            assert engine.rank(probe) == expected


class TestSelect:
    def test_select_returns_rank_order(self, engine):
        assert engine.select(0).key == 0
        assert engine.select(5).key == 10
        assert engine.select(99).key == 198

    def test_select_out_of_range(self, engine):
        with pytest.raises(IndexError):
            engine.select(100)
        with pytest.raises(IndexError):
            engine.select(-1)

    def test_select_inverts_rank(self, engine):
        for index in (0, 17, 50, 99):
            record = engine.select(index)
            assert engine.rank(record.key) == index

    def test_select_charges_one_access(self, engine):
        engine.stats.checkpoint("select")
        engine.select(50)
        assert engine.stats.delta("select").page_accesses == 1


class TestCountRange:
    def test_counts_inclusive(self, engine):
        assert engine.count_range(10, 20) == 6  # 10,12,...,20
        assert engine.count_range(0, 198) == 100

    def test_empty_and_inverted_ranges(self, engine):
        assert engine.count_range(11, 11) == 0
        assert engine.count_range(20, 10) == 0
        assert engine.count_range(1000, 2000) == 0

    def test_single_key(self, engine):
        assert engine.count_range(10, 10) == 1

    def test_cost_is_constant_in_range_size(self, engine):
        engine.stats.checkpoint("count")
        engine.count_range(0, 198)  # the whole file
        assert engine.stats.delta("count").page_accesses <= 2

    def test_agrees_with_scan(self, engine):
        scanned = sum(1 for _ in engine.range_scan(33, 121))
        assert engine.count_range(33, 121) == scanned

    def test_random_agreement(self):
        rng = random.Random(9)
        keys = sorted(rng.sample(range(3000), 250))
        engine = Control2Engine(DensityParams(num_pages=64, d=8, D=48))
        engine.insert_many(keys)
        for _ in range(40):
            lo = rng.randrange(3000)
            hi = lo + rng.randrange(500)
            expected = sum(1 for k in keys if lo <= k <= hi)
            assert engine.count_range(lo, hi) == expected


class TestCompact:
    def test_compact_levels_the_file(self, engine):
        engine.delete_range(0, 150)  # leave a sparse left region
        engine.compact()
        occupancies = engine.occupancies()
        assert max(occupancies) - min(occupancies) <= 1
        engine.validate()

    def test_compact_preserves_contents(self, engine):
        before = [record.key for record in engine.pagefile.iter_all()]
        engine.compact()
        after = [record.key for record in engine.pagefile.iter_all()]
        assert after == before

    def test_compact_clears_warnings(self):
        params = DensityParams(num_pages=64, d=8, D=40)
        engine = Control2Engine(params)
        from repro.workloads import converging_inserts

        for operation in converging_inserts(300):
            engine.insert(operation.key)
        engine.compact()
        assert engine.warning_nodes() == []
        engine.validate()

    def test_compact_shortens_scans_after_deletions(self, engine):
        engine.delete_range(40, 180)
        engine.stats.checkpoint("before")
        list(engine.range_scan(-1, 1000))
        sparse_cost = engine.stats.delta("before").page_accesses
        engine.compact()
        engine.stats.checkpoint("after")
        list(engine.range_scan(-1, 1000))
        compact_cost = engine.stats.delta("after").page_accesses
        # Same records, fewer-or-equal pages... the compacted layout
        # spreads over all M pages uniformly, so the comparison that
        # matters is pages-per-record; with most records deleted the
        # sparse layout touches nearly as many pages for far fewer
        # records.
        assert compact_cost <= sparse_cost + engine.params.num_pages

    def test_updates_continue_after_compact(self, engine):
        engine.compact()
        engine.insert_many(range(1001, 1050))
        engine.delete(0)
        engine.validate()


class TestFacadeAndPersistent:
    def test_facade_surface(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.insert_many(range(10))
        assert dense.rank(5) == 5
        assert dense.select(5).key == 5
        assert dense.count_range(2, 7) == 6
        assert dense.compact() == 64
        dense.validate()

    def test_persistent_surface(self, tmp_path):
        from repro.persistent import PersistentDenseFile

        path = str(tmp_path / "os.dsf")
        with PersistentDenseFile.create(path, num_pages=64, d=8, D=40) as f:
            f.insert_many(range(30))
            assert f.rank(10) == 10
            assert f.select(3).key == 3
            assert f.count_range(5, 9) == 5
            f.compact()
        with PersistentDenseFile.open(path) as f:
            f.validate()
            assert len(f) == 30


def _key(record):
    return None if record is None else record.key


class TestAgainstTheModel:
    """Order statistics on every engine equal a sorted list's, at a
    pinned charge: ``rank`` reads the boundary page, ``count_range``
    its one or two boundary pages, ``select`` the owning page, and
    ``successor``/``predecessor`` at most two pages."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(ENGINES)),
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 300)), max_size=160
        ),
        probes=st.lists(st.integers(-5, 305), min_size=1, max_size=12),
    )
    def test_queries_and_charges(self, name, operations, probes):
        engine = ENGINES[name]()
        model = set()
        for insert, key in operations:
            if insert and key not in model and len(model) < 128:
                engine.insert(key)
                model.add(key)
            elif not insert and key in model:
                engine.delete(key)
                model.discard(key)
        model = sorted(model)
        meter = engine.stats

        def charged(query, *args):
            meter.checkpoint("query")
            result = query(*args)
            return result, meter.delta("query").page_accesses

        locate = engine.pagefile.locate_in_core
        nonempty = 1 if model else 0
        for lo, hi in zip(probes, probes[1:] + probes[:1]):
            assert charged(engine.rank, lo) == (
                bisect_left(model, lo), nonempty
            )
            expected = max(0, bisect_right(model, hi) - bisect_left(model, lo))
            pages = 0 if hi < lo or not model else 1 + (locate(lo) != locate(hi))
            assert charged(engine.count_range, lo, hi) == (expected, pages)
            above = bisect_right(model, lo)
            record, cost = charged(engine.successor, lo)
            assert cost <= 2
            assert _key(record) == (model[above] if above < len(model) else None)
            below = bisect_left(model, lo)
            record, cost = charged(engine.predecessor, lo)
            assert cost <= 2
            assert _key(record) == (model[below - 1] if below else None)
        for index in range(0, len(model), 7):
            record, cost = charged(engine.select, index)
            assert (record.key, cost) == (model[index], 1)
