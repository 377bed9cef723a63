"""Tests for the DenseSequentialFile public facade."""

import pytest

from repro import (
    ConfigurationError,
    Control1Engine,
    Control2Engine,
    DenseSequentialFile,
    MacroBlockControl2Engine,
    Record,
    build_engine,
)
from repro.core.errors import RecordNotFoundError


class TestEngineSelection:
    def test_control2_selected_by_default(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        assert isinstance(dense.engine, Control2Engine)
        assert not isinstance(dense.engine, MacroBlockControl2Engine)

    def test_control1_on_request(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40, algorithm="control1")
        assert isinstance(dense.engine, Control1Engine)

    def test_macro_blocks_when_slack_too_small(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=12)
        assert isinstance(dense.engine, MacroBlockControl2Engine)

    def test_macro_blocks_can_be_refused(self, tmp_path):
        """A file on disk cannot hold macro-blocks: the geometry is
        refused before the file is made."""
        path = tmp_path / "macro.dsf"
        with pytest.raises(ConfigurationError, match="macro-blocks"):
            DenseSequentialFile(
                num_pages=64, d=8, D=12, backend="disk", path=str(path)
            )
        assert not path.exists()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            build_engine(64, 8, 40, algorithm="btree")

    def test_explicit_j_passed_through(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40, j=25)
        assert dense.params.shift_budget == 25


class TestDictionaryApi:
    @pytest.fixture
    def dense(self):
        return DenseSequentialFile(num_pages=64, d=8, D=40)

    def test_insert_search_roundtrip(self, dense):
        dense.insert(10, "ten")
        found = dense.search(10)
        assert found == Record(10, "ten")

    def test_contains_and_len(self, dense):
        dense.insert(1)
        dense.insert(2)
        assert 1 in dense
        assert 3 not in dense
        assert len(dense) == 2

    def test_delete_returns_record(self, dense):
        dense.insert(5, "five")
        assert dense.delete(5) == Record(5, "five")
        assert 5 not in dense

    def test_update_replaces_value_without_moving(self, dense):
        dense.insert(7, "old")
        old = dense.update(7, "new")
        assert old.value == "old"
        assert dense.search(7).value == "new"
        assert len(dense) == 1

    def test_update_missing_key_raises(self, dense):
        with pytest.raises(RecordNotFoundError):
            dense.update(123, "x")

    def test_keys_and_items_in_order(self, dense):
        for key in (5, 1, 3):
            dense.insert(key, key * 10)
        assert list(dense.keys()) == [1, 3, 5]
        assert list(dense.items()) == [(1, 10), (3, 30), (5, 50)]

    def test_string_keys_work(self, dense):
        for word in ("pear", "apple", "fig"):
            dense.insert(word)
        assert list(dense.keys()) == ["apple", "fig", "pear"]


class TestScans:
    @pytest.fixture
    def dense(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.bulk_load(range(0, 200, 2))
        return dense

    def test_range_is_inclusive_and_ordered(self, dense):
        keys = [record.key for record in dense.range(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_scan_counts_from_start_key(self, dense):
        keys = [record.key for record in dense.scan(99, 5)]
        assert keys == [100, 102, 104, 106, 108]

    def test_empty_range(self, dense):
        assert list(dense.range(1001, 2000)) == []


class TestBulkLoad:
    def test_from_records_constructor(self):
        dense = DenseSequentialFile.from_records(
            [(1, "a"), (2, "b")], num_pages=64, d=8, D=40
        )
        assert len(dense) == 2
        assert dense.search(2).value == "b"

    def test_bulk_load_spreads_uniformly(self):
        dense = DenseSequentialFile(num_pages=8, d=9, D=18, j=3)
        dense.bulk_load(range(40))
        occupancies = dense.occupancies()
        assert sum(occupancies) == 40
        assert max(occupancies) - min(occupancies) <= 1
        dense.validate()

    def test_bulk_load_then_updates(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.bulk_load(range(0, 300, 2))
        for key in range(1, 100, 2):
            dense.insert(key)
        dense.validate()
        assert len(dense) == 200

    def test_bulk_load_requires_empty_file(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.insert(1)
        with pytest.raises(ValueError):
            dense.bulk_load([2, 3])

    def test_bulk_load_respects_cap(self):
        from repro.core.errors import FileFullError

        dense = DenseSequentialFile(num_pages=16, d=4, D=20)
        with pytest.raises(FileFullError):
            dense.bulk_load(range(65))


class TestStatsSurface:
    def test_stats_count_accesses(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        dense.insert(1)
        assert dense.stats.page_accesses > 0

    def test_validate_passes_on_healthy_file(self):
        dense = DenseSequentialFile(num_pages=64, d=8, D=40)
        for key in range(100):
            dense.insert(key)
        dense.validate()
