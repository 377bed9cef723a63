"""Unit tests for the in-memory (columnar) page."""

import pytest

from repro.core.errors import DuplicateKeyError, RecordNotFoundError
from repro.records import Record
from repro.storage.page import Page


def make_page(*keys):
    return Page(Record(key) for key in keys)


class TestPageBasics:
    def test_starts_empty(self):
        page = Page()
        assert page.is_empty
        assert len(page) == 0

    def test_insert_keeps_key_order(self):
        page = make_page(5, 1, 3)
        assert [record.key for record in page] == [1, 3, 5]

    def test_min_and_max_key(self):
        page = make_page(4, 2, 9)
        assert page.min_key == 2
        assert page.max_key == 9

    def test_duplicate_insert_raises(self):
        page = make_page(1)
        with pytest.raises(DuplicateKeyError):
            page.insert(Record(1))

    def test_contains_and_get(self):
        page = make_page(1, 2)
        assert page.contains(2)
        assert not page.contains(3)
        assert page.get(2) == Record(2)
        assert page.get(3) is None

    def test_remove_returns_the_record(self):
        page = Page([Record(1, "a"), Record(2, "b")])
        assert page.remove(1) == Record(1, "a")
        assert [record.key for record in page] == [2]

    def test_remove_missing_raises(self):
        page = make_page(1)
        with pytest.raises(RecordNotFoundError):
            page.remove(99)

    def test_replace_swaps_value_in_place(self):
        page = Page([Record(1, "old")])
        old = page.replace(Record(1, "new"))
        assert old.value == "old"
        assert page.get(1).value == "new"

    def test_replace_missing_raises(self):
        page = make_page(1)
        with pytest.raises(RecordNotFoundError):
            page.replace(Record(2, "x"))

    def test_records_returns_a_copy(self):
        page = make_page(1)
        snapshot = page.records()
        snapshot.append(Record(99))
        assert len(page) == 1


class TestPageBatchMoves:
    def test_take_lowest(self):
        page, dest = make_page(1, 2, 3, 4), Page()
        assert page.take_lowest_into(dest, 2) == 2
        assert [record.key for record in dest] == [1, 2]
        assert [record.key for record in page] == [3, 4]

    def test_take_highest(self):
        page, dest = make_page(1, 2, 3, 4), Page()
        assert page.take_highest_into(dest, 3) == 3
        assert [record.key for record in dest] == [2, 3, 4]
        assert [record.key for record in page] == [1]

    def test_take_more_than_available(self):
        page, dest = make_page(1, 2), Page()
        assert page.take_lowest_into(dest, 10) == 2
        assert page.is_empty
        assert dest.take_highest_into(page, 10) == 2
        assert dest.is_empty
        assert [record.key for record in page] == [1, 2]

    def test_take_zero(self):
        page, dest = make_page(1), Page()
        assert page.take_highest_into(dest, 0) == 0
        assert len(page) == 1
        assert dest.is_empty

    def test_extend_high_appends(self):
        page = make_page(1, 2)
        page.extend_high([Record(10), Record(20)])
        assert [record.key for record in page] == [1, 2, 10, 20]

    def test_extend_high_rejects_order_violation(self):
        page = make_page(5)
        with pytest.raises(ValueError):
            page.extend_high([Record(3)])

    def test_extend_into_empty_page(self):
        page = Page()
        page.extend_high([Record(0), Record(1)])
        assert [record.key for record in page] == [0, 1]

    def test_clear_returns_everything(self):
        page = make_page(3, 1)
        cleared = page.clear()
        assert [record.key for record in cleared] == [1, 3]
        assert page.is_empty

    def test_take_lowest_into_appends_above_dest(self):
        source = Page([Record(10, "a"), Record(11, "b"), Record(12, "c")])
        dest = make_page(1, 2)
        assert source.take_lowest_into(dest, 2) == 2
        assert dest.records() == [
            Record(1), Record(2), Record(10, "a"), Record(11, "b")
        ]
        assert source.records() == [Record(12, "c")]

    def test_take_highest_into_prepends_below_dest(self):
        source, dest = make_page(1, 2, 3), make_page(10)
        assert source.take_highest_into(dest, 5) == 3
        assert [record.key for record in dest] == [1, 2, 3, 10]
        assert source.is_empty

    def test_take_into_zero_moves_nothing(self):
        source, dest = make_page(5), make_page(1)
        assert source.take_lowest_into(dest, 0) == 0
        assert source.take_highest_into(dest, 0) == 0
        assert [len(source), len(dest)] == [1, 1]

    def test_take_into_rejects_order_violation_untouched(self):
        source, dest = make_page(5, 6), make_page(1, 7)
        with pytest.raises(ValueError):
            source.take_lowest_into(dest, 1)
        with pytest.raises(ValueError):
            source.take_highest_into(dest, 1)
        assert [record.key for record in source] == [5, 6]
        assert [record.key for record in dest] == [1, 7]
