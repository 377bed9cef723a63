"""Unit tests for the PageFile physical layer."""

import pytest

from repro.core.errors import UsageError
from repro.records import Record
from repro.storage.pagefile import PageFile


def load(pagefile, layout):
    """layout: {page: [keys]}"""
    for page, keys in layout.items():
        pagefile.load_page(page, [Record(key) for key in keys])


class TestDirectory:
    def test_nonempty_pages_track_mutations(self):
        pf = PageFile(8)
        load(pf, {2: [10], 5: [20, 21]})
        assert pf.nonempty_pages() == [2, 5]
        pf.remove_record(2, 10)
        assert pf.nonempty_pages() == [5]
        pf.insert_record(7, Record(30))
        assert pf.nonempty_pages() == [5, 7]

    def test_next_nonempty_right_and_left(self):
        pf = PageFile(8)
        load(pf, {2: [10], 5: [20]})
        assert pf.next_nonempty_right(2) == 5
        assert pf.next_nonempty_right(5) is None
        assert pf.next_nonempty_left(5) == 2
        assert pf.next_nonempty_left(2) is None

    def test_occupancies_vector(self):
        pf = PageFile(4)
        load(pf, {1: [1, 2], 3: [3]})
        assert pf.occupancies() == [2, 0, 1, 0]

    def test_total_records(self):
        pf = PageFile(4)
        load(pf, {1: [1, 2], 4: [9]})
        assert pf.total_records() == 3


class TestLocate:
    def test_empty_file_returns_none(self):
        assert PageFile(4).locate(5) is None

    def test_locates_owning_page(self):
        pf = PageFile(8)
        load(pf, {2: [10, 19], 5: [20, 29], 7: [30]})
        assert pf.locate(15) == 2
        assert pf.locate(20) == 5
        assert pf.locate(25) == 5
        assert pf.locate(99) == 7

    def test_key_below_everything_returns_first_nonempty(self):
        pf = PageFile(8)
        load(pf, {3: [10]})
        assert pf.locate(-5) == 3

    def test_locate_charges_one_verification_read(self):
        pf = PageFile(64)
        load(pf, {page: [page * 100] for page in range(1, 65)})
        pf.disk.stats.reset()
        pf.locate(3200)
        # The directory search is in-core; only the candidate page is read.
        assert pf.disk.stats.reads == 1

    def test_locate_in_core_is_free(self):
        pf = PageFile(64)
        load(pf, {page: [page * 100] for page in range(1, 65)})
        pf.disk.stats.reset()
        assert pf.locate_in_core(3200) == pf.locate(3200)
        assert pf.disk.stats.reads == 1  # only the charged variant read

    def test_locate_skips_empty_pages(self):
        pf = PageFile(16)
        load(pf, {1: [10], 16: [20]})
        assert pf.locate(15) == 1
        assert pf.locate(20) == 16


class TestMoveRecords:
    def test_move_left_takes_lowest_keys(self):
        pf = PageFile(4)
        load(pf, {3: [10, 20, 30]})
        moved = pf.move_records(3, 1, 2)
        assert moved == 2
        assert [r.key for r in pf.read_page(1)] == [10, 20]
        assert [r.key for r in pf.read_page(3)] == [30]

    def test_move_right_takes_highest_keys(self):
        pf = PageFile(4)
        load(pf, {1: [10, 20, 30]})
        pf.move_records(1, 4, 2)
        assert [r.key for r in pf.read_page(1)] == [10]
        assert [r.key for r in pf.read_page(4)] == [20, 30]

    def test_move_into_populated_page_preserves_order(self):
        pf = PageFile(4)
        load(pf, {1: [1, 2], 3: [5, 6]})
        pf.move_records(3, 1, 1)
        assert [r.key for r in pf.read_page(1)] == [1, 2, 5]

    def test_move_charges_three_accesses(self):
        pf = PageFile(4)
        load(pf, {3: [10, 20]})
        pf.disk.stats.reset()
        pf.move_records(3, 1, 1)
        assert pf.disk.stats.reads == 1
        assert pf.disk.stats.writes == 2

    def test_move_zero_or_negative_is_noop(self):
        pf = PageFile(4)
        load(pf, {3: [10]})
        assert pf.move_records(3, 1, 0) == 0

    def test_move_to_same_page_rejected(self):
        pf = PageFile(4)
        with pytest.raises(ValueError):
            pf.move_records(2, 2, 1)

    def test_move_caps_at_source_size(self):
        pf = PageFile(4)
        load(pf, {3: [10, 20]})
        assert pf.move_records(3, 1, 99) == 2
        assert pf.is_empty_page(3)

    @pytest.mark.parametrize("source,dest", [(3, 1), (1, 3)])
    def test_move_across_a_nonempty_page_rejected(self, source, dest):
        pf = PageFile(4)
        load(pf, {1: [1], 2: [5], 3: [9]})
        pf.disk.stats.reset()
        gets = pf.store.stats()["gets"]
        with pytest.raises(UsageError, match="page 2 between them"):
            pf.move_records(source, dest, 1)
        assert pf.disk.stats.page_accesses == 0
        assert pf.store.stats()["gets"] == gets
        assert pf.snapshot() == [
            (1, [Record(1)]), (2, [Record(5)]), (3, [Record(9)])
        ]

    @pytest.mark.parametrize(
        "layout,source,dest,count",
        [
            ({3: [10, 20]}, 3, 1, 1),  # leftward, dest enters
            ({3: [10, 20]}, 3, 1, 2),  # leftward, dest takes source's entry
            ({1: [1], 3: [10, 20]}, 3, 1, 1),  # leftward, source min moves
            ({1: [1], 3: [10, 20]}, 3, 1, 2),  # leftward, source leaves
            ({1: [10, 20]}, 1, 4, 1),  # rightward, dest enters
            ({1: [10, 20]}, 1, 4, 2),  # rightward, dest takes source's entry
            ({1: [10, 20], 4: [30]}, 1, 4, 1),  # rightward, dest min moves
            ({1: [10, 20], 4: [30]}, 1, 4, 2),  # rightward, source leaves
            ({1: [1], 4: [30]}, 3, 2, 1),  # empty source: nothing moves
        ],
    )
    def test_directory_matches_a_rebuild(self, layout, source, dest, count):
        pf = PageFile(4)
        load(pf, layout)
        pf.move_records(source, dest, count)
        nonempty, mins = pf.nonempty_pages(), list(pf._mins)
        pf.rebuild_directory()
        assert (nonempty, mins) == (pf.nonempty_pages(), pf._mins)


class TestRedistribute:
    def test_even_spread(self):
        pf = PageFile(4)
        load(pf, {1: list(range(10))})
        pf.redistribute(1, 4)
        assert pf.occupancies() == [3, 3, 2, 2]

    def test_spread_preserves_global_order(self):
        pf = PageFile(4)
        load(pf, {2: [5, 6, 7, 8], 3: [9]})
        pf.redistribute(1, 4)
        collected = [r.key for _, records in pf.snapshot() for r in records]
        assert collected == [5, 6, 7, 8, 9]

    def test_partial_range(self):
        pf = PageFile(6)
        load(pf, {1: [0], 3: [10, 11, 12, 13], 6: [99]})
        pf.redistribute(3, 4)
        assert pf.occupancies() == [1, 0, 2, 2, 0, 1]

    def test_redistribute_charges_per_page(self):
        pf = PageFile(8)
        load(pf, {1: [1, 2, 3]})
        pf.disk.stats.reset()
        pf.redistribute(1, 4)
        assert pf.disk.stats.reads == 4
        assert pf.disk.stats.writes == 4

    def test_empty_range_rejected(self):
        pf = PageFile(4)
        with pytest.raises(ValueError):
            pf.redistribute(3, 2)


class TestScans:
    def test_scan_range_inclusive_bounds(self):
        pf = PageFile(4)
        load(pf, {1: [1, 2], 2: [3, 4], 4: [5]})
        assert [r.key for r in pf.scan_range(2, 4)] == [2, 3, 4]

    def test_scan_range_empty_file(self):
        assert list(PageFile(4).scan_range(0, 10)) == []

    def test_scan_range_is_sequential(self):
        pf = PageFile(8)
        load(pf, {page: [page * 10, page * 10 + 1] for page in range(1, 9)})
        pf.disk.trace.enable()
        pf.disk.stats.reset()
        list(pf.scan_range(10, 81))
        pages = pf.disk.trace.pages()
        # After the binary search settles, the sweep visits ascending pages.
        sweep = pages[-8:]
        assert sweep == sorted(sweep)

    def test_scan_count_limits_results(self):
        pf = PageFile(4)
        load(pf, {1: [1, 2, 3], 2: [4, 5]})
        result = pf.scan_count(2, 3)
        assert [r.key for r in result] == [2, 3, 4]

    def test_scan_count_past_end(self):
        pf = PageFile(4)
        load(pf, {1: [1]})
        assert [r.key for r in pf.scan_count(0, 10)] == [1]

    def test_iter_all_yields_key_order(self):
        pf = PageFile(4)
        load(pf, {2: [3, 4], 1: [1, 2]})
        assert [r.key for r in pf.iter_all()] == [1, 2, 3, 4]


class TestGuards:
    def test_needs_at_least_one_page(self):
        with pytest.raises(ValueError):
            PageFile(0)

    def test_disk_smaller_than_file_rejected(self):
        from repro.storage.disk import SimulatedDisk

        with pytest.raises(ValueError):
            PageFile(10, disk=SimulatedDisk(5))
