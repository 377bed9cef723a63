"""Unit tests for the slotted on-disk page store."""


import re

import pytest

from repro.records import Record
from repro.storage.backend import DiskStore
from repro.storage.ondisk import (
    CorruptPageError,
    DiskPagedStore,
    HEADER,
    PageOverflowError,
    SLOT_HEADER,
    StorageError,
)
from repro.storage.pagefile import PageFile


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.dsf")


class TestLifecycle:
    def test_create_and_reopen_preserves_geometry(self, path):
        store = DiskPagedStore.create(path, num_pages=8, d=4, D=16, j=7)
        store.close()
        reopened = DiskPagedStore.open(path)
        assert (reopened.num_pages, reopened.d, reopened.D, reopened.j) == (
            8, 4, 16, 7,
        )
        reopened.close()

    def test_create_refuses_to_clobber(self, path):
        DiskPagedStore.create(path, num_pages=2, d=1, D=4).close()
        with pytest.raises(StorageError):
            DiskPagedStore.create(path, num_pages=2, d=1, D=4)
        DiskPagedStore.create(path, num_pages=2, d=1, D=4, overwrite=True).close()

    def test_open_missing_file(self, path):
        with pytest.raises(FileNotFoundError):
            DiskPagedStore.open(path)

    def test_open_rejects_bad_magic(self, path):
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 60)
        with pytest.raises(CorruptPageError):
            DiskPagedStore.open(path)

    def test_open_rejects_truncated_header(self, path):
        with open(path, "wb") as handle:
            handle.write(b"DS")
        with pytest.raises(CorruptPageError):
            DiskPagedStore.open(path)

    def test_context_manager_closes(self, path):
        with DiskPagedStore.create(path, num_pages=2, d=1, D=4) as store:
            assert not store.closed
        assert store.closed

    def test_operations_after_close_fail(self, path):
        store = DiskPagedStore.create(path, num_pages=2, d=1, D=4)
        store.close()
        with pytest.raises(StorageError):
            store.read_page(1)
        with pytest.raises(StorageError):
            store.write_page(1, [])


class TestPageIO:
    def test_fresh_pages_are_empty(self, path):
        with DiskPagedStore.create(path, num_pages=4, d=2, D=8) as store:
            assert all(store.read_page(p) == [] for p in range(1, 5))

    def test_write_read_roundtrip(self, path):
        records = [Record(1, "a"), Record(2, b"\x00")]
        with DiskPagedStore.create(path, num_pages=4, d=2, D=8) as store:
            store.write_page(3, records)
            assert store.read_page(3) == records
            assert store.read_page(2) == []

    def test_roundtrip_survives_reopen(self, path):
        records = [Record(k, k * 2) for k in range(5)]
        with DiskPagedStore.create(path, num_pages=4, d=2, D=8) as store:
            store.write_page(1, records)
        with DiskPagedStore.open(path) as store:
            assert store.read_page(1) == records

    def test_out_of_range_page(self, path):
        with DiskPagedStore.create(path, num_pages=4, d=2, D=8) as store:
            with pytest.raises(IndexError):
                store.read_page(0)
            with pytest.raises(IndexError):
                store.write_page(5, [])

    def test_oversized_payload_rejected(self, path):
        with DiskPagedStore.create(
            path, num_pages=2, d=1, D=2, slot_capacity=64
        ) as store:
            with pytest.raises(PageOverflowError):
                store.write_page(1, [Record(1, "x" * 100)])

    @pytest.mark.parametrize("short", [1, 4, 7])
    def test_overflow_names_the_frame_it_checks(self, path, short):
        """A payload less than 8 bytes under the slot still overflows
        once its 8-byte slot header is added; the message reports that
        frame, not the payload."""
        with DiskPagedStore.create(
            path, num_pages=2, d=1, D=2, slot_capacity=64
        ) as store:
            with pytest.raises(PageOverflowError) as raised:
                store.write_page_payload(1, b"x" * (64 - short))
        reported = int(re.search(r"(\d+) bytes", str(raised.value)).group(1))
        assert reported == 64 - short + SLOT_HEADER.size > 64
        assert "64-byte slot" in str(raised.value)

    def test_corrupted_payload_detected(self, path):
        with DiskPagedStore.create(path, num_pages=2, d=2, D=8) as store:
            store.write_page(1, [Record(1, "payload")])
            offset = HEADER.size + SLOT_HEADER.size + 2
            slot_capacity = store.slot_capacity
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\xde\xad")
        with DiskPagedStore.open(path) as store:
            with pytest.raises(CorruptPageError, match="checksum"):
                store.read_page(1)
            assert store.verify_all() == [1]
        del slot_capacity

    def test_verify_all_clean_store(self, path):
        with DiskPagedStore.create(path, num_pages=3, d=2, D=8) as store:
            store.write_page(2, [Record(9)])
            assert store.verify_all() == []


class TestPageFileIntegration:
    def test_disk_store_mirrors_mutations(self, path):
        store = DiskStore.create(path, num_pages=8, d=4, D=16)
        pagefile = PageFile(8, store=store)
        pagefile.insert_record(3, Record(30))
        pagefile.insert_record(3, Record(31))
        pagefile.insert_record(5, Record(50))
        pagefile.move_records(5, 4, 1)
        assert [r.key for r in store.raw.read_page(3)] == [30, 31]
        assert [r.key for r in store.raw.read_page(4)] == [50]
        assert store.raw.read_page(5) == []
        store.close()

    def test_pagefile_rejects_geometry_mismatch(self, path):
        store = DiskStore.create(path, num_pages=8, d=4, D=16)
        with pytest.raises(ValueError):
            PageFile(4, store=store)
        store.close()

    def test_reopen_rebuilds_directory(self, path):
        raw = DiskPagedStore.create(path, num_pages=8, d=4, D=16)
        raw.write_page(2, [Record(20), Record(21)])
        raw.write_page(6, [Record(60)])
        raw.close()
        store = DiskStore.open(path)
        pagefile = PageFile(8, store=store)
        total = pagefile.rebuild_directory()
        assert total == 3
        assert pagefile.nonempty_pages() == [2, 6]
        assert pagefile.locate(21) == 2
        store.close()

    def test_redistribute_is_persisted(self, path):
        store = DiskStore.create(path, num_pages=4, d=4, D=16)
        pagefile = PageFile(4, store=store)
        pagefile.load_page(1, [Record(k) for k in range(8)])
        pagefile.redistribute(1, 4)
        assert [len(store.raw.read_page(p)) for p in range(1, 5)] == [2, 2, 2, 2]
        store.close()
