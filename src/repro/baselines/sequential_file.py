"""The classical packed sequential file (the paper's Section 1 strawman).

Records are stored fully packed: every page holds exactly ``capacity``
records except the last.  An insertion or deletion in the middle shifts
every subsequent record by one slot, i.e. rewrites every page from the
affected one to the end of the file — the "complete reorganization after
the insertion or deletion of a single record" that Wiederhold and the
paper's introduction use to motivate dense files.

The implementation rides on the same :class:`~repro.storage.pagefile.PageFile`
substrate as the dense file, so costs are directly comparable.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..core.errors import (
    ConfigurationError,
    FileFullError,
    RecordNotFoundError,
    UsageError,
)
from ..records import Record, unique_sorted_records
from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.pagefile import PageFile


class PackedSequentialFile:
    """A fully packed sequential file with ripple-shift updates."""

    algorithm_name = "packed sequential file"

    def __init__(
        self,
        num_pages: int,
        capacity: int,
        model: CostModel = PAGE_ACCESS_MODEL,
    ):
        if capacity < 1:
            raise ConfigurationError("page capacity must be positive")
        self.capacity = capacity
        self.pagefile = PageFile(num_pages, model=model)
        self.num_pages = num_pages
        self.size = 0

    @property
    def max_records(self) -> int:
        return self.num_pages * self.capacity

    @property
    def stats(self):
        return self.pagefile.disk.stats

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, records) -> None:
        """Pack sorted records into a prefix of the pages."""
        if self.size:
            raise UsageError("bulk_load requires an empty file")
        loaded = unique_sorted_records(records)
        if len(loaded) > self.max_records:
            raise FileFullError("records exceed file capacity")
        for index in range(0, len(loaded), self.capacity):
            page = index // self.capacity + 1
            self.pagefile.load_page(page, loaded[index : index + self.capacity])
        self.size = len(loaded)

    # ------------------------------------------------------------------
    # updates (each one reorganizes the tail of the file)
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert a record, rippling the tail of the file rightward."""
        if self.size >= self.max_records:
            raise FileFullError("sequential file is full")
        record = Record(key, value)
        page = self.pagefile.locate(key)
        if page is None:
            page = 1
        self.pagefile.insert_record(page, record)
        self.size += 1
        self._ripple_right(page)

    def _ripple_right(self, page: int) -> None:
        """Push the overflow of ``page`` rightward until the file repacks."""
        current = page
        while (
            current <= self.num_pages
            and self.pagefile.page_len(current) > self.capacity
        ):
            if current == self.num_pages:
                raise FileFullError("overflowed the final page")
            self.pagefile.move_records(current, current + 1, 1)
            current += 1

    def delete(self, key) -> Record:
        """Delete ``key``, pulling the tail leftward to stay packed."""
        page = self.pagefile.locate(key)
        if page is None:
            raise RecordNotFoundError(key)
        record = self.pagefile.remove_record(page, key)
        self.size -= 1
        self._ripple_left(page)
        return record

    def _ripple_left(self, page: int) -> None:
        """Pull one record leftward per page to keep the file packed."""
        current = page
        while current < self.num_pages and (
            self.pagefile.page_len(current) < self.capacity
            and self.pagefile.page_len(current + 1) > 0
        ):
            self.pagefile.move_records(current + 1, current, 1)
            current += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search(self, key) -> Optional[Record]:
        """Return the record with ``key`` or ``None``."""
        page = self.pagefile.locate(key)
        if page is None:
            return None
        return self.pagefile.get(page, key)

    def __contains__(self, key) -> bool:
        return self.search(key) is not None

    def range_scan(self, lo_key, hi_key) -> Iterator[Record]:
        """Stream records with ``lo_key <= key <= hi_key`` in order."""
        return self.pagefile.scan_range(lo_key, hi_key)

    def scan_count(self, start_key, count: int) -> List[Record]:
        """Return up to ``count`` records with key >= ``start_key``."""
        return self.pagefile.scan_count(start_key, count)

    def occupancies(self) -> List[int]:
        """Records per page, as a list of length M."""
        return self.pagefile.occupancies()
