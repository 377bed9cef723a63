"""A sequential file with overflow chaining (the Wiederhold heuristic).

The primary area is a sequential file of ``M`` pages loaded at some fill
factor.  When an insertion lands on a full primary page, the new record
goes to an *overflow page* chained off that primary page; overflow pages
are allocated at the far end of the disk (pages ``M+1, M+2, ...``), so
every chained access pays a long seek.  This is the organization the
paper's introduction declares "unsuitable ... in many dynamic
environments": a burst of insertions into a narrow key range makes one
chain arbitrarily long, and stream retrievals through that range lose
the sequential-access advantage entirely.  Benchmark EXP-W3 measures
exactly that degradation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..core.errors import (
    ConfigurationError,
    DuplicateKeyError,
    RecordNotFoundError,
    UsageError,
)
from ..records import Record, unique_sorted_records
from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.disk import SimulatedDisk
from ..storage.page import Page


class OverflowChainFile:
    """Primary sequential area plus per-page overflow chains."""

    algorithm_name = "overflow-chained sequential file"

    def __init__(
        self,
        num_primary_pages: int,
        capacity: int,
        model: CostModel = PAGE_ACCESS_MODEL,
    ):
        if num_primary_pages < 1 or capacity < 1:
            raise ConfigurationError("need at least one page and positive capacity")
        self.num_primary_pages = num_primary_pages
        self.capacity = capacity
        self.disk = SimulatedDisk(num_primary_pages, model)
        self._primary: List[Page] = [Page() for _ in range(num_primary_pages + 1)]
        # chains[primary_page] = list of overflow page numbers, in
        # allocation order; _overflow[page_number] = its Page.
        self.chains: Dict[int, List[int]] = {}
        self._overflow: Dict[int, Page] = {}
        self.size = 0

    @property
    def stats(self):
        return self.disk.stats

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, records) -> None:
        """Spread sorted records evenly over the primary area."""
        if self.size:
            raise UsageError("bulk_load requires an empty file")
        loaded = unique_sorted_records(records)
        total = len(loaded)
        pages = self.num_primary_pages
        cursor = 0
        for page in range(1, pages + 1):
            upto = (page * total) // pages
            chunk = loaded[cursor:upto]
            cursor = upto
            if len(chunk) > self.capacity:
                raise UsageError(
                    "bulk_load fill exceeds page capacity; use more pages"
                )
            if chunk:
                self._primary[page].extend_high(chunk)
                self.disk.write(page)
        self.size = total

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    def _home_page(self, key) -> int:
        """Primary page whose key interval owns ``key`` (free directory).

        The primary area's key boundaries are static after bulk load (a
        record's home never moves), so the directory of primary minimum
        keys is in-core, as it would be in a real ISAM-style file.
        """
        lo, hi = 1, self.num_primary_pages
        best = 1
        while lo <= hi:
            mid = (lo + hi) // 2
            page = self._primary[mid]
            if page.is_empty:
                # Probe outward for a non-empty neighbour deterministically.
                left = mid - 1
                while left >= lo and self._primary[left].is_empty:
                    left -= 1
                if left < lo:
                    lo = mid + 1
                    continue
                mid = left
                page = self._primary[mid]
            if page.min_key <= key:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def _allocate_overflow_page(self, home: int) -> int:
        page_number = self.disk.extend(1)
        self._overflow[page_number] = Page()
        self.chains.setdefault(home, []).append(page_number)
        return page_number

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert into the home page, spilling to its overflow chain when full."""
        record = Record(key, value)
        home = self._home_page(key)
        primary = self._primary[home]
        self.disk.read(home)
        if self._find_in_chain(home, key, charge=False) is not None or (
            primary.contains(key)
        ):
            raise DuplicateKeyError(key)
        if len(primary) < self.capacity:
            primary.insert(record)
            self.disk.write(home)
        else:
            chain = self.chains.get(home, [])
            if chain:
                tail = chain[-1]
                self.disk.read(tail)
                if len(self._overflow[tail]) < self.capacity:
                    self._overflow[tail].insert(record)
                    self.disk.write(tail)
                else:
                    fresh = self._allocate_overflow_page(home)
                    self._overflow[fresh].insert(record)
                    self.disk.write(fresh)
            else:
                fresh = self._allocate_overflow_page(home)
                self._overflow[fresh].insert(record)
                self.disk.write(fresh)
        self.size += 1

    def _find_in_chain(self, home: int, key, charge: bool = True) -> Optional[int]:
        """Return the overflow page holding ``key``, scanning the chain."""
        for page_number in self.chains.get(home, []):
            if charge:
                self.disk.read(page_number)
            if self._overflow[page_number].contains(key):
                return page_number
        return None

    def delete(self, key) -> Record:
        """Delete ``key`` from the primary page or its chain."""
        home = self._home_page(key)
        self.disk.read(home)
        if self._primary[home].contains(key):
            record = self._primary[home].remove(key)
            self.disk.write(home)
            self.size -= 1
            return record
        page_number = self._find_in_chain(home, key)
        if page_number is None:
            raise RecordNotFoundError(key)
        record = self._overflow[page_number].remove(key)
        self.disk.write(page_number)
        self.size -= 1
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search(self, key) -> Optional[Record]:
        """Return the record with ``key`` (primary then chain) or ``None``."""
        home = self._home_page(key)
        self.disk.read(home)
        found = self._primary[home].get(key)
        if found is not None:
            return found
        page_number = self._find_in_chain(home, key)
        if page_number is None:
            return None
        return self._overflow[page_number].get(key)

    def __contains__(self, key) -> bool:
        return self.search(key) is not None

    def range_scan(self, lo_key, hi_key) -> Iterator[Record]:
        """Stream the range in key order, chains included.

        For every primary page intersecting the range, the whole chain
        must be read and merged before any record can be emitted in
        order — each chained page sits at the end of the disk, so the
        arm ping-pongs between the primary area and the overflow area.
        """
        start = self._home_page(lo_key)
        for home in range(start, self.num_primary_pages + 1):
            primary = self._primary[home]
            chain = self.chains.get(home, [])
            if primary.is_empty and not chain:
                continue
            if not primary.is_empty and primary.min_key > hi_key:
                break
            self.disk.read(home)
            gathered = primary.records()
            for page_number in chain:
                self.disk.read(page_number)
                gathered.extend(self._overflow[page_number].records())
            gathered.sort(key=lambda record: record.key)
            for record in gathered:
                if record.key < lo_key:
                    continue
                if record.key > hi_key:
                    return
                yield record

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def chain_lengths(self) -> List[int]:
        """Overflow-chain length for every primary page."""
        return [
            len(self.chains.get(home, []))
            for home in range(1, self.num_primary_pages + 1)
        ]

    def longest_chain(self) -> int:
        """Length of the longest overflow chain (pages)."""
        lengths = self.chain_lengths()
        return max(lengths) if lengths else 0

    def overflow_pages_used(self) -> int:
        """Total overflow pages allocated so far."""
        return len(self._overflow)
