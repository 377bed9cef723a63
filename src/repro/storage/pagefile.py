"""``M`` consecutive pages of simulated auxiliary memory holding records.

:class:`PageFile` is the *logical* physical layer of every sequential-
file structure in this package.  It numbers pages 1..M as in the paper,
keeps records in global key order across pages, charges every logical
touch to a :class:`~repro.storage.disk.SimulatedDisk`, and maintains a
small in-memory directory (which pages are non-empty and their minimum
keys) standing in for the in-core part of the calibrator.

Where the pages physically live is delegated to a
:class:`~repro.storage.backend.PageStore` backend: in memory
(:class:`~repro.storage.backend.MemoryStore`, the default), written
through to a checksummed OS file
(:class:`~repro.storage.backend.DiskStore`), or behind a live LRU cache
(:class:`~repro.storage.backend.BufferedStore`).  The engines above are
backend-agnostic: the logical cost accounting — the quantity the
paper's theorems bound — is identical for every backend, because each
``SimulatedDisk`` charge below is paired with exactly one store touch
in the same order.

Cost accounting conventions
---------------------------
* ``locate(key)`` resolves the target page through the in-core
  directory (the calibrator machinery the paper keeps in memory) and
  charges one verification read, matching the paper's "use the
  calibrator as a binary search tree ... ``O(log M)`` [time] and
  typically only two or three page accesses" per update.
* Mutating one page charges one read plus one write of that page.
* Moving records between two pages charges a read of the source and a
  write of each of the two touched pages.
* Length/emptiness queries are free: the rank counters live in the
  in-core calibrator.
* A scan charges one read per page of its run — from the page owning
  its lower bound to the last page it needs — in one ascending sweep;
  see the scans section below.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, RecordNotFoundError, UsageError
from ..records import Record
from .backend import MemoryStore, PageStore
from .cost import CostModel, PAGE_ACCESS_MODEL
from .disk import SimulatedDisk
from .page import Page


class PageFile:
    """The record-bearing pages of one sequential file."""

    def __init__(
        self,
        num_pages: int,
        disk: Optional[SimulatedDisk] = None,
        model: CostModel = PAGE_ACCESS_MODEL,
        store: Optional[PageStore] = None,
    ):
        if num_pages < 1:
            raise ConfigurationError("a page file needs at least one page")
        self.num_pages = num_pages
        self.disk = disk if disk is not None else SimulatedDisk(num_pages, model)
        if self.disk.num_pages < num_pages:
            raise ConfigurationError("disk is smaller than the requested page file")
        self.store = store if store is not None else MemoryStore(num_pages)
        if self.store.num_pages != num_pages:
            raise ConfigurationError(
                f"store has {self.store.num_pages} pages but the page file "
                f"needs {num_pages}"
            )
        # Sorted list of non-empty page numbers; mins[i] matches it 1:1.
        self._nonempty: List[int] = []
        self._mins: List = []

    # ------------------------------------------------------------------
    # in-memory directory maintenance
    # ------------------------------------------------------------------

    def page(self, page_number: int) -> Page:
        """Uncharged view of one page (in-core bookkeeping and checkers)."""
        return self.store.peek(page_number)

    def _directory_update(self, page_number: int) -> None:
        """Re-sync the non-empty directory entry for one page."""
        # Hot path (runs after every page mutation): read the key column
        # directly instead of going through the is_empty/min_key
        # properties — same data, no descriptor calls.
        keys = self.store.peek(page_number)._keys
        nonempty = self._nonempty
        index = bisect.bisect_left(nonempty, page_number)
        present = index < len(nonempty) and nonempty[index] == page_number
        if not keys:
            if present:
                del nonempty[index]
                del self._mins[index]
        elif present:
            self._mins[index] = keys[0]
        else:
            nonempty.insert(index, page_number)
            self._mins.insert(index, keys[0])

    def rebuild_directory(self) -> int:
        """Re-sync the whole directory with the store's contents.

        Recovery path (uncharged): a durable backend materialized its
        pages from disk and the in-core directory must catch up.
        Returns the total number of records found.
        """
        self._nonempty = []
        self._mins = []
        total = 0
        for page_number in range(1, self.num_pages + 1):
            page = self.store.peek(page_number)
            if not page.is_empty:
                self._nonempty.append(page_number)
                self._mins.append(page.min_key)
                total += len(page)
        return total

    # ------------------------------------------------------------------
    # free (in-core) queries
    # ------------------------------------------------------------------

    def page_len(self, page_number: int) -> int:
        """Number of records on ``page_number`` (free: calibrator data)."""
        return len(self.store.peek(page_number))

    def is_empty_page(self, page_number: int) -> bool:
        """Whether ``page_number`` holds no records (free query)."""
        return self.store.peek(page_number).is_empty

    def total_records(self) -> int:
        """Total records across all pages (free query)."""
        return sum(len(self.store.peek(p)) for p in self._nonempty)

    def nonempty_pages(self) -> List[int]:
        """Sorted list of non-empty page numbers (copy)."""
        return list(self._nonempty)

    def occupancies(self) -> List[int]:
        """Record counts for pages 1..M, as a list of length M."""
        return [
            len(self.store.peek(p)) for p in range(1, self.num_pages + 1)
        ]

    def next_nonempty_right(self, page_number: int) -> Optional[int]:
        """Smallest non-empty page strictly greater than ``page_number``."""
        index = bisect.bisect_right(self._nonempty, page_number)
        if index < len(self._nonempty):
            return self._nonempty[index]
        return None

    def next_nonempty_left(self, page_number: int) -> Optional[int]:
        """Largest non-empty page strictly less than ``page_number``."""
        index = bisect.bisect_left(self._nonempty, page_number) - 1
        if index >= 0:
            return self._nonempty[index]
        return None

    # ------------------------------------------------------------------
    # charged physical operations
    # ------------------------------------------------------------------

    def read_page(self, page_number: int) -> List[Record]:
        """Charge one read and return a copy of the page's records."""
        self.disk.read(page_number)
        return self.store.get_page(page_number).records()

    def locate(self, key: Any) -> Optional[int]:
        """Find the page owning ``key`` for an update command.

        Returns the unique non-empty page whose key interval could
        contain ``key`` (the rightmost non-empty page whose minimum key
        is <= ``key``), or the first non-empty page when ``key`` precedes
        every stored key, or ``None`` when the file is empty.

        Cost accounting follows the paper's step 1 ("use the calibrator
        as a binary search tree ... requires O(log M) [time] and
        typically only two or three page accesses"): the binary search
        itself runs over the in-core directory, and one verification
        read of the candidate page is charged.  Together with the
        read+write charged by the subsequent mutation, an update's
        search-and-touch component is the paper's two-or-three accesses.
        """
        page = self.locate_in_core(key)
        if page is not None:
            self.disk.read(page)
            self.store.get_page(page)
        return page

    def locate_in_core(self, key: Any) -> Optional[int]:
        """Like :meth:`locate` but free of page-access charges.

        Scans start here: the page-minimum directory is core-resident
        (it is part of the calibrator machinery the paper keeps in
        memory), so positioning a stream retrieval costs no disk reads.
        Update commands use the charged :meth:`locate` instead, matching
        the paper's step-1 accounting.
        """
        if not self._nonempty:
            return None
        return self._nonempty[self._directory_index(key)]

    def _directory_index(self, key: Any) -> int:
        """Directory index of :meth:`locate_in_core` (non-empty file)."""
        index = bisect.bisect_right(self._mins, key) - 1
        return index if index > 0 else 0

    def locate_in_core_hinted(
        self, key: Any, hint: Optional[int]
    ) -> Optional[int]:
        """:meth:`locate_in_core` with a previous-destination search hint.

        Batched writes sweep the file in key order, so the destination
        of one record is almost always the destination of the previous
        one; verifying the hint (is ``hint`` still non-empty, does its
        key interval still cover ``key``?) short-circuits the directory
        binary search in that common case.  A stale hint — the page
        emptied, or maintenance moved the boundary — falls back to the
        full search, so the result always equals ``locate_in_core(key)``.
        """
        if hint is not None:
            index = bisect.bisect_left(self._nonempty, hint)
            if (
                index < len(self._nonempty)
                and self._nonempty[index] == hint
                and self._mins[index] <= key
                and (
                    index + 1 == len(self._nonempty)
                    or self._mins[index + 1] > key
                )
            ):
                return hint
        return self.locate_in_core(key)

    def nonempty_in_range(self, lo_key: Any, hi_key: Any) -> List[int]:
        """Non-empty pages whose key interval can intersect ``[lo, hi]``.

        A bisect over the in-core minimum-key directory (free of page
        charges): the result starts at the page owning ``lo_key`` and
        ends before the first page whose minimum exceeds ``hi_key`` —
        exactly the pages a range deletion or count must read, with no
        scan over the pages left of the range.
        """
        if not self._nonempty or hi_key < lo_key:
            return []
        end = bisect.bisect_right(self._mins, hi_key)
        return self._nonempty[self._directory_index(lo_key) : end]

    def get(self, page_number: int, key: Any) -> Optional[Record]:
        """Charge one read; return the record with ``key`` or ``None``."""
        self.disk.read(page_number)
        return self.store.get_page(page_number).get(key)

    def read_view(self, page_number: int) -> Page:
        """Charge one read and return the live page, for read-only use.

        The order-statistics queries look inside one page (a rank, a
        count, one record) without copying it into records first.
        """
        self.disk.read(page_number)
        return self.store.get_page(page_number)

    def min_record(self) -> Optional[Record]:
        """Smallest-keyed record (one read), or ``None`` when empty."""
        if not self._nonempty:
            return None
        return self.read_view(self._nonempty[0]).record_at(0)

    def max_record(self) -> Optional[Record]:
        """Largest-keyed record (one read), or ``None`` when empty."""
        if not self._nonempty:
            return None
        return self.read_view(self._nonempty[-1]).record_at(-1)

    def successor(self, key: Any) -> Optional[Record]:
        """Smallest record with key strictly greater than ``key``.

        Charges one read (two when the answer sits on the next page).
        """
        nonempty = self._nonempty
        if not nonempty:
            return None
        for index in range(self._directory_index(key), len(nonempty)):
            record = self.read_view(nonempty[index]).successor(key)
            if record is not None:
                return record
        return None

    def predecessor(self, key: Any) -> Optional[Record]:
        """Largest record with key strictly less than ``key``.

        Charges one read (two when the answer sits on the previous page).
        """
        nonempty = self._nonempty
        if not nonempty:
            return None
        for index in range(self._directory_index(key), -1, -1):
            record = self.read_view(nonempty[index]).predecessor(key)
            if record is not None:
                return record
        return None

    def insert_record(self, page_number: int, record: Record) -> None:
        """Insert ``record`` into ``page_number`` (one read + one write)."""
        self.insert_kv(page_number, record.key, record.value)

    def insert_kv(self, page_number: int, key: Any, value: Any = None) -> None:
        """:meth:`insert_record` without materializing the Record.

        Identical charges (one read + one write) and identical state;
        on a packed page the record tuple is never built at all.
        """
        self.disk.read(page_number)
        index = self.store.get_page(page_number).insert_kv(key, value)
        self.disk.write(page_number)
        self.store.put_page(page_number)
        if index == 0:
            # Only an insert at position 0 can change the page minimum
            # (or turn an empty page non-empty); anywhere else the
            # directory entry is already correct.
            self._directory_update(page_number)

    def command_insert(self, key: Any, value: Any, empty_page: int) -> int:
        """One update command's step 1 + insert, fused; returns the page.

        Exactly equivalent to ``page = locate(key) or empty_page``
        followed by :meth:`insert_kv` — the same directory bisect, the
        same charges in the same order (locate's verification read, then
        the mutation's read + write), the same store touches — but in
        one call with the directory maintenance inlined.  This is the
        per-command hot path of ``repro bench``; the engines fall back
        to the unfused methods everywhere else.
        """
        disk = self.disk
        store = self.store
        nonempty = self._nonempty
        if nonempty:
            mins = self._mins
            index = bisect.bisect_right(mins, key) - 1
            if index < 0:
                index = 0
            page_number = nonempty[index]
            disk.read2(page_number)  # step-1 verification read + mutation read
            position = store.get_page2(page_number).insert_kv(key, value)
            disk.write(page_number)
            store.put_page(page_number)
            if position == 0:
                # The located page is directory entry ``index``; a
                # front insert just lowers its recorded minimum.
                mins[index] = key
            return page_number
        # Empty file: no locate charge is possible (locate returns None)
        # and the caller's fallback page receives the record.
        disk.read(empty_page)
        store.get_page(empty_page).insert_kv(key, value)
        disk.write(empty_page)
        store.put_page(empty_page)
        nonempty.append(empty_page)
        self._mins.append(key)
        return empty_page

    def command_delete(self, key: Any) -> "Tuple[int, Record]":
        """One update command's step 1 + remove, fused.

        Equivalent to ``locate(key)`` + :meth:`remove_record` — same
        charges, same store touches, same exceptions (including the
        partial charging when the key is missing from the located page:
        the locate read and the mutation read have already been paid
        when :class:`RecordNotFoundError` propagates, and the write is
        not charged, exactly as in the unfused path).  Raises
        ``RecordNotFoundError(key)`` uncharged when the file is empty.
        Returns ``(page_number, record)``.
        """
        nonempty = self._nonempty
        if not nonempty:
            raise RecordNotFoundError(key)
        disk = self.disk
        store = self.store
        mins = self._mins
        index = bisect.bisect_right(mins, key) - 1
        if index < 0:
            index = 0
        page_number = nonempty[index]
        disk.read2(page_number)  # step-1 verification read + mutation read
        page = store.get_page2(page_number)
        record = page.remove(key)
        disk.write(page_number)
        store.put_page(page_number)
        keys = page._keys
        if not keys:
            del nonempty[index]
            del mins[index]
        elif mins[index] != keys[0]:
            mins[index] = keys[0]
        return page_number, record

    # -- batched-write fast path ---------------------------------------
    #
    # A sorted batch destined for one page pays its read and write once
    # per touched page instead of once per record: the engine opens the
    # page with ``group_read``, applies each record through
    # ``group_insert_kv`` (uncharged — the caller owns the group's
    # charges), and closes it with ``group_write``.  The per-record
    # maintenance algorithm still runs between group inserts; any page
    # I/O *it* performs is charged normally through the methods above,
    # so the coalescing never hides algorithmic work.

    def group_read(self, page_number: int) -> None:
        """Open a batch group on ``page_number`` (one read charge)."""
        self.disk.read(page_number)
        self.store.get_page(page_number)

    def group_insert_kv(
        self, page_number: int, key: Any, value: Any = None
    ) -> None:
        """Insert into a page opened by :meth:`group_read` (uncharged)."""
        index = self.store.peek(page_number).insert_kv(key, value)
        if index == 0:
            self._directory_update(page_number)

    def group_write(self, page_number: int) -> None:
        """Close a batch group on ``page_number`` (one write charge)."""
        self.disk.write(page_number)
        self.store.put_page(page_number)

    def remove_record(self, page_number: int, key: Any) -> Record:
        """Remove ``key`` from ``page_number`` (one read + one write)."""
        self.disk.read(page_number)
        page = self.store.get_page(page_number)
        record = page.remove(key)
        self.disk.write(page_number)
        self.store.put_page(page_number)
        keys = page._keys
        if not keys or key < keys[0]:
            # Only removing the page minimum (or emptying the page)
            # invalidates the directory entry.
            self._directory_update(page_number)
        return record

    def remove_keys(self, page_number: int, keys: Iterable[Any]) -> int:
        """Remove several keys from one already-read page (one write).

        Bulk-deletion helper: the caller has just paid the read via
        :meth:`read_page`, so only the single write-back is charged
        here.  Returns the number of records removed.
        """
        page = self.store.peek(page_number)
        removed = 0
        for key in keys:
            page.remove(key)
            removed += 1
        self.disk.write(page_number)
        self.store.put_page(page_number)
        self._directory_update(page_number)
        return removed

    def replace_record(self, page_number: int, record: Record) -> Record:
        """Replace the record with ``record.key`` in place."""
        self.disk.read(page_number)
        old = self.store.get_page(page_number).replace(record)
        self.disk.write(page_number)
        self.store.put_page(page_number)
        return old

    def move_records(self, source: int, dest: int, count: int) -> int:
        """Move up to ``count`` records from page ``source`` to ``dest``.

        Moves the records *nearest to the destination* in key order: when
        ``dest < source`` the lowest-keyed records of the source move and
        are appended above the destination's keys; when ``dest > source``
        the highest-keyed records move below the destination's keys.
        Requires that no non-empty page lies strictly between the two,
        since otherwise key order would break; a call that violates this
        raises :class:`UsageError` before any charge or store touch.
        Returns the number of records actually moved.

        Charges one read of the source and one write of each page.

        The precondition makes the directory update local: dest's entry,
        if it has one, is the source's neighbour, so one bisect for the
        source finds both.  A leftward move changes only the source's
        minimum (or drops the source), and dest enters only if it was
        empty, with the source's old minimum.  A rightward move changes
        only dest's minimum, and the source leaves only if it was
        emptied.
        """
        if source == dest:
            raise UsageError("source and dest must differ")
        if count <= 0:
            return 0
        nonempty = self._nonempty
        mins = self._mins
        index = bisect.bisect_left(nonempty, source)
        # The non-empty page next to the source on dest's side, by
        # directory index; 0 is a sentinel no page number equals.
        leftward = dest < source
        if leftward:
            beside = index - 1
            neighbour = nonempty[beside] if index else 0
            blocked = neighbour > dest
        else:
            beside = index + (index < len(nonempty) and nonempty[index] == source)
            neighbour = nonempty[beside] if beside < len(nonempty) else 0
            blocked = 0 < neighbour < dest
        if blocked:
            raise UsageError(
                f"cannot move records from page {source} to page {dest}: "
                f"page {neighbour} between them is not empty"
            )
        self.disk.move_charge(source, dest)
        moved = self.store.move_records(source, dest, count)
        if not moved:
            return 0
        dest_present = neighbour == dest
        if leftward:
            keys = self.store.peek(source)._keys
            if keys:
                old_min = mins[index]
                mins[index] = keys[0]
                if not dest_present:
                    nonempty.insert(index, dest)
                    mins.insert(index, old_min)
            elif dest_present:
                del nonempty[index]
                del mins[index]
            else:
                # dest takes over the source's entry and its minimum.
                nonempty[index] = dest
        else:
            dest_min = self.store.peek(dest)._keys[0]
            # Keys are unique, so dest holds the source's old minimum
            # exactly when every source record moved.
            emptied = dest_min == mins[index]
            if dest_present:
                mins[beside] = dest_min
                if emptied:
                    del nonempty[index]
                    del mins[index]
            elif emptied:
                nonempty[index] = dest
            else:
                nonempty.insert(beside, dest)
                mins.insert(beside, dest_min)
        return moved

    def redistribute(self, lo_page: int, hi_page: int) -> int:
        """Spread all records in pages ``[lo_page, hi_page]`` evenly.

        This is CONTROL 1's rebalancing primitive: after the call every
        page in the range holds either ``floor(n/m)`` or ``ceil(n/m)``
        records (``n`` records over ``m`` pages), with the surplus placed
        on the leftmost pages, preserving key order.  Charges one read
        and one write per page in the range and returns the number of
        pages touched.
        """
        if lo_page > hi_page:
            raise UsageError("empty page range")
        keys: List[Any] = []
        values: List[Any] = []
        for page_number in range(lo_page, hi_page + 1):
            self.disk.read(page_number)
            page = self.store.get_page(page_number)
            keys += page._keys
            values += page._values
        span = hi_page - lo_page + 1
        base, surplus = divmod(len(keys), span)
        cursor = 0
        for offset in range(span):
            upto = cursor + base + (1 if offset < surplus else 0)
            self.load_columns(lo_page + offset, keys[cursor:upto], values[cursor:upto])
            cursor = upto
        return span

    def load_page(self, page_number: int, records: List[Record]) -> None:
        """Overwrite one page's contents (bulk loading; one write)."""
        ordered = sorted(records, key=lambda record: record.key)
        keys = [record.key for record in ordered]
        self.load_columns(page_number, keys, [record.value for record in ordered])

    def load_columns(self, page_number: int, keys: List, values: List) -> None:
        """:meth:`load_page` for key-ordered columns, which the page adopts."""
        self.store.peek(page_number).assign(keys, values)
        self.disk.write(page_number)
        self.store.put_page(page_number)
        self._directory_update(page_number)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    #
    # Every stream retrieval is one walk over a run of consecutive
    # directory entries.  The in-core directory says, before any page is
    # read, where the run ends: ``bisect_right(_mins, hi_key)`` for a
    # range, the directory end for a full iteration, and for a counted
    # scan the first page at which the free page lengths add up to the
    # count.  So the readahead window never reaches past the last page
    # the scan will read, and a scan read to its end leaves no
    # prefetched frame unread.
    # A range or counted scan reads each page's records through
    # ``Page.rows``: built on the first read after a mutation, then
    # shared by every later scan of the page until the next mutation.
    # An interior page yields that tuple whole; a boundary page yields
    # the slice between its ``bisect`` bounds.  Full iteration copies
    # the rows a scan left cached but builds none of its own.

    def _walk(self, first: int, stop: Optional[int] = None) -> Iterator[Page]:
        """Charge and yield the pages of directory entries ``first .. stop-1``.

        The one page loop under every scan: each page costs one
        ``disk.read`` and one ``store.get_page``, in ascending order.
        Readahead is offered once per window: after the first read, and
        then after the read that reaches the end of the last window the
        store faulted whole, the store is offered the next ``readahead``
        pages of the run, never past its end.  When it takes fewer than
        were offered (a page was already resident, or its pool had no
        frame to spare), the walk offers again after the next read.  The
        run is fixed when the walk starts, so a scan suspended across a
        mutation still reads the pages it planned.
        """
        pages = self._nonempty[first:stop]
        read = self.disk.read
        store = self.store
        get_page = store.get_page
        window = store.readahead
        last = len(pages)
        # Offsets up to ``ahead`` were read or faulted by a whole window.
        ahead = 0
        for offset, page_number in enumerate(pages, 1):
            read(page_number)
            page = get_page(page_number)
            if window and ahead <= offset < last:
                offered = pages[offset : offset + window]
                if store.prefetch(offered) == len(offered):
                    ahead = offset + len(offered)
            yield page

    def scan_range(self, lo_key: Any, hi_key: Any) -> Iterator[Record]:
        """Yield records with ``lo_key <= key <= hi_key`` in key order.

        Charges one read per page from the page owning ``lo_key`` to the
        last page whose minimum is at most ``hi_key``; the pages form
        one ascending sweep (with readahead, the next pages of the sweep
        are prefetched while the current one is consumed).  Pages are
        read lazily, one at a time, as the caller consumes records.
        """
        return chain.from_iterable(self._range_slices(lo_key, hi_key))

    def _range_slices(
        self, lo_key: Any, hi_key: Any
    ) -> Iterator[Sequence[Record]]:
        stop = bisect.bisect_right(self._mins, hi_key)
        for page in self._walk(self._directory_index(lo_key), stop):
            # An interior page lies wholly inside the range: take its
            # whole row tuple.  The test reads the page's current keys,
            # so a scan suspended across a SHIFT still stays in bounds.
            rows = page.rows()
            keys = page._keys
            if keys and keys[0] >= lo_key and keys[-1] <= hi_key:
                yield rows
            else:
                start = bisect.bisect_left(keys, lo_key)
                yield rows[start : bisect.bisect_right(keys, hi_key)]

    def scan_count(self, start_key: Any, count: int) -> List[Record]:
        """Return up to ``count`` records with key >= ``start_key``.

        Charges one read per page from the page owning ``start_key`` up
        to the page that completes the count.  The run's end comes from
        the free page lengths, plus the position of ``start_key`` on the
        first page, which the scan reads in any case.
        """
        nonempty = self._nonempty
        if not nonempty or count <= 0:
            return []
        first = self._directory_index(start_key)
        skip = self.store.peek(nonempty[first]).rank(start_key)
        stop = first
        need = count + skip
        while stop < len(nonempty) and need > 0:
            need -= self.page_len(nonempty[stop])
            stop += 1
        result: List[Record] = []
        for page in self._walk(first, stop):
            result += page.rows()[skip : skip + count - len(result)]
            skip = 0
        return result

    def iter_all(self) -> Iterator[Record]:
        """Yield every record in key order, charging reads per page."""
        return chain.from_iterable(map(Page.records, self._walk(0)))

    def snapshot(self) -> List[Tuple[int, List[Record]]]:
        """Uncharged dump of (page, records) for tests and checkers."""
        return [
            (page_number, self.store.peek(page_number).records())
            for page_number in self._nonempty
        ]
