"""Shared machinery for the CONTROL 1 and CONTROL 2 engines.

Both algorithms share step 1 of the paper's Figure 2 verbatim: binary
search for the affected page, apply the insertion or deletion, and
adjust the calibrator's rank counters.  They differ only in how they
react afterwards (amortized rebalance vs bounded shifting), which the
subclasses implement, together with the counter update, in
:meth:`BaseEngine._apply_insert` and :meth:`BaseEngine._apply_delete`.
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, List, Optional

from ..records import Record, sorted_records, unique_sorted_records
from ..storage.backend import PageStore
from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.disk import SimulatedDisk
from ..storage.pagefile import PageFile
from .calibrator import CalibratorTree
from .errors import FileFullError, RecordNotFoundError, UsageError
from .params import DensityParams
from .trace import OperationLog


class BaseEngine:
    """Common state and step 1 for dense-file maintenance algorithms.

    ``disk`` meters *logical* page accesses (the quantity the paper's
    theorems bound); ``store`` decides where pages physically live — any
    :class:`~repro.storage.backend.PageStore` backend.  The two are
    independent: every engine produces identical logical costs on every
    backend.
    """

    #: Subclasses override with their paper name ("CONTROL 1" / "CONTROL 2").
    algorithm_name = "abstract"
    #: The registry layer and counters of every engine.
    LAYER = "core"
    COUNTERS = ("records_moved_total", "balance_headroom")

    def __init__(
        self,
        params: DensityParams,
        disk: Optional[SimulatedDisk] = None,
        model: CostModel = PAGE_ACCESS_MODEL,
        store: Optional[PageStore] = None,
    ):
        self.params = params
        if disk is None:
            disk = SimulatedDisk(params.num_pages, model)
        self.disk = disk
        self.pagefile = PageFile(params.num_pages, disk=disk, store=store)
        self.calibrator = CalibratorTree(params.num_pages)
        # params is frozen; cache the derived cap so the per-command
        # admission check does not recompute the property each time.
        self._max_records = params.max_records
        # First-insert landing page for an empty file (growth stays
        # symmetric when the file starts in the middle).
        self._middle_page = (params.num_pages + 1) // 2
        self.size = 0
        self.commands_executed = 0
        self.records_moved_total = 0
        self.operation_log: Optional[OperationLog] = None

    @property
    def store(self) -> PageStore:
        """The physical backend under this engine's page file."""
        return self.pagefile.store

    # ------------------------------------------------------------------
    # hooks implemented by the concrete algorithms
    # ------------------------------------------------------------------

    # One hook per command, run once the record is on (or off) ``page``:
    # it bumps the rank counters on the page's path and then repairs.
    # Keeping both in one hook lets CONTROL 2 fuse the two path walks.

    def _apply_insert(self, page: int) -> None:
        raise NotImplementedError

    def _apply_delete(self, page: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, records) -> None:
        """Load records with the uniform density Theorem 5.5 assumes.

        Records are sorted and spread so that page ``i`` receives
        ``floor(i*n/M) - floor((i-1)*n/M)`` records: as even a spread as
        integer counts allow.  Only valid on an empty file, which a
        repeated key leaves empty (:class:`DuplicateKeyError`).
        """
        if self.size:
            raise UsageError("bulk_load requires an empty file")
        loaded = unique_sorted_records(records)
        keys = list(map(itemgetter(0), loaded))
        total, pages = len(keys), self.params.num_pages
        bounds = [page * total // pages for page in range(pages + 1)]
        occupancies = list(map(sub, bounds[1:], bounds))
        self._load(keys, list(map(itemgetter(1), loaded)), occupancies)

    def load_occupancies(self, occupancies, key_start: int = 0, key_gap: int = 1):
        """Load synthetic integer-keyed records page by page.

        ``occupancies[i]`` records go to page ``i+1``, with keys ascending
        across the whole file starting at ``key_start`` and separated by
        ``key_gap`` (at least 1, so the keys are distinct).  Used to set
        up paper examples and tests.  Returns the list of loaded records.
        """
        if self.size:
            raise UsageError("load_occupancies requires an empty file")
        if len(occupancies) != self.params.num_pages or min(occupancies) < 0:
            raise UsageError("need one occupancy (at least 0) per page")
        if key_gap < 1:
            raise UsageError(f"key_gap must be at least 1, not {key_gap}")
        ascending = accumulate(repeat(key_gap), initial=key_start)
        keys = list(islice(ascending, sum(occupancies)))
        self._load(keys, [None] * len(keys), occupancies)
        return list(map(Record, keys))

    def _load(self, keys: List, values: List, occupancies: List[int]) -> None:
        """Put the next ``occupancies[i]`` of the key-ordered columns on
        page ``i + 1``, one write per loaded page in ascending order, then
        rebuild the rank counters in one pass."""
        if len(keys) > self.params.max_records:
            raise FileFullError(
                f"{len(keys)} records exceed the cap N = {self.params.max_records}"
            )
        cursor = 0
        for page, count in enumerate(occupancies, 1):
            if count:
                upto = cursor + count
                self.pagefile.load_columns(
                    page, keys[cursor:upto], values[cursor:upto]
                )
                cursor = upto
        self.calibrator.recount(0, occupancies)
        self.size = cursor

    def restore_from_store(self) -> int:
        """Adopt the backend's materialized pages as this engine's state.

        The recovery path of the durable backends: a freshly constructed
        engine whose :class:`~repro.storage.backend.PageStore` already
        holds records (loaded from disk) rebuilds the in-core directory,
        the calibrator's rank counters and ``size`` from them, free of
        logical charges — restoring a file is not a command.  Returns
        the number of records found.
        """
        if self.size:
            raise UsageError("restore_from_store requires a fresh engine")
        self.size = self.pagefile.rebuild_directory()
        self.calibrator.recount(0, self.pagefile.occupancies())
        return self.size

    def adopt_pages(self, pages: Iterable[int]) -> None:
        """:meth:`restore_from_store` for just ``pages``, whose store
        contents were replaced beneath this engine (uncharged)."""
        for page in pages:
            delta = self.pagefile.page_len(page)
            delta -= self.calibrator.leaf_count(page)
            if delta:
                self.calibrator.add(page, delta)
                self.size += delta
            self.pagefile._directory_update(page)

    # ------------------------------------------------------------------
    # step 1 plumbing
    # ------------------------------------------------------------------

    def _begin_command(self, label: str) -> None:
        if self.operation_log is not None:
            self.disk.stats.checkpoint("op")
            self._moved_mark = self.records_moved_total
            self._op_label = label

    def _end_command(self) -> None:
        self.commands_executed += 1
        if self.operation_log is not None:
            self._append_op_log()

    def _append_op_log(self) -> None:
        """Flush one command's deltas to the operation log."""
        delta = self.disk.stats.delta("op")
        self.operation_log.append(
            accesses=delta.page_accesses,
            moved=self.records_moved_total - self._moved_mark,
            cost=delta.cost,
            label=self._op_label,
        )

    # ------------------------------------------------------------------
    # public update API
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert a record (paper command ``Z`` of insertion type)."""
        if self.size >= self._max_records:
            raise FileFullError(
                f"file already holds N = {self.params.max_records} records"
            )
        # The mainline below is the unfused sequence _target_page_for_
        # insert + insert_kv + add, flattened through the page file's
        # fused command path (identical charges, state and exceptions) —
        # this is the single hottest loop of ``repro bench``.
        logging = self.operation_log is not None
        if logging:
            self._begin_command("insert")
        page = self.pagefile.command_insert(key, value, self._middle_page)
        self.size += 1
        self._apply_insert(page)
        self.commands_executed += 1
        if logging:
            self._append_op_log()

    def insert_at_page(self, page: int, key, value=None) -> None:
        """Insert directly into ``page``, bypassing the key search.

        This is how the paper's Example 5.2 phrases commands ("insert a
        record into the page 8"); the caller is responsible for choosing
        a page consistent with sequential key order.
        """
        if self.size >= self._max_records:
            raise FileFullError(
                f"file already holds N = {self.params.max_records} records"
            )
        self._begin_command("insert")
        self.pagefile.insert_kv(page, key, value)
        self.size += 1
        self._apply_insert(page)
        self._end_command()

    def delete(self, key) -> Record:
        """Delete the record with ``key`` (command ``Z`` of deletion type)."""
        logging = self.operation_log is not None
        if logging:
            self._begin_command("delete")
        try:
            page, record = self.pagefile.command_delete(key)
        except RecordNotFoundError:
            # Same contract as the unfused path: a miss still counts as
            # an executed (and logged) command, with whatever partial
            # charges accrued before the failure.
            self._end_command()
            raise
        self.size -= 1
        self._apply_delete(page)
        self.commands_executed += 1
        if logging:
            self._append_op_log()
        return record

    # ------------------------------------------------------------------
    # batch updates
    # ------------------------------------------------------------------

    def insert_many(self, items) -> int:
        """Insert an iterable of records/keys; returns the count inserted.

        Items are pre-sorted so the insertions sweep the file left to
        right — each record still runs the full maintenance algorithm as
        its own command (and so keeps its worst-case bound), but the
        access pattern stays disk-arm friendly.

        Consecutive records that land on the same destination page share
        one *group*: the page is read once
        (:meth:`~repro.storage.pagefile.PageFile.group_read`, doubling
        as the step-1 verification read for every record in the group),
        each record is applied and maintained in order, and the page is
        written back once when the destination moves on.  The
        destination is re-verified against the in-core directory after
        every record's maintenance — using the previous destination as a
        bisect hint — so the sequence of state mutations (page contents,
        calibrator counters, warning flags, maintenance decisions) is
        *identical* to an :meth:`insert` loop over the sorted records;
        only the per-record locate/read/write charges coalesce.
        """
        records = sorted_records(items)
        pagefile = self.pagefile
        total = len(records)
        index = 0
        dest: Optional[int] = None
        while index < total:
            if self.size >= self._max_records:
                raise FileFullError(
                    f"file already holds N = {self.params.max_records} records"
                )
            located = pagefile.locate_in_core_hinted(records[index].key, dest)
            if located is None:
                # Empty file: start in the middle so growth is symmetric.
                located = (self.params.num_pages + 1) // 2
            dest = located
            pagefile.group_read(dest)
            try:
                while index < total:
                    record = records[index]
                    self._begin_command("insert")
                    pagefile.group_insert_kv(dest, record.key, record.value)
                    self.size += 1
                    self._apply_insert(dest)
                    self._end_command()
                    index += 1
                    if index >= total:
                        break
                    if self.size >= self._max_records:
                        # Re-checked (and raised) at the top of the outer
                        # loop, after this group's write-back.
                        break
                    next_dest = pagefile.locate_in_core_hinted(
                        records[index].key, dest
                    )
                    if next_dest != dest:
                        break
            finally:
                pagefile.group_write(dest)
        return total

    def delete_range(self, lo_key, hi_key) -> int:
        """Delete every record with ``lo_key <= key <= hi_key`` in bulk.

        Range deletion is a single pass over the affected pages —
        located directly via a bisect over the in-core minimum-key
        directory (:meth:`~repro.storage.pagefile.PageFile
        .nonempty_in_range`), never scanning pages left of the range.
        Since ``(d, D)``-density and ``BALANCE(d, D)`` impose no *lower*
        bound on local density, removing records wholesale can never
        violate them — only warning flags may need lowering afterwards
        (the bulk analogue of Figure 2's step 2).  Costs one read plus
        one write per touched page and counts as one command; returns
        the number of records deleted.  A :meth:`delete` loop over the
        keys is the per-record alternative, each key its own command
        with its own maintenance.
        """
        if self.pagefile.locate_in_core(lo_key) is None:
            return 0
        touched = []
        removed = 0
        for page in self.pagefile.nonempty_in_range(lo_key, hi_key):
            page_records = self.pagefile.read_page(page)
            victims = [
                record.key
                for record in page_records
                if lo_key <= record.key <= hi_key
            ]
            if not victims:
                continue
            self.pagefile.remove_keys(page, victims)
            self.calibrator.add(page, -len(victims))
            touched.append(page)
            removed += len(victims)
        self.size -= removed
        if removed:
            self._after_bulk_delete(touched)
        self.commands_executed += 1
        return removed

    def _after_bulk_delete(self, touched_pages: List[int]) -> None:
        """Hook for post-range-delete repair (flag lowering); no-op here."""

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

    def __len__(self) -> int:
        return self.size

    def min_record(self) -> Optional[Record]:
        """The smallest-keyed record, or ``None`` on an empty file."""
        return self.pagefile.min_record()

    def max_record(self) -> Optional[Record]:
        """The largest-keyed record, or ``None`` on an empty file."""
        return self.pagefile.max_record()

    def successor(self, key) -> Optional[Record]:
        """Smallest record with key strictly greater than ``key``."""
        return self.pagefile.successor(key)

    def predecessor(self, key) -> Optional[Record]:
        """Largest record with key strictly less than ``key``."""
        return self.pagefile.predecessor(key)

    def range_scan(self, lo_key, hi_key) -> Iterator[Record]:
        """Stream records with keys in ``[lo_key, hi_key]`` in order."""
        return self.pagefile.scan_range(lo_key, hi_key)

    # ------------------------------------------------------------------
    # order statistics (powered by the in-core directory and counters)
    # ------------------------------------------------------------------

    def rank(self, key) -> int:
        """Number of stored records with key strictly less than ``key``.

        The records left of the boundary page come from the calibrator's
        rank counters for free; only the boundary page is read.  Cost:
        at most one page access.
        """
        boundary = self.pagefile.locate_in_core(key)
        if boundary is None:
            return 0
        return self.calibrator.count_before(boundary) + (
            self.pagefile.read_view(boundary).rank(key)
        )

    def count_range(self, lo_key, hi_key) -> int:
        """Number of records with ``lo_key <= key <= hi_key``.

        Cost: at most two page accesses (the two boundary pages),
        regardless of how many records lie inside — the interior comes
        from the in-core counters.
        """
        if hi_key < lo_key:
            return 0
        lo_page = self.pagefile.locate_in_core(lo_key)
        if lo_page is None:
            return 0
        hi_page = self.pagefile.locate_in_core(hi_key)
        total = self.pagefile.read_view(lo_page).count_between(lo_key, hi_key)
        if hi_page == lo_page:
            return total
        total += self.pagefile.read_view(hi_page).count_between(lo_key, hi_key)
        tree = self.calibrator
        return total + tree.count_before(hi_page) - tree.count_before(lo_page + 1)

    def select(self, index: int) -> Record:
        """The record of rank ``index`` (0-based, in key order).

        Walks the calibrator's counters to the owning page, then reads
        that one page.  Cost: one page access.
        """
        if index < 0 or index >= self.size:
            raise IndexError(
                f"rank {index} out of range [0, {self.size})"
            )
        page, position = self.calibrator.page_of_rank(index)
        return self.pagefile.read_view(page).record_at(position)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Redistribute every record uniformly over all ``M`` pages.

        Deletions leave the file sparse in places, which lengthens
        stream scans (more pages per record).  ``compact`` is the bulk
        remedy — the same uniform redistribution CONTROL 1 applies
        locally and Theorem 5.5 assumes initially — at a cost of one
        read plus one write per page.  Warning state is cleared: a
        uniform file at legal cardinality satisfies ``p(v) <= d`` for
        every node, far below every warning threshold.

        Returns the number of pages rewritten.
        """
        span = self.pagefile.redistribute(1, self.params.num_pages)
        self.calibrator.recount(0, self.pagefile.occupancies())
        if hasattr(self, "destinations"):
            self.calibrator.clear_flags()
            self.destinations.clear()
            self.sources.clear()
        return span

    def scan_count(self, start_key, count: int) -> List[Record]:
        """Return up to ``count`` records with key >= ``start_key``."""
        return self.pagefile.scan_count(start_key, count)

    def iter_records(self) -> Iterator[Record]:
        """Yield every record in key order (charges reads per page)."""
        return self.pagefile.iter_all()

    def occupancies(self) -> List[int]:
        """Records per page, as a list of length M."""
        return self.pagefile.occupancies()

    @property
    def stats(self):
        return self.disk.stats

    @property
    def balance_headroom(self) -> int:
        """Records the tightest calibrator node takes before BALANCE(d, D)
        breaks; negative exactly when it is broken (one pass over the
        nodes, so read it per snapshot, not per command)."""
        from .invariants import balance_scan

        return balance_scan(self.calibrator, self.params)[1]

    def enable_operation_log(self) -> OperationLog:
        """Start recording per-command cost; returns the live log."""
        self.operation_log = OperationLog()
        return self.operation_log

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert every end-of-command invariant; raises on violation."""
        from .invariants import check_engine

        check_engine(self)
