"""A classical amortized packed-memory array (sparse table) baseline.

Itai, Konheim and Rodeh's sparse tables — cited by the paper as the
closest prior art to CONTROL 1 — maintain a sorted array with gaps by
rebalancing progressively larger windows when local density crosses
per-level thresholds.  This implementation follows the standard modern
formulation over the same page substrate: pages are the PMA's segments
(capacity ``D``), and over a conceptual binary tree of page windows the
upper density threshold interpolates from ``tau_leaf`` at single pages
down to ``tau_root`` at the whole file, with lower thresholds
``rho_leaf``/``rho_root`` triggering rebalances on deletion.

Amortized cost is ``O(log^2 M)`` record moves per update; worst case is
``O(M)`` — the same spike profile as CONTROL 1, measured in EXP-W2.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..core.errors import (
    ConfigurationError,
    FileFullError,
    RecordNotFoundError,
    UsageError,
)
from ..records import Record, unique_sorted_records
from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.pagefile import PageFile
from ..core.params import ceil_log2


class PackedMemoryArray:
    """A fixed-capacity PMA with page-granular segments."""

    algorithm_name = "packed memory array"

    def __init__(
        self,
        num_pages: int,
        capacity: int,
        tau_root: float = 0.5,
        tau_leaf: float = 1.0,
        rho_root: float = 0.25,
        rho_leaf: float = 0.10,
        model: CostModel = PAGE_ACCESS_MODEL,
    ):
        if num_pages < 2:
            raise ConfigurationError("a PMA needs at least two pages")
        if not 0.0 < tau_root <= tau_leaf <= 1.0:
            raise ConfigurationError("need 0 < tau_root <= tau_leaf <= 1")
        if not 0.0 <= rho_leaf <= rho_root < tau_root:
            raise ConfigurationError("need 0 <= rho_leaf <= rho_root < tau_root")
        self.num_pages = num_pages
        self.capacity = capacity
        self.tau_root = tau_root
        self.tau_leaf = tau_leaf
        self.rho_root = rho_root
        self.rho_leaf = rho_leaf
        self.height = ceil_log2(num_pages)
        self.pagefile = PageFile(num_pages, model=model)
        self.size = 0
        self.rebalances = 0
        self.records_moved_total = 0

    @property
    def stats(self):
        return self.pagefile.disk.stats

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # thresholds
    # ------------------------------------------------------------------

    def _tau(self, level: int) -> float:
        """Upper density threshold at ``level`` (0 = single page)."""
        if self.height == 0:
            return self.tau_leaf
        step = (self.tau_leaf - self.tau_root) / self.height
        return self.tau_leaf - step * level

    def _rho(self, level: int) -> float:
        """Lower density threshold at ``level`` (0 = single page)."""
        if self.height == 0:
            return self.rho_leaf
        step = (self.rho_root - self.rho_leaf) / self.height
        return self.rho_leaf + step * level

    def _window(self, page: int, level: int) -> Tuple[int, int]:
        """The aligned window of ``2**level`` pages containing ``page``."""
        span = 1 << level
        start = ((page - 1) // span) * span + 1
        return start, min(start + span - 1, self.num_pages)

    def _window_count(self, lo: int, hi: int) -> int:
        return sum(
            self.pagefile.page_len(page) for page in range(lo, hi + 1)
        )

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, records) -> None:
        """Spread sorted records evenly over the pages (empty PMA only)."""
        if self.size:
            raise UsageError("bulk_load requires an empty PMA")
        loaded = unique_sorted_records(records)
        if len(loaded) > int(self.tau_root * self.num_pages * self.capacity):
            raise FileFullError("records exceed the PMA's root threshold")
        total = len(loaded)
        cursor = 0
        for page in range(1, self.num_pages + 1):
            upto = (page * total) // self.num_pages
            chunk = loaded[cursor:upto]
            cursor = upto
            if chunk:
                self.pagefile.load_page(page, chunk)
        self.size = total

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert a record, rebalancing the smallest within-threshold window."""
        if self.size >= int(self.tau_root * self.num_pages * self.capacity):
            raise FileFullError("PMA is at its root density threshold")
        page = self.pagefile.locate(key)
        if page is None:
            page = (self.num_pages + 1) // 2
        self.pagefile.insert_record(page, Record(key, value))
        self.size += 1
        self._rebalance_up(page, after_insert=True)

    def delete(self, key) -> Record:
        """Delete ``key``, rebalancing on lower-threshold violations."""
        page = self.pagefile.locate(key)
        if page is None:
            raise RecordNotFoundError(key)
        record = self.pagefile.remove_record(page, key)
        self.size -= 1
        self._rebalance_up(page, after_insert=False)
        return record

    def _rebalance_up(self, page: int, after_insert: bool) -> None:
        """Walk window levels upward until one is within threshold.

        On insertion the trigger is the upper threshold ``tau``; on
        deletion the lower threshold ``rho``.  The first in-threshold
        window is rebalanced evenly (which restores every window inside
        it to threshold as well); if even the root window is out of
        threshold the structure is declared full/empty accordingly.
        """
        for level in range(0, self.height + 1):
            lo, hi = self._window(page, level)
            slots = (hi - lo + 1) * self.capacity
            count = self._window_count(lo, hi)
            density = count / slots
            threshold = self._tau(level) if after_insert else self._rho(level)
            within = (
                density <= threshold if after_insert else density >= threshold
            )
            if level == 0 and within:
                return  # the page itself absorbed the update
            if within:
                before = self.pagefile.occupancies()
                self.pagefile.redistribute(lo, hi)
                after = self.pagefile.occupancies()
                self.records_moved_total += (
                    sum(abs(a - b) for a, b in zip(after, before)) // 2
                )
                self.rebalances += 1
                return
        if after_insert:
            raise FileFullError("no window within its density threshold")
        # Root below rho: a real PMA would shrink; with fixed capacity we
        # simply spread what is left.
        self.pagefile.redistribute(1, self.num_pages)
        self.rebalances += 1

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
