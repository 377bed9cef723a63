"""A write-back LRU buffer pool: live cache core and trace-replay simulator.

Willard remarks that CONTROL 2 "can be programmed to access consecutive
pages in one fell swoop" — its page touches cluster, so even a small
buffer pool absorbs most of them.  :class:`BufferPool` quantifies that
two ways with one implementation:

* **Replay**: record an :class:`~repro.storage.tracing.AccessTrace`
  while running any structure, then :func:`replay` it through pools of
  different capacities to get hit rates and the effective physical I/O
  a cached system would perform.
* **Live**: :class:`~repro.storage.backend.BufferedStore` puts the same
  pool in the hot path, forwarding faults and write-backs to a wrapped
  backend through the ``on_fault`` / ``on_writeback`` hooks.

The pool is a classic write-back LRU: a read miss faults the page in
(one physical read, possibly one write-back of a dirty victim); a write
marks the cached frame dirty; ``flush`` writes every dirty frame.
Because the live store and the replay share this class, their counters
agree exactly on identical access sequences (benchmark EXP-A7 asserts
it).

For stream retrievals the pool additionally supports **readahead**:
:meth:`BufferPool.prefetch` faults a window of pages in speculatively,
charged to separate ``prefetches`` / ``prefetch_hits`` counters so
demand hit/miss ratios stay honest.
:class:`~repro.storage.backend.BufferedStore` drives it from the page
file's scan walk, which offers the next window of its run once per
window, in one call: after the page that ends the last window the pool
took whole (a window with a page already resident or declined is
offered again, slid by one page, after the next read).  A scan never
offers past its own last page, so on scans ``prefetch_hits`` equals
``prefetches`` unless a demand miss evicts a prefetched frame before it
is read.

A demand miss and a readahead window enter the pool through one run
primitive, ``_admit``, which holds the one eviction rule: for each page
of the run not yet resident, a full pool pops its LRU frame once
(``popitem(last=False)``), writes it back if dirty, then counts the
physical read and faults the page in.  A demand miss is a run of one
page that never declines.  A window is one speculative run: when the
popped victim is itself a prefetched frame still unread, the run puts
it back at the head, unchanged, and ends there (the decline), so no
page pays a separate look at the LRU head.  Counters move page by page
in the order the hooks fire, so a hook that raises partway through a
window leaves the counters, frames and unread set as the hook calls
before it left them.

``access(kind, page, touches)`` applies several consecutive touches of
one page in one call.  Only the first can miss or consume a prefetch;
each later one finds the page most recent and counts a plain hit, so
the counters, frame order and dirty bits end as after ``touches``
separate calls.  The live store's fused double read of an update
command (``BufferedStore.get_page2``) is its one caller.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional

from ..core.errors import ConfigurationError, UsageError
from .tracing import AccessEvent, WRITE


@dataclass
class PoolStats:
    """Counters accumulated while replaying a trace."""

    capacity: int = 0
    hits: int = 0
    misses: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0
    #: Pages faulted in speculatively by :meth:`BufferPool.prefetch`.
    prefetches: int = 0
    #: Hits that were served from a still-unused prefetched frame.
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    @property
    def physical_io(self) -> int:
        return self.physical_reads + self.physical_writes

    def as_row(self) -> List[object]:
        """Format the counters for ``render_table``."""
        return [
            self.capacity,
            self.accesses,
            f"{self.hit_rate:.3f}",
            self.physical_reads,
            self.physical_writes,
        ]


POOL_STATS_HEADERS = [
    "frames", "accesses", "hit rate", "phys reads", "phys writes",
]


class BufferPool:
    """Write-back LRU pool over page numbers.

    ``on_fault(page)`` fires when a miss faults ``page`` in (one
    physical read) and ``on_writeback(page)`` when a dirty frame is
    written back (eviction or flush).  Both default to ``None`` — pure
    simulation for trace replay; a live caching store wires them to the
    backend it decorates.
    """

    def __init__(
        self,
        capacity: int,
        on_fault: Optional[Callable[[int], object]] = None,
        on_writeback: Optional[Callable[[int], object]] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("a buffer pool needs at least one frame")
        self.capacity = capacity
        self._frames: "OrderedDict[int, bool]" = OrderedDict()  # page -> dirty
        self._prefetched: set = set()  # resident but not yet accessed
        self.stats = PoolStats(capacity=capacity)
        self.on_fault = on_fault
        self.on_writeback = on_writeback

    def access(self, kind: str, page: int, touches: int = 1) -> bool:
        """Apply ``touches`` consecutive logical accesses of one kind to
        ``page``; returns True when the first one is a cache hit.

        Every touch after the first finds the page resident, most recent
        and no longer prefetched, so it counts one plain hit: the
        counters, frame order and dirty bits end exactly as after
        ``touches`` separate calls.  ``touches`` below 1 is refused with
        :class:`~repro.core.errors.UsageError`.
        """
        if touches < 1:
            raise UsageError(f"touches must be at least 1, not {touches}")
        frames = self._frames
        if page in frames:
            self.stats.hits += touches
            if page in self._prefetched:
                self.stats.prefetch_hits += 1
                self._prefetched.discard(page)
            frames.move_to_end(page)
            if kind == WRITE:
                frames[page] = True
            return True
        self.stats.misses += 1
        self.stats.hits += touches - 1
        # Both read and write misses fault the page in first: a run of
        # one page that never declines.
        self._admit((page,), kind == WRITE, False)
        return False

    def prefetch(self, pages: Iterable[int]) -> int:
        """Speculatively fault a window of ``pages`` in, in order, without
        counting a hit or miss; returns the number faulted in.

        Readahead support: each page not already resident is brought in
        clean and counted under ``prefetches`` (one physical read,
        possibly one write-back of a dirty victim) instead of
        ``misses``, so hit/miss ratios keep measuring only the demand
        accesses the caller issued.  A later demand access to the frame
        counts a normal hit plus one ``prefetch_hits``.  Resident pages
        are skipped.

        The whole window is one speculative run of :meth:`_admit`.  A
        page that would evict a frame still waiting to be read
        (prefetched but not yet accessed) is declined, and the decline
        ends the window: that victim is exactly what the scan cursor
        needs next, and evicting it to make room for a further-ahead
        page turns readahead into thrash whenever the window approaches
        the pool capacity.
        """
        return self._admit(pages, False, True)

    def _admit(self, pages: Iterable[int], dirty: bool, speculative: bool) -> int:
        """Fault each page of ``pages`` not yet resident in, in order, as
        the most recent frame; returns the number brought in.

        The one eviction rule: a full pool pops its least-recently-used
        frame, writes it back when dirty, and then the page costs one
        physical read.  A demand miss is a run of one page that never
        declines.  A speculative run (readahead) brings its pages in
        clean, counts each under ``prefetches`` and marks it unread;
        when the popped victim is itself still unread, the run puts it
        back at the head, unchanged, and ends.  Counters move page by
        page in the order the hooks fire, so a hook that raises leaves
        them, the frames and the unread set as the event sequence up to
        that call left them.
        """
        frames = self._frames
        prefetched = self._prefetched
        stats = self.stats
        capacity = self.capacity
        on_fault = self.on_fault
        admitted = 0
        for page in pages:
            if page in frames:
                continue
            victim = None
            if len(frames) >= capacity:
                # ``False`` is ``last=False`` (the LRU end), passed
                # positionally: this line runs once per admitted page.
                victim, victim_dirty = frames.popitem(False)
                if victim in prefetched:
                    if speculative:
                        # The decline: the unread victim goes back at
                        # the head with its dirty bit, and the run ends.
                        frames[victim] = victim_dirty
                        frames.move_to_end(victim, False)
                        break
                    prefetched.discard(victim)
            if speculative:
                stats.prefetches += 1
            if victim is not None:
                stats.evictions += 1
                if victim_dirty:
                    stats.physical_writes += 1
                    if self.on_writeback is not None:
                        self.on_writeback(victim)
            stats.physical_reads += 1
            if on_fault is not None:
                on_fault(page)
            frames[page] = dirty
            if speculative:
                prefetched.add(page)
            admitted += 1
        return admitted

    def flush(self) -> int:
        """Write back every dirty frame; returns the number written."""
        written = 0
        for page, dirty in self._frames.items():
            if dirty:
                written += 1
                if self.on_writeback is not None:
                    self.on_writeback(page)
        self.stats.physical_writes += written
        for page in list(self._frames):
            self._frames[page] = False
        return written

    @property
    def frames(self) -> Mapping[int, bool]:
        """The live frame table, page -> dirty, least-recently-used first.

        A read-only view for callers that test residency on a hot path
        without a method call per page (the store's readahead does).
        """
        return self._frames

    def resident_pages(self) -> List[int]:
        """Pages currently cached, least-recently-used first."""
        return list(self._frames)


def replay(events: Iterable[AccessEvent], capacity: int) -> PoolStats:
    """Replay a trace through a fresh pool (with a final flush)."""
    pool = BufferPool(capacity)
    for event in events:
        pool.access(event.kind, event.page)
    pool.flush()
    return pool.stats


def miss_curve(
    events: Iterable[AccessEvent], capacities: Iterable[int]
) -> List[PoolStats]:
    """Replay the same trace at several pool sizes."""
    materialized = list(events)
    return [replay(materialized, capacity) for capacity in capacities]
