"""Storage backends: the ``PageStore`` protocol and its three implementations.

Every sequential-file structure in this package runs on a
:class:`~repro.storage.pagefile.PageFile`, which owns the *logical* cost
accounting (the paper's page-access bound).  Where the pages physically
live — and what each touch physically costs — is this module's job.  A
:class:`PageStore` materializes pages; the three conforming backends
are:

:class:`MemoryStore`
    Pages live in Python lists, zero-copy.  This is the pure simulator
    the benchmarks run on.
:class:`DiskStore`
    Pages live in the slotted, checksummed OS file of
    :class:`~repro.storage.ondisk.DiskPagedStore` and are either
    written through on every mutation (the durable default) or
    collected in a dirty set for the journaled facade to commit.
:class:`BufferedStore`
    A live write-back LRU cache *decorating* any other backend: page
    gets and puts flow through a :class:`~repro.storage.bufferpool.BufferPool`
    whose faults and write-backs go straight to the wrapped store, so
    hit rates and effective physical I/O are measured in the hot path
    rather than replayed from a trace after the fact.  Each physical
    event is counted once by the pool and once, as a touch, by the
    wrapped store; nothing else meters it.

The contract is intentionally small — ``get_page`` / ``put_page`` /
``move_records`` / ``flush`` / ``stats`` plus the uncharged ``peek`` for
in-core bookkeeping — so caching, durability and metering compose as
decorations instead of parallel code paths.

Access discipline (what makes cross-backend parity exact):

* ``peek(n)`` models the *in-core* calibrator data the paper keeps in
  memory: directory maintenance, rank counters and invariant checks use
  it, and it never touches the cache or the physical meters.
* ``get_page(n)`` is one logical read of a page; ``put_page(n)``
  declares that the page handed out by ``get_page``/``peek`` was
  mutated and is one logical write.  ``PageFile`` pairs every
  ``SimulatedDisk`` charge with exactly one such store touch, in the
  same order — which is why a live :class:`BufferedStore` and a
  :func:`~repro.storage.bufferpool.replay` of the recorded access trace
  agree counter for counter (benchmark EXP-A7 asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..obs import Metrics, Number, view
from .bufferpool import BufferPool
from .ondisk import CorruptPageError, DiskPagedStore, StorageError
from .page import Page
from .tracing import READ, WRITE

#: Default frame count for :class:`BufferedStore` when none is given.
DEFAULT_CACHE_PAGES = 16

BACKENDS = ("memory", "disk", "buffered")

#: Each algorithm's code in a disk file's header.  The code sits in the
#: high byte of the header's J field, above J itself; CONTROL 2's code
#: is 0, so a CONTROL 2 header holds J alone.
ALGORITHM_CODES = {"control2": 0, "control1": 1}


@dataclass
class StoreStats:
    """Uniform physical-layer counters kept by every backend."""

    gets: int = 0
    puts: int = 0
    physical_reads: int = 0
    physical_writes: int = 0


def move_between(
    source_page: Page, dest_page: Page, source: int, dest: int, count: int
) -> int:
    """Move up to ``count`` records between two materialized pages.

    Moves the records *nearest to the destination* in key order: when
    ``dest < source`` the lowest-keyed records of the source move and
    are appended above the destination's keys; otherwise the
    highest-keyed records move below the destination's keys.  Shared by
    every backend so SHIFT semantics cannot drift between them.
    Returns the number of records moved.
    """
    if dest < source:
        return source_page.take_lowest_into(dest_page, count)
    return source_page.take_highest_into(dest_page, count)


class PageStore:
    """Abstract physical layer under a :class:`~repro.storage.pagefile.PageFile`.

    Concrete backends must implement :meth:`peek`, :meth:`get_page` and
    :meth:`put_page`; the batch operations and lifecycle methods have
    sensible defaults expressed in terms of those three.
    """

    #: Short backend identifier surfaced by the CLI.
    name = "abstract"
    #: The registry layer of this store's counters, and the counters
    #: :meth:`stats` reports, declared once per class.
    LAYER = "storage.backend"
    COUNTERS: Tuple[str, ...] = ()
    num_pages = 0
    #: Readahead window: how many upcoming pages a sequential scan may
    #: hand to :meth:`prefetch`.  0 (the default) disables readahead;
    #: only caching backends override it.
    readahead = 0

    # -- the protocol ---------------------------------------------------

    def peek(self, page_number: int) -> Page:
        """Uncharged access for in-core bookkeeping (never metered)."""
        raise NotImplementedError

    def get_page(self, page_number: int) -> Page:
        """One logical read: materialize the page for inspection/mutation."""
        raise NotImplementedError

    def put_page(self, page_number: int) -> None:
        """One logical write: the page from :meth:`get_page` was mutated."""
        raise NotImplementedError

    def get_page2(self, page_number: int) -> Page:
        """Two consecutive :meth:`get_page` calls on one page, fused.

        The store-side twin of ``SimulatedDisk.read2``: every one-page
        update command touches its page twice (step-1 verification,
        then mutation).  The default delegates so decorators observe
        both touches exactly as before.  :class:`MemoryStore` overrides
        it with one counter bump, and :class:`BufferedStore` with one
        pool call that counts the second touch as the hit it always is.
        """
        self.get_page(page_number)
        return self.get_page(page_number)

    def move_records(self, source: int, dest: int, count: int) -> int:
        """Move up to ``count`` records from ``source`` to ``dest``.

        The default reads the source, mutates both pages and writes
        destination then source — one source read plus two writes, the
        cost the paper charges a SHIFT step.  Returns the number of
        records moved.
        """
        source_page = self.get_page(source)
        dest_page = self.peek(dest)
        moved = move_between(source_page, dest_page, source, dest, count)
        self.put_page(dest)
        self.put_page(source)
        return moved

    def prefetch(self, page_numbers: Iterable[int]) -> int:
        """Hint that ``page_numbers`` are about to be read sequentially.

        A scan issues the hint once per window, naming the next pages of
        its run and none past its last page.  Non-caching
        backends ignore it (the default returns 0); :class:`BufferedStore`
        faults up to :attr:`readahead` of them into its pool.  Never
        affects logical page-access accounting — the hint comes from
        the in-core directory, uncharged.  Returns the number of pages
        actually faulted in.
        """
        return 0

    def flush(self) -> int:
        """Push buffered state down to the backing medium; returns pages written."""
        return 0

    def counter_source(self) -> object:
        """The object whose attributes :attr:`COUNTERS` name."""
        return self

    def stats(self) -> Dict[str, Number]:
        """This layer's own counters (never a wrapped layer's)."""
        return view(self.counter_source(), self.COUNTERS)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush and release any backing resources (idempotent)."""
        self.flush()

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class DelegatingStore(PageStore):
    """A transparent pass-through decorator base over any backend.

    Forwards the :class:`PageStore` protocol — including the batch
    :meth:`move_records`, so a decorator never changes the inner
    store's touch sequence or its counters — plus unknown attributes
    (``raw``, ``pool``, ...), so stacking a decorator is invisible to
    callers that introspect the stack.  The fused :meth:`get_page2`
    keeps the :class:`PageStore` default: two :meth:`get_page` calls,
    each seen by the decorator.  Subclasses override exactly the
    methods they want to observe and delegate the rest; the sanitizer's
    :class:`~repro.sanitizer.instrument.SanitizedStore` is the first
    client.  Decorators whose read path adds no shared mutable state
    should set :attr:`passthrough_reads` so
    :func:`~repro.concurrent.file.reads_are_shareable` descends
    through them.
    """

    name = "delegating"
    #: Whether the decorator's read path is free of shared mutable
    #: state, making concurrent readers exactly as safe as they are on
    #: the wrapped store.
    passthrough_reads = False

    def __init__(self, inner: PageStore):
        self.inner = inner
        self.num_pages = inner.num_pages
        self.readahead = inner.readahead

    def __getattr__(self, name: str) -> object:
        # Only consulted for attributes not defined on the decorator.
        return getattr(self.inner, name)

    def peek(self, page_number: int) -> Page:
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        return self.inner.get_page(page_number)

    def put_page(self, page_number: int) -> None:
        self.inner.put_page(page_number)

    def move_records(self, source: int, dest: int, count: int) -> int:
        return self.inner.move_records(source, dest, count)

    def prefetch(self, page_numbers: Iterable[int]) -> int:
        return self.inner.prefetch(page_numbers)

    def flush(self) -> int:
        return self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed


class MemoryStore(PageStore):
    """Zero-copy in-memory backend: the behaviour the simulator always had."""

    name = "memory"
    COUNTERS = ("gets", "puts")

    def __init__(self, num_pages: int):
        if num_pages < 1:
            raise ConfigurationError("a page store needs at least one page")
        self.num_pages = num_pages
        self._pages: List[Page] = [Page() for _ in range(num_pages + 1)]
        self._stats = StoreStats()

    def peek(self, page_number: int) -> Page:
        return self._pages[page_number]

    def get_page(self, page_number: int) -> Page:
        self._stats.gets += 1
        return self._pages[page_number]

    def get_page2(self, page_number: int) -> Page:
        # get_page has no side effect beyond the counter, so the fused
        # double touch is one bump of two.
        self._stats.gets += 2
        return self._pages[page_number]

    def put_page(self, page_number: int) -> None:
        self._stats.puts += 1

    def counter_source(self) -> object:
        return self._stats


class DiskStore(PageStore):
    """Durable backend over the slotted, checksummed on-disk page store.

    Pages stay materialized in memory (they are the authoritative
    copies the engine mutates) and every :meth:`put_page` re-serializes
    the touched page into its file slot — the write-through discipline
    the dense-file algorithms make affordable by bounding how many
    pages one command touches.  With :attr:`write_through` off the
    store instead collects touched pages in :attr:`dirty` for a
    transactional caller (the journaled facade, which turns it off
    before its first write) to commit as one atomic batch.
    """

    name = "disk"
    COUNTERS = ("gets", "puts", "physical_reads", "physical_writes")

    def __init__(self, raw: DiskPagedStore):
        if not isinstance(raw, DiskPagedStore):
            raise TypeError("DiskStore wraps a DiskPagedStore")
        self.raw = raw
        self.num_pages = raw.num_pages
        self.write_through = True
        #: Pages touched since the last flush (write-back mode only).
        self.dirty: Set[int] = set()
        #: Pages whose slot failed its CRC during a tolerant
        #: :meth:`load` — treated as empty in core and never rewritten.
        self.quarantined: Set[int] = set()
        self._pages: List[Page] = [Page() for _ in range(self.num_pages + 1)]
        self._stats = StoreStats()

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: int = 0,
        slot_capacity: int = 0,
        overwrite: bool = False,
        version: int = 0,
    ) -> "DiskStore":
        """Create a fresh on-disk file with empty pages.

        ``j`` is the header's whole J field (see :func:`header_j`).
        ``version`` picks the on-disk format (0 = the current default);
        version 1 files carry only the generic object codec, version 2
        files carry self-describing packed page images.
        """
        raw = DiskPagedStore.create(
            path,
            num_pages=num_pages,
            d=d,
            D=D,
            j=j,
            slot_capacity=slot_capacity,
            overwrite=overwrite,
            version=version,
        )
        return cls(raw)

    @classmethod
    def open(cls, path: str, tolerate_corruption: bool = False) -> "DiskStore":
        """Open an existing file and materialize every stored page.

        With ``tolerate_corruption`` a page whose slot fails its CRC is
        *quarantined* (left empty in core, recorded in
        :attr:`quarantined`) instead of aborting the open — the degraded
        read-only path of :class:`~repro.persistent.PersistentDenseFile`.
        """
        store = cls(DiskPagedStore.open(path))
        try:
            store.load(tolerate_corruption=tolerate_corruption)
        except BaseException:
            store.raw.close()
            raise
        return store

    def load(self, tolerate_corruption: bool = False) -> int:
        """(Re)materialize pages from disk; returns the record count.

        Recovery work, charged to the physical read counter but never to
        any engine's logical meter: restoring a file is not a command.
        Corrupt slots raise :class:`~repro.storage.ondisk.CorruptPageError`
        unless ``tolerate_corruption`` quarantines them instead.
        """
        total = 0
        self.quarantined = set()
        for page_number in range(1, self.num_pages + 1):
            self._stats.physical_reads += 1
            page = self._pages[page_number]
            page.clear()
            try:
                records = self.raw.read_page(page_number)
            except CorruptPageError:
                if not tolerate_corruption:
                    raise
                self.quarantined.add(page_number)
                continue
            page.extend_high(records)
            total += len(records)
        return total

    def reload(self, page_numbers: Iterable[int]) -> None:
        """Re-materialize just ``page_numbers`` (strict: a corrupt slot
        raises :class:`~repro.storage.ondisk.CorruptPageError`)."""
        for page_number in sorted(page_numbers):
            self._stats.physical_reads += 1
            records = self.raw.read_page(page_number)
            page = self._pages[page_number]
            page.clear()
            page.extend_high(records)

    def close(self) -> None:
        if not self.raw.closed:
            self.flush()
            self.raw.close()

    @property
    def closed(self) -> bool:
        return self.raw.closed

    @property
    def path(self) -> str:
        return self.raw.path

    # -- the protocol ---------------------------------------------------

    def peek(self, page_number: int) -> Page:
        return self._pages[page_number]

    def get_page(self, page_number: int) -> Page:
        self._stats.gets += 1
        return self._pages[page_number]

    def put_page(self, page_number: int) -> None:
        self._stats.puts += 1
        if self.write_through:
            # One serialization pass straight off the page columns; no
            # intermediate record-list copy on version-2 files.
            self.raw.write_page_image(page_number, self._pages[page_number])
            self._stats.physical_writes += 1
        else:
            self.dirty.add(page_number)

    def flush(self) -> int:
        """Write back dirty pages (write-back mode), then fsync."""
        written = 0
        for page_number in sorted(self.dirty):
            self.raw.write_page_image(page_number, self._pages[page_number])
            self._stats.physical_writes += 1
            written += 1
        self.dirty.clear()
        self.raw.flush()
        return written

    def counter_source(self) -> object:
        return self._stats


class BufferedStore(PageStore):
    """A live write-back LRU cache wrapped around any other backend.

    Every logical touch flows through a
    :class:`~repro.storage.bufferpool.BufferPool`: hits cost nothing
    physical; a miss faults the page in (one physical read, possibly one
    write-back of a dirty victim); ``flush`` pushes every dirty frame
    down to the wrapped store.  The pool's ``on_fault``/``on_writeback``
    hooks are the wrapped store's ``get_page``/``put_page``, so every
    fault is one inner ``get_page`` and every write-back one inner
    ``put_page``: the pool's ``physical_reads``/``physical_writes`` and
    the inner store's counters meter the same events.

    This is the :class:`~repro.storage.bufferpool.BufferPool` promoted
    from trace-replay simulator to the hot path: the same class keeps
    the frame bookkeeping, so live counters and replayed counters agree
    exactly on identical access sequences.  The fused touches stay
    exact too: :meth:`get_page2` is one ``access`` call with
    ``touches=2`` (the second touch finds the page most recent and no
    longer prefetched, so it is a plain hit), and :meth:`move_records`
    issues the read of the source and the writes of dest and source
    as three ``access`` calls (or one ``move_hits`` step), the order
    the logical meter charges.
    """

    name = "buffered"
    LAYER = "storage.bufferpool"
    COUNTERS = (
        "hits", "misses", "hit_rate", "evictions", "prefetches",
        "prefetch_hits", "physical_reads", "physical_writes",
    )

    def __init__(
        self,
        inner: PageStore,
        capacity: int = DEFAULT_CACHE_PAGES,
        readahead: int = 0,
    ):
        if readahead < 0:
            raise ConfigurationError("readahead must be >= 0")
        self.inner = inner
        self.num_pages = inner.num_pages
        self.readahead = readahead
        # The pool's hooks are the inner store's own bound methods, not
        # this store's: store -> pool -> hook -> store would be a cycle
        # that keeps a closed store alive until a full collection.
        self.pool = BufferPool(
            capacity, on_fault=inner.get_page, on_writeback=inner.put_page
        )

    # -- the protocol ---------------------------------------------------

    def peek(self, page_number: int) -> Page:
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        self.pool.access(READ, page_number)
        return self.inner.peek(page_number)

    def get_page2(self, page_number: int) -> Page:
        # One pool call for both touches: the second always hits.
        self.pool.access(READ, page_number, 2)
        return self.inner.peek(page_number)

    def put_page(self, page_number: int) -> None:
        self.pool.access(WRITE, page_number)

    def prefetch(self, page_numbers: Iterable[int]) -> int:
        """Fault up to :attr:`readahead` upcoming pages into the pool.

        A scan offers the next window of its run (never past the run's
        last page) once per window: after its first read, then after the
        read that ends the last window this method faulted whole.  The
        window, cut to :attr:`readahead` pages and stripped of page
        numbers outside the file, goes to the pool in one
        :meth:`~repro.storage.bufferpool.BufferPool.prefetch` call, one
        speculative admission run.  A list that already fits the window
        and lies inside the file (what the scan walk offers) is passed
        through as it is, uncopied.  The pool skips pages already
        resident and brings each other page in as a clean,
        not-yet-used frame (one physical read) so the demand read that
        follows is a hit.  The first page the pool declines — its LRU
        victim is a prefetched page still waiting to be read, which the
        pool puts back at the head — ends the offer.  A return below
        the number offered (a page was resident or declined) makes the
        scan offer again after its next read.  0 disables the whole
        path.  Returns the number of pages faulted in.
        """
        readahead = self.readahead
        if not readahead:
            return 0
        # The scan walk offers a list that already fits the window.
        if isinstance(page_numbers, list) and len(page_numbers) <= readahead:
            window = page_numbers
        else:
            window = list(islice(page_numbers, readahead))
        # A scan offers its own run's pages: one C-level check passes them.
        if window and not 1 <= min(window) <= max(window) <= self.num_pages:
            num_pages = self.num_pages
            window = [page for page in window if 1 <= page <= num_pages]
        return self.pool.prefetch(window)

    def move_records(self, source: int, dest: int, count: int) -> int:
        # Same touch sequence the logical meter records (read source,
        # write dest, write source), intercepted so the inner store only
        # sees traffic on faults and write-backs.  Three hits fire no
        # hook, so the pool takes them in one step before the move (only
        # a key-order break, which PageFile rules out, makes it raise).
        pool = self.pool
        inner = self.inner
        if pool.move_hits(source, dest):
            return move_between(
                inner.peek(source), inner.peek(dest), source, dest, count
            )
        pool.access(READ, source)
        moved = move_between(
            inner.peek(source), inner.peek(dest), source, dest, count
        )
        pool.access(WRITE, dest)
        pool.access(WRITE, source)
        return moved

    def flush(self) -> int:
        written = self.pool.flush()
        self.inner.flush()
        return written

    def close(self) -> None:
        # Write the dirty frames down, then let the inner store's own
        # close flush and release it: one fsync, not a flush per layer.
        if not self.closed:
            self.pool.flush()
            self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def counter_source(self) -> object:
        return self.pool.stats


def register_store(metrics: Metrics, store: Optional[PageStore]) -> None:
    """Register every layer of a store stack, outermost first."""
    while store is not None:
        if store.COUNTERS:
            metrics.register(store.LAYER, store.counter_source(), store.COUNTERS)
        store = getattr(store, "inner", None)


def find_disk_store(store: Optional[PageStore]) -> Optional[DiskStore]:
    """The :class:`DiskStore` layer inside a decorator stack, if any."""
    while store is not None:
        if isinstance(store, DiskStore):
            return store
        store = getattr(store, "inner", None)
    return None


def header_j(algorithm: str, j: int) -> int:
    """The header J field of a file of ``algorithm`` with budget ``j``
    (0 = the default budget)."""
    if algorithm not in ALGORITHM_CODES:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; pick one of "
            f"{tuple(ALGORITHM_CODES)}"
        )
    if not 0 <= j < 1 << 24:
        raise ConfigurationError(f"J = {j} does not fit a file header")
    return j | (ALGORITHM_CODES[algorithm] << 24)


def header_algorithm(raw: DiskPagedStore) -> Tuple[str, Optional[int]]:
    """``(algorithm, j)`` as ``raw``'s header records them; ``j`` is
    ``None`` where the file was made with the default budget."""
    code = raw.j >> 24
    for algorithm, known in ALGORITHM_CODES.items():
        if code == known:
            return algorithm, (raw.j & 0xFFFFFF) or None
    raise StorageError(f"{raw.path}: unknown algorithm code {code}")


def _cached(
    build: Callable[[], PageStore], cache_pages: Optional[int], readahead: int
) -> PageStore:
    """``build()`` under a :class:`BufferedStore` of ``cache_pages``
    frames, or bare when ``cache_pages`` is ``None``.  Readahead without
    a cache is refused before ``build`` runs; a refused cache closes
    what it built."""
    if readahead and cache_pages is None:
        raise ConfigurationError(
            "readahead prefetches into a page cache and this stack has "
            "none; use the buffered backend or pass cache_pages"
        )
    inner = build()
    if cache_pages is None:
        return inner
    try:
        return BufferedStore(inner, capacity=cache_pages, readahead=readahead)
    except ConfigurationError:
        inner.close()
        raise


def make_store(
    backend: str,
    num_pages: int,
    d: int = 0,
    D: int = 0,
    j: int = 0,
    path: Optional[str] = None,
    cache_pages: Optional[int] = None,
    slot_capacity: int = 0,
    overwrite: bool = False,
    readahead: int = 0,
    algorithm: str = "control2",
) -> PageStore:
    """Build a backend from a ``"memory" | "disk" | "buffered"`` spec.

    ``"buffered"`` wraps a :class:`DiskStore` when ``path`` is given and
    a :class:`MemoryStore` otherwise; ``cache_pages`` sizes its frame
    pool (``None`` means :data:`DEFAULT_CACHE_PAGES`; a value below 1
    is refused) and ``readahead`` its scan-prefetch window.  The other
    backends have no cache: they ignore ``cache_pages`` and refuse a
    nonzero ``readahead``.  ``"disk"`` requires ``path``.  A path makes
    a fresh file (pass ``overwrite=True`` to clobber) whose header
    records the geometry, ``j`` and ``algorithm``; :func:`open_store`
    opens it again.  Every refusal but an empty pool's comes before the
    file is made, and that one closes it.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; pick one of {BACKENDS}"
        )
    if backend == "buffered":
        cache = DEFAULT_CACHE_PAGES if cache_pages is None else cache_pages
    else:
        cache = None
    if backend == "disk" and path is None:
        raise ConfigurationError(
            "the disk backend needs a path for its backing file"
        )
    if backend == "memory" or path is None:
        return _cached(partial(MemoryStore, num_pages), cache, readahead)
    create = partial(
        DiskStore.create, path, num_pages, d, D, header_j(algorithm, j),
        slot_capacity, overwrite,
    )
    return _cached(create, cache, readahead)


def open_store(
    path: str,
    cache_pages: Optional[int] = None,
    readahead: int = 0,
    tolerate_corruption: bool = False,
) -> PageStore:
    """Open the file at ``path`` as the stack :func:`make_store` built:
    a :class:`DiskStore`, under a cache of ``cache_pages`` frames when
    that is given.  ``tolerate_corruption`` is :meth:`DiskStore.open`'s."""
    open_disk = partial(DiskStore.open, path, tolerate_corruption)
    return _cached(open_disk, cache_pages, readahead)
