"""A durable dense sequential file backed by a real OS file.

:class:`PersistentDenseFile` is a
:class:`~repro.core.dense_file.DenseSequentialFile` over the disk
backend (a :class:`~repro.storage.backend.DiskStore`, optionally
decorated with a live :class:`~repro.storage.backend.BufferedStore`
cache).  It inherits every query, scan and lifecycle method; it only
guards the seven mutators, so a read-only degraded file refuses writes
and :class:`JournaledDenseFile` can commit each one.  Every page
mutation flows through the same ``PageStore`` seam every other engine
uses, and :meth:`PersistentDenseFile.open` rebuilds the complete engine
state — page contents, in-core directory, calibrator rank counters, and
the WARNING flags the paper's Fact 5.1 requires — from the file alone.

Both classes build their storage stack with
:func:`~repro.storage.backend.make_store` and
:func:`~repro.storage.backend.open_store`, the builders behind
``DenseSequentialFile(backend="disk" | "buffered", path=...)`` too, so
every file on disk has the same header and reopens here as the engine
that wrote it.

This is deliberately a *write-through* design: the dense-file
algorithms already bound how many pages one command touches (that is
the entire point of the paper), so writing each touched page
immediately costs the same ``O(log^2 M / (D - d))`` I/Os the cost model
meters.  Pass ``cache_pages`` to interpose a write-back LRU cache
instead (fewer physical writes, weaker durability between flushes).
Wrap either class in :class:`~repro.concurrent.ThreadSafeDenseFile` to
share it between threads.

Example
-------
>>> import tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "orders.dsf")
>>> with PersistentDenseFile.create(path, num_pages=64, d=8, D=40) as f:
...     f.insert(1, "first")
>>> with PersistentDenseFile.open(path) as f:
...     f.search(1).value
'first'
"""

from __future__ import annotations

import contextlib
from typing import (
    Any, Callable, Iterable, Iterator, Optional, Set, Tuple, Type, TypeVar,
)

from .core.control2 import Control2Engine
from .core.dense_file import DenseSequentialFile, engine_params
from .core.errors import (
    ConfigurationError, InvariantViolationError, ReadOnlyError, UsageError,
)
from .core.params import DensityParams
from .records import Record
from .storage.backend import (
    PageStore, find_disk_store, header_algorithm, make_store, open_store,
)
from .storage.faults import FaultInjector
from .storage.ondisk import DiskPagedStore, StorageError
from .storage.wal import TransactionJournal, recover_file

T = TypeVar("T")
P = TypeVar("P", bound="PersistentDenseFile")


class PersistentDenseFile(DenseSequentialFile):
    """Durable ``(d, D)``-dense sequential file with CONTROL 2 updates."""

    #: Whether each mutated page goes to the OS file at once.  False on
    #: :class:`JournaledDenseFile`, which collects a command's pages and
    #: commits them through its journal.  A write-through file also
    #: retires, on its first mutation, any ``.journal.applied`` image an
    #: earlier journaled session left beside the file: that image then
    #: describes a superseded state and must not be used as a heal
    #: source.  Journaled commits keep it current instead.
    _write_through = True

    def __init__(self, store: PageStore) -> None:
        """Mount the facade over a disk stack built by
        :func:`~repro.storage.backend.make_store` or
        :func:`~repro.storage.backend.open_store`.

        The geometry and algorithm come from the file's header.  The
        engine starts empty; :meth:`open` restores it from the pages.
        A refused mount closes ``store``.
        """
        disk = find_disk_store(store)
        if disk is None:
            store.close()
            raise ConfigurationError(
                "a durable file needs a disk store; build it with "
                "create() or open()"
            )
        raw = disk.raw
        try:
            algorithm, j = header_algorithm(raw)
            disk.write_through = self._write_through
            super().__init__(
                store.num_pages, raw.d, raw.D,
                algorithm=algorithm, j=j, store=store,
            )
        except BaseException:
            store.close()
            raise
        #: The :class:`~repro.storage.backend.DiskStore` layer (under
        #: the cache, if any).
        self._disk_store = disk
        self._applied_retired = False
        #: Read-only degraded mode: set when the file was opened over
        #: quarantined (unrepairable) pages.  Mutations raise
        #: :class:`~repro.core.errors.ReadOnlyError`; intact ranges stay
        #: scannable.
        self.read_only = False
        #: Quarantined page numbers (empty on a healthy file).
        self.quarantined: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls: Type[P],
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: Optional[int] = None,
        algorithm: str = "control2",
        slot_capacity: int = 0,
        overwrite: bool = False,
        cache_pages: Optional[int] = None,
        readahead: int = 0,
    ) -> P:
        """Create a new file at ``path`` with the given geometry.

        ``cache_pages`` puts a write-back LRU cache of that many frames
        over the file; ``readahead=K`` (requires ``cache_pages``) makes
        stream scans prefetch up to K upcoming pages into it.  A
        CONTROL 2 geometry that needs macro-blocks is refused before
        the file is made.
        """
        # Refuses a geometry that needs macro-blocks, before any file.
        engine_params(
            DensityParams(num_pages=num_pages, d=d, D=D, j=j),
            algorithm,
            on_disk=True,
        )
        return cls(make_store(
            "disk" if cache_pages is None else "buffered", num_pages, d, D,
            j or 0, path, cache_pages, slot_capacity, overwrite, readahead,
            algorithm,
        ))

    @classmethod
    def open(
        cls: Type[P],
        path: str,
        cache_pages: Optional[int] = None,
        on_corruption: str = "raise",
        readahead: int = 0,
    ) -> P:
        """Open an existing file, rebuilding all in-core state.

        Refuses to open a file with a pending transaction journal: that
        file was last written by :class:`JournaledDenseFile`, whose
        :meth:`JournaledDenseFile.open` performs the required recovery.

        ``on_corruption`` picks the policy for pages whose slot fails
        its CRC: ``"raise"`` (default) aborts with
        :class:`~repro.storage.ondisk.CorruptPageError`; ``"degrade"``
        quarantines them (treated as empty) and returns the file in
        **read-only degraded mode** — queries and scans over intact
        ranges work, every mutation raises
        :class:`~repro.core.errors.ReadOnlyError` until ``repro scrub``
        repairs the file.  ``cache_pages`` and ``readahead`` are as in
        :meth:`create`.  A refused open closes the file.
        """
        if on_corruption not in ("raise", "degrade"):
            raise ConfigurationError(
                f"on_corruption must be 'raise' or 'degrade', "
                f"not {on_corruption!r}"
            )
        if TransactionJournal.beside(path).exists():
            raise StorageError(
                f"{path} has a pending transaction journal; open it with "
                "JournaledDenseFile.open() so recovery can run"
            )
        opened = cls(open_store(
            path, cache_pages, readahead, on_corruption == "degrade"
        ))
        try:
            opened.engine.restore_from_store()
            if isinstance(opened.engine, Control2Engine):
                cls._rebuild_warning_flags(opened.engine)
        except BaseException:
            opened.close()
            raise
        if opened._disk_store.quarantined:
            opened._degrade(opened._disk_store.quarantined)
        return opened

    @classmethod
    def from_records(
        cls, records: Any, num_pages: int, d: int, D: int, **kwargs: Any
    ) -> "DenseSequentialFile":
        """Refused: a durable file needs a path, which this signature lacks.

        Raises :class:`~repro.core.errors.UsageError`; build it with
        ``create(path, M, d, D)`` and load it with :meth:`bulk_load`.
        """
        raise UsageError(
            f"{cls.__name__}.from_records cannot place a durable file; "
            f"use {cls.__name__}.create(path, M, d, D) and then "
            "bulk_load(records)"
        )

    def reload_pages(self, pages: Iterable[int]) -> None:
        """Re-read ``pages`` after a caller wrote their slots beneath us.

        For the replica, which commits shipped records into :attr:`_raw`
        and never writes through this facade, so warning flags (write-side
        state) are left as they are.
        """
        self._disk_store.reload(pages)
        self.engine.adopt_pages(pages)

    @staticmethod
    def _rebuild_warning_flags(engine: Control2Engine) -> None:
        """Restore Fact 5.1(b): re-activate dense nodes, deepest first.

        DEST pointers are volatile sweep state the paper never needs to
        survive a restart — re-activation resets each sweep to its
        starting position, which is always a legal (merely conservative)
        configuration.
        """
        tree = engine.calibrator
        nodes = sorted(tree.iter_nodes(), key=lambda n: -tree.depth[n])
        for node in nodes:
            if tree.parent[node] < 0 or tree.flag[node]:
                continue
            if engine._density_at_least(node, 2):
                engine._activate(node)

    # ------------------------------------------------------------------
    # the storage stack (facade -> optional cache -> disk -> OS file)
    # ------------------------------------------------------------------

    @property
    def dense(self) -> "PersistentDenseFile":
        """The dense-file facade: this file itself."""
        return self

    @property
    def _raw(self) -> DiskPagedStore:
        """The slotted OS-file layer at the bottom of the stack."""
        return self._disk_store.raw

    @property
    def path(self) -> str:
        """The OS file at the bottom of the storage stack."""
        return self._raw.path

    # ------------------------------------------------------------------
    # read-only degradation
    # ------------------------------------------------------------------

    def _degrade(self, quarantined: Iterable[int]) -> None:
        """Flip into read-only degraded mode over ``quarantined`` pages."""
        self.read_only = True
        self.quarantined = tuple(sorted(quarantined))

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                f"{self.path} is in read-only degraded mode (quarantined "
                f"pages {list(self.quarantined)}); run `repro scrub` or "
                "restore from backup before writing"
            )
        if self._write_through and not self._applied_retired:
            # First mutation through the plain (write-through) path: any
            # retained applied-journal image now describes a stale state
            # and must stop being a heal source.  Read-only flows keep it.
            self._applied_retired = True
            TransactionJournal.beside(self.path).discard()

    # ------------------------------------------------------------------
    # the seven mutators, each through one guarded hook
    # ------------------------------------------------------------------

    def _apply(self, operation: Callable[..., T], *args: Any) -> T:
        """Run one mutator of the dense-file API once writes are allowed."""
        self._check_writable()
        return operation(*args)

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert a record (written through to disk)."""
        self._apply(super().insert, key, value)

    def delete(self, key: Any) -> Record:
        """Delete and return the record with ``key``."""
        return self._apply(super().delete, key)

    def update(self, key: Any, value: Any) -> Record:
        """Replace the value stored under an existing ``key`` in place."""
        return self._apply(super().update, key, value)

    def insert_many(self, items: Iterable[Any]) -> int:
        """Insert an iterable of records/keys in a key-ordered sweep."""
        return self._apply(super().insert_many, items)

    def delete_range(self, lo_key: Any, hi_key: Any) -> int:
        """Bulk-delete every record with ``lo_key <= key <= hi_key``."""
        return self._apply(super().delete_range, lo_key, hi_key)

    def compact(self) -> int:
        """Uniformly redistribute all records; returns pages rewritten."""
        return self._apply(super().compact)

    def bulk_load(self, records: Iterable[Any]) -> None:
        """Uniformly load records into an empty file (durable)."""
        self._apply(super().bulk_load, records)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """In-core invariants plus on-disk/in-core agreement.

        A cached stack is flushed first so the comparison is against the
        pages the OS file would show after a clean shutdown.  In
        read-only degraded mode the strict structural invariants may be
        legitimately broken by the data loss, so only the intact pages
        are checked for on-disk/in-core agreement (and nothing is
        flushed — a degraded file is never written).
        """
        if not self.read_only:
            self.engine.validate()
            self.engine.store.flush()
        raw = self._raw
        for page in range(1, self.params.num_pages + 1):
            if page in self.quarantined:
                continue
            stored = raw.read_page(page)
            live = self.engine.pagefile.page(page).records()
            if stored != live:
                raise InvariantViolationError(
                    f"page {page}: on-disk contents diverge from memory"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentDenseFile({self.path!r}, {self.params}, "
            f"size={len(self)})"
        )


class JournaledDenseFile(PersistentDenseFile):
    """A crash-atomic durable dense file (redo journal per command).

    :class:`PersistentDenseFile` writes each page through as it mutates,
    which is durable but not atomic: a crash between the two page writes
    of one SHIFT could lose the records in flight.  This variant runs
    its :class:`~repro.storage.backend.DiskStore` in write-back mode, so
    every *public mutating call* becomes a transaction:

    1. the command runs in memory, the store collecting the dirty page
       set;
    2. the new page images plus a checksummed commit marker are fsynced
       to a side journal (``<path>.journal``);
    3. only then are the pages applied to the main file, the file
       fsynced, and the journal retired.

    Steps 2–3 are :meth:`~repro.storage.wal.TransactionJournal.commit`.
    :meth:`open` replays a committed journal (redo) or discards a torn
    one (:func:`~repro.storage.wal.recover_file`), so a reopened file
    always shows the state exactly before or exactly after each
    command — never in between.  The invariant is
    exercised exhaustively by the crash-point sweep in
    ``tests/test_crash_consistency.py``.

    After a :class:`~repro.storage.faults.SimulatedCrash` (or any mid-
    transaction exception) the in-memory object is dead: close it and
    reopen from disk.
    """

    _write_through = False

    def __init__(self, store: PageStore) -> None:
        super().__init__(store)
        self.journal = TransactionJournal.beside(self.path)
        self.metrics.register(
            self.journal.LAYER, self.journal, self.journal.COUNTERS
        )
        #: Nesting depth of open :meth:`transaction` blocks; while
        #: positive, per-command commits are deferred (group commit).
        self._txn_depth = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(  # type: ignore[override]
        cls,
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: Optional[int] = None,
        algorithm: str = "control2",
        slot_capacity: int = 0,
        overwrite: bool = False,
        injector: Optional[FaultInjector] = None,
    ) -> "JournaledDenseFile":
        """Create a new crash-atomic file at ``path``; ``injector``
        schedules simulated faults on its journal and file."""
        created = super().create(
            path, num_pages, d, D, j, algorithm, slot_capacity, overwrite
        )
        return created._armed(injector)

    @classmethod
    def open(  # type: ignore[override]
        cls, path: str, injector: Optional[FaultInjector] = None
    ) -> "JournaledDenseFile":
        """Open with journal recovery, rebuilding all in-core state."""
        recover_file(path)
        return super().open(path)._armed(injector)

    def _armed(self, injector: Optional[FaultInjector]) -> "JournaledDenseFile":
        """Install the fault injector on the journal and the file."""
        self.journal.injector = injector
        self._raw.fault_injector = injector
        return self

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @property
    def _dirty(self) -> Set[int]:
        """Pages touched since the last commit (lives in the store)."""
        return self._disk_store.dirty

    def _commit(self) -> None:
        if self._txn_depth > 0:
            return  # group commit: deferred to transaction() exit
        if not self._dirty:
            return
        store = self._disk_store
        # Serialize in the file's own format version (packed images on
        # version-2 files, legacy codec on version-1); journal frames and
        # redo replay treat the payload as opaque bytes either way.
        encode_image = store.raw.encode_page_image
        payloads = {
            page: encode_image(self.engine.pagefile.page(page))
            for page in sorted(store.dirty)
        }
        self.journal.commit(store.raw, payloads)
        store.dirty.clear()

    def _apply(self, operation: Callable[..., T], *args: Any) -> T:
        """Run one mutator as one atomic, durable transaction."""
        result = super()._apply(operation, *args)
        self._commit()
        return result

    @contextlib.contextmanager
    def transaction(self) -> Iterator["JournaledDenseFile"]:
        """Group commit: coalesce several commands into one transaction.

        Inside the ``with`` block every mutating call runs in memory
        only; the union of the dirty page sets is journaled, fsynced
        (once) and applied when the block exits cleanly::

            with f.transaction():
                f.insert(1)
                f.insert(2)
                f.delete_range(10, 20)

        Pages rewritten by several commands in the group are journaled
        and written back once — and the group pays one fsync instead of
        one per command.  Atomicity is per *group*: on an exception
        inside the block nothing is committed, the in-memory object is
        dead (as after any mid-transaction failure), and reopening from
        disk restores the state before the ``with`` block.  Blocks nest;
        only the outermost exit commits.
        """
        self._check_writable()
        self._txn_depth += 1
        try:
            yield self
        except BaseException:
            self._txn_depth -= 1
            raise
        self._txn_depth -= 1
        self._commit()

    def close(self) -> None:
        """Commit any buffered transaction, then close the store."""
        self._txn_depth = 0  # closing inside a group commits it
        if self._dirty and not self.closed:
            self._commit()
        super().close()

    @property
    def durable_sequence(self) -> int:
        """LSN of the last durably committed transaction (0 when none)."""
        return self.journal.sequence

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """In-core invariants plus on-disk/in-core agreement.

        Only meaningful between transactions (there must be no buffered
        dirty pages, or the comparison would be vacuous).
        """
        if self._dirty:
            raise InvariantViolationError(
                "validate() called with an uncommitted transaction"
            )
        super().validate()
