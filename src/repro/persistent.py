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

This is deliberately a *write-through* design by default: the
dense-file algorithms already bound how many pages one command touches
(that is the entire point of the paper), so writing each touched page
immediately costs the same ``O(log^2 M / (D - d))`` I/Os the cost model
meters.  Pass ``cache_pages`` to interpose a write-back LRU cache
instead (fewer physical writes, weaker durability between flushes).

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

from typing import Any, Callable, Iterable, Optional, cast

from .core.control2 import Control2Engine
from .core.dense_file import DenseSequentialFile
from .core.errors import ConfigurationError, ReadOnlyError, UsageError
from .core.params import DensityParams
from .records import Record
from .storage.backend import BufferedStore, DiskStore
from .storage.ondisk import DiskPagedStore, StorageError
from .storage.wal import TransactionJournal, recover_file

_ALGORITHM_CODES = {"control2": 0, "control1": 1}
_ALGORITHM_NAMES = {code: name for name, code in _ALGORITHM_CODES.items()}


def _wrap_threadsafe(opened):
    """Wrap a freshly created/opened file in the concurrency front-end."""
    from .concurrent import ThreadSafeDenseFile

    return ThreadSafeDenseFile(opened)


class PersistentDenseFile(DenseSequentialFile):
    """Durable ``(d, D)``-dense sequential file with CONTROL 2 updates."""

    #: Whether the first mutation retires a retained ``.journal.applied``
    #: image beside the file.  True for plain write-through files: once
    #: this class writes pages the retained images (left by an earlier
    #: journaled session) describe a superseded state and must not be
    #: used as a heal source.  :class:`JournaledDenseFile` overrides
    #: this — its own commits keep the applied image current.
    _retires_applied = True

    def __init__(
        self,
        store: DiskStore,
        cache_pages: Optional[int] = None,
        readahead: int = 0,
    ):
        """Mount the facade over ``store``, cached when ``cache_pages`` is set.

        The geometry and algorithm come from the file's header.  The
        engine starts empty; :meth:`open` restores it from the pages.
        """
        raw = store.raw
        algorithm = _ALGORITHM_NAMES.get(raw.j >> 24)
        if algorithm is None:
            store.close()
            raise StorageError(f"{raw.path}: unknown algorithm code")
        if readahead and cache_pages is None:
            store.close()
            raise ConfigurationError(
                "readahead prefetches into the page cache; pass cache_pages"
            )
        super().__init__(
            store.num_pages,
            raw.d,
            raw.D,
            algorithm=algorithm,
            j=(raw.j & 0xFFFFFF) or None,
            auto_macroblock=False,
            store=store if cache_pages is None else BufferedStore(
                store, capacity=cache_pages, readahead=readahead
            ),
        )
        self._applied_retired = False
        #: Read-only degraded mode: set when the file was opened over
        #: quarantined (unrepairable) pages.  Mutations raise
        #: :class:`~repro.core.errors.ReadOnlyError`; intact ranges stay
        #: scannable.
        self.read_only = False
        #: Quarantined page numbers (empty on a healthy file).
        self.quarantined: tuple = ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: Optional[int] = None,
        algorithm: str = "control2",
        slot_capacity: int = 0,
        overwrite: bool = False,
        cache_pages: Optional[int] = None,
        write_through: bool = True,
        threadsafe: bool = False,
        readahead: int = 0,
    ) -> "PersistentDenseFile":
        """Create a new file at ``path`` with the given geometry.

        With ``threadsafe=True`` the file comes back wrapped in a
        :class:`~repro.concurrent.ThreadSafeDenseFile` (fair
        reader-writer locking plus per-operation deadlines), ready to
        be shared between threads.

        ``readahead=K`` (requires ``cache_pages``) makes stream scans
        prefetch up to K upcoming pages into the cache.
        """
        if algorithm not in _ALGORITHM_CODES:
            raise ConfigurationError(f"unknown algorithm {algorithm!r}")
        params = DensityParams(num_pages=num_pages, d=d, D=D, j=j)
        if algorithm == "control2" and not params.satisfies_slack_condition:
            raise ConfigurationError(
                "persistent files require D - d > 3*ceil(log2 M); widen "
                "the slack or use more pages"
            )
        # Encode the algorithm in the (otherwise unused) high bits of J.
        stored_j = (params.j or 0) | (_ALGORITHM_CODES[algorithm] << 24)
        store = DiskStore.create(
            path,
            num_pages=num_pages,
            d=d,
            D=D,
            j=stored_j,
            slot_capacity=slot_capacity,
            overwrite=overwrite,
            write_through=write_through,
        )
        created = cls(store, cache_pages, readahead)
        return _wrap_threadsafe(created) if threadsafe else created

    @classmethod
    def open(
        cls, path: str, cache_pages: Optional[int] = None,
        write_through: bool = True,
        on_corruption: str = "raise",
        threadsafe: bool = False,
        readahead: int = 0,
    ) -> "PersistentDenseFile":
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
        repairs the file.

        ``threadsafe=True`` wraps the opened file in a
        :class:`~repro.concurrent.ThreadSafeDenseFile`.
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
        store = DiskStore.open(
            path,
            write_through=write_through,
            tolerate_corruption=on_corruption == "degrade",
        )
        opened = cls(store, cache_pages, readahead)
        opened.engine.restore_from_store()
        if isinstance(opened.engine, Control2Engine):
            cls._rebuild_warning_flags(opened.engine)
        if store.quarantined:
            opened._degrade(store.quarantined)
        return _wrap_threadsafe(opened) if threadsafe else opened

    @classmethod
    def from_records(cls, records, num_pages: int, d: int, D: int, **kwargs):
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
    def _disk_store(self) -> DiskStore:
        """The :class:`DiskStore` layer (under the cache, if any)."""
        store = self.engine.store
        if isinstance(store, BufferedStore):
            store = store.inner
        return store

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

    def _degrade(self, quarantined) -> None:
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
        if self._retires_applied and not self._applied_retired:
            # First mutation through the plain (write-through) path: any
            # retained applied-journal image now describes a stale state
            # and must stop being a heal source.  Read-only flows keep it.
            self._applied_retired = True
            TransactionJournal.beside(self.path).discard()

    # ------------------------------------------------------------------
    # the seven mutators, each through one guarded hook
    # ------------------------------------------------------------------

    def _apply(self, operation: Callable[..., Any], *args: Any) -> Any:
        """Run one mutator of the dense-file API once writes are allowed."""
        self._check_writable()
        return operation(*args)

    def insert(self, key, value=None) -> None:
        """Insert a record (written through to disk)."""
        self._apply(super().insert, key, value)

    def delete(self, key) -> Record:
        """Delete and return the record with ``key``."""
        return self._apply(super().delete, key)

    def update(self, key, value) -> Record:
        """Replace the value stored under an existing ``key`` in place."""
        return self._apply(super().update, key, value)

    def insert_many(self, items, batch: bool = True) -> int:
        """Insert an iterable of records/keys in a key-ordered sweep."""
        return self._apply(super().insert_many, items, batch)

    def delete_range(self, lo_key, hi_key, batch: bool = True) -> int:
        """Bulk-delete every record with ``lo_key <= key <= hi_key``."""
        return self._apply(super().delete_range, lo_key, hi_key, batch)

    def compact(self) -> int:
        """Uniformly redistribute all records; returns pages rewritten."""
        return self._apply(super().compact)

    def bulk_load(self, records) -> None:
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
        from .core.errors import InvariantViolationError

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
    its :class:`~repro.storage.backend.DiskStore` in write-back mode
    (``write_through=False``), so every *public mutating call* becomes a
    transaction:

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

    #: Journaled commits keep the retained applied image current; never
    #: retire it (it is this class's own durable-LSN/heal-source record).
    _retires_applied = False

    def __init__(
        self,
        store: DiskStore,
        cache_pages: Optional[int] = None,
        readahead: int = 0,
    ):
        super().__init__(store, cache_pages, readahead)
        self.journal = TransactionJournal.beside(store.path)
        #: Nesting depth of open :meth:`transaction` blocks; while
        #: positive, per-command commits are deferred (group commit).
        self._txn_depth = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: Optional[int] = None,
        algorithm: str = "control2",
        slot_capacity: int = 0,
        overwrite: bool = False,
        injector=None,
        threadsafe: bool = False,
    ) -> "JournaledDenseFile":
        """Create a new crash-atomic file at ``path``.

        ``threadsafe=True`` wraps the file in a
        :class:`~repro.concurrent.ThreadSafeDenseFile`.
        """
        created = super().create(
            path,
            num_pages=num_pages,
            d=d,
            D=D,
            j=j,
            algorithm=algorithm,
            slot_capacity=slot_capacity,
            overwrite=overwrite,
            write_through=False,
        )
        return cast("JournaledDenseFile", created)._armed(injector, threadsafe)

    @classmethod
    def open(
        cls, path: str, injector=None, threadsafe: bool = False
    ) -> "JournaledDenseFile":
        """Open with journal recovery, rebuilding all in-core state.

        ``threadsafe=True`` wraps the file in a
        :class:`~repro.concurrent.ThreadSafeDenseFile`.
        """
        recover_file(path)
        opened = super().open(path, write_through=False)
        return cast("JournaledDenseFile", opened)._armed(injector, threadsafe)

    def _armed(self, injector, threadsafe: bool):
        """Install the fault injector; wrap for threads when asked."""
        self.journal.injector = injector
        self._raw.fault_injector = injector
        return _wrap_threadsafe(self) if threadsafe else self

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @property
    def _dirty(self) -> set:
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

    def _apply(self, operation: Callable[..., Any], *args: Any) -> Any:
        """Run one mutator as one atomic, durable transaction."""
        result = super()._apply(operation, *args)
        self._commit()
        return result

    def transaction(self):
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
        import contextlib

        @contextlib.contextmanager
        def _group():
            self._check_writable()
            self._txn_depth += 1
            try:
                yield self
            except BaseException:
                self._txn_depth -= 1
                raise
            else:
                self._txn_depth -= 1
                self._commit()

        return _group()

    def close(self) -> None:
        """Commit any buffered transaction, then close the store."""
        self._txn_depth = 0  # closing inside a group commits it
        if self._dirty and not self.closed:
            self._commit()
        super().close()

    def store_stats(self) -> dict:
        """Physical-layer counters plus journal/group-commit activity."""
        stats = super().store_stats()
        stats["journal"] = self.journal.counters()
        return stats

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
            from .core.errors import InvariantViolationError

            raise InvariantViolationError(
                "validate() called with an uncommitted transaction"
            )
        super().validate()
