"""The hardened concurrent front-end over any dense-file facade.

:class:`ThreadSafeDenseFile` replaces the old single-RLock wrapper with
a three-layer pipeline, while keeping its exact API surface (plus
optional ``timeout=`` / ``deadline=`` keyword-only arguments on every
operation):

1. **Admission** (optional): a bounded
   :class:`~repro.concurrent.admission.AdmissionGate` in front of the
   lock.  When the in-flight cap and wait queue are full, operations
   fail fast with :class:`~repro.core.errors.OverloadError`; in
   ``shed_load`` mode writes are rejected as soon as they would queue,
   while reads keep being served.
2. **Fair reader-writer lock**: queries share the file, mutations are
   single-writer, and waiters are served in arrival order
   (:class:`~repro.concurrent.rwlock.FairRWLock`).  Every acquisition
   honours the operation's deadline, so no call blocks unboundedly —
   the concurrency layer keeps the paper's worst-case spirit.
3. **Deadline-aware storage retries**: any
   :class:`~repro.storage.faults.RetryingStore` in the wrapped file's
   stack is given the operation's remaining budget for the duration of
   the call, so transient-fault backoff stops (with
   :class:`~repro.core.errors.OperationTimeout`) when the budget is
   spent instead of burning time the caller no longer has.

Concurrent readers are only enabled on storage stacks whose read path
is free of shared mutable state (a :class:`~repro.storage.backend.MemoryStore`
base, possibly decorated with fault-injection/retry layers).  Disk and
buffered stacks mutate shared state on reads (a single file handle's
seek position, LRU recency lists), so reads there are serialized like
writes — the deadline and admission machinery applies identically.
Force the choice with ``shared_reads=True/False``.  Under concurrent
readers the file's access-counter statistics may undercount slightly
(unsynchronized increments); the structure itself is never touched by
a reader.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List, Optional

from ..records import Record
from ..storage.backend import MemoryStore
from ..storage.faults import FaultyStore, RetryingStore
from .admission import READ, WRITE, AdmissionGate
from .deadline import Deadline
from .rwlock import FairRWLock


def find_retrying_stores(store: Any) -> List[RetryingStore]:
    """Every :class:`RetryingStore` layer in a decorator stack."""
    found: List[RetryingStore] = []
    while store is not None:
        if isinstance(store, RetryingStore):
            found.append(store)
        store = getattr(store, "inner", None)
    return found


def reads_are_shareable(store: Any) -> bool:
    """Whether a store stack's read path touches no shared mutable state.

    True only for a :class:`~repro.storage.backend.MemoryStore` base
    under pass-through decorators (fault injection, retries, and any
    :class:`~repro.storage.backend.DelegatingStore` declaring
    ``passthrough_reads`` — the sanitizer's instrumented store does).
    Disk stacks share a seekable file handle and buffered stacks
    reorder an LRU list on every read, so their reads must be
    serialized.

    A shared read still writes one thing: the first scan of a page
    after a mutation stores the page's row tuple
    (:meth:`~repro.storage.page.Page.rows`), and two readers may build
    it at once.  That is safe because the fill is idempotent (both
    store equal tuples), because it is computed only from the page's
    columns, which change only under the exclusive lock, and because it
    is one attribute store, so a reader sees no tuple or a whole one.
    """
    while store is not None:
        if isinstance(store, MemoryStore):
            return True
        if isinstance(store, (FaultyStore, RetryingStore)) or getattr(
            store, "passthrough_reads", False
        ):
            store = store.inner
            continue
        return False
    return False


class _Guard:
    """One guarded call through a :class:`ThreadSafeDenseFile`.

    ``__enter__`` runs the pipeline in order: admission, the
    reader-writer lock, the budget check, then the hand-off of the
    budget to every :class:`RetryingStore`.  ``__exit__`` undoes the
    steps that ran, in reverse, on every path — a step that raises in
    ``__enter__`` unwinds the ones before it.  The lock is reached
    through the instance's ``acquire_*``/``release_*`` methods, so a
    subclass (the sanitizer's) or a per-instance patch sees every
    acquisition.
    """

    __slots__ = ("_front", "_kind", "_exclusive", "_budget", "_admission",
                 "_locked", "_handed_off")

    def __init__(self, front: ThreadSafeDenseFile, kind: str,
                 budget: Deadline):
        self._front = front
        self._kind = kind
        self._exclusive = kind == WRITE or not front._shared_reads
        self._budget = budget
        self._admission: Any = None
        self._locked = False
        self._handed_off = False

    def __enter__(self) -> None:
        front = self._front
        budget = self._budget
        try:
            if not front._bypass_lock:
                if front._gate is not None:
                    self._admission = front._gate.enter(self._kind, budget)
                if self._exclusive:
                    front._lock.acquire_write(budget)
                else:
                    front._lock.acquire_read(budget)
                self._locked = True
                budget.check("operation admitted and locked, but")
            if front._retrying and budget.expires_at is not None:
                self._handed_off = True
                for layer in front._retrying:
                    layer.set_deadline(budget)
        except BaseException:
            self.__exit__(None, None, None)
            raise

    def __exit__(self, *exc: object) -> None:
        front = self._front
        try:
            if self._handed_off:
                for layer in front._retrying:
                    layer.set_deadline(None)
            if self._locked:
                if self._exclusive:
                    front._lock.release_write()
                else:
                    front._lock.release_read()
        finally:
            if self._admission is not None:
                self._admission.__exit__(None, None, None)


class ThreadSafeDenseFile:
    """Serialize writers, share readers, bound waiting — over any facade.

    Wraps a :class:`~repro.core.dense_file.DenseSequentialFile`,
    including its durable subclasses
    :class:`~repro.persistent.PersistentDenseFile` and
    :class:`~repro.persistent.JournaledDenseFile`, so every query it
    forwards exists on every file it wraps.  Drop-in compatible with
    the old coarse-lock wrapper; all hardening knobs are optional.

    Parameters
    ----------
    inner:
        The dense-file facade to protect.
    max_in_flight, max_queued, shed_load:
        Enable the admission gate: at most ``max_in_flight`` operations
        run/hold the lock at once, at most ``max_queued`` more wait;
        beyond that :class:`~repro.core.errors.OverloadError` is raised
        immediately.  ``shed_load`` rejects writes as soon as they
        would queue while reads keep being admitted.  With the default
        ``max_in_flight=None`` (and ``shed_load=False``) no gate is
        installed.
    default_timeout:
        Budget (seconds) applied to operations that pass neither
        ``timeout=`` nor ``deadline=``; ``None`` means wait forever.
    shared_reads:
        Force readers shared (``True``) or serialized (``False``);
        ``None`` auto-detects from the storage stack.
    bypass_lock:
        **Testing only.**  Skips admission and locking entirely so the
        torture harness's negative control can prove it detects the
        resulting races.  Never set this in real use.
    lock:
        Inject a pre-built :class:`~repro.concurrent.rwlock.FairRWLock`
        (or subclass — the sanitizer passes its instrumented
        :class:`~repro.sanitizer.instrument.SanitizedRWLock`) instead
        of constructing a plain one.
    """

    def __init__(
        self,
        inner: Any,
        max_in_flight: Optional[int] = None,
        max_queued: int = 64,
        shed_load: bool = False,
        default_timeout: Optional[float] = None,
        shared_reads: Optional[bool] = None,
        bypass_lock: bool = False,
        clock: Callable[[], float] = time.monotonic,
        lock: Optional[FairRWLock] = None,
    ):
        self._inner = inner
        self._clock = clock
        self._lock = lock if lock is not None else FairRWLock(clock=clock)
        self._gate: Optional[AdmissionGate] = None
        if max_in_flight is not None or shed_load:
            self._gate = AdmissionGate(
                max_in_flight=max_in_flight if max_in_flight is not None else 64,
                max_queued=max_queued,
                shed_load=shed_load,
                clock=clock,
            )
        self.default_timeout = default_timeout
        self._bypass_lock = bypass_lock
        #: The wrapped file's counter registry, which the lock and the
        #: gate join (they are part of its stack now).
        self.metrics = inner.metrics
        for part in (self._lock, self._gate):
            if part is not None:
                self.metrics.register(part.LAYER, part, part.COUNTERS)
        store = getattr(inner, "store", None)
        self._retrying = find_retrying_stores(store)
        if shared_reads is None:
            shared_reads = reads_are_shareable(store)
        self._shared_reads = shared_reads

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------

    def _guarded(
        self,
        kind: str,
        timeout: Optional[float],
        deadline: Optional[Deadline],
    ) -> _Guard:
        """Admission -> lock -> storage-deadline, all budget-aware."""
        budget = Deadline.resolve(
            timeout, deadline, self.default_timeout, self._clock
        )
        return _Guard(self, kind, budget)

    # ------------------------------------------------------------------
    # updates (single-writer)
    # ------------------------------------------------------------------

    def insert(
        self,
        key: Any,
        value: Any = None,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Insert a record (single-writer, deadline-aware)."""
        with self._guarded(WRITE, timeout, deadline):
            self._inner.insert(key, value)

    def delete(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Record:
        """Delete and return the record with ``key`` (single-writer)."""
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.delete(key)

    def update(
        self,
        key: Any,
        value: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Record:
        """Replace the value under ``key`` in place (single-writer)."""
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.update(key, value)

    def insert_many(
        self,
        items: Iterable[Any],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Insert a batch atomically with respect to other threads.

        The writer lock is taken once for the whole batch (the deadline
        budget covers lock acquisition plus the batch itself), so the
        coalesced insert path also saves lock traffic.
        """
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.insert_many(items)

    def delete_range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Bulk-delete a key range atomically w.r.t. other threads."""
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.delete_range(lo_key, hi_key)

    def compact(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Uniformly redistribute all records (single-writer)."""
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.compact()

    # ------------------------------------------------------------------
    # queries (shared readers; scans materialize under the lock)
    # ------------------------------------------------------------------

    def search(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Return the record with ``key`` or ``None`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.search(key)

    def range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[Record]:
        """Records with ``lo_key <= key <= hi_key`` as a snapshot list."""
        with self._guarded(READ, timeout, deadline):
            return list(self._inner.range(lo_key, hi_key))

    def scan(
        self,
        start_key: Any,
        count: int,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[Record]:
        """Up to ``count`` records from ``start_key`` (snapshot)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.scan(start_key, count)

    def rank(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Records with key strictly below ``key`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.rank(key)

    def count_range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Records with ``lo_key <= key <= hi_key`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.count_range(lo_key, hi_key)

    def select(
        self,
        index: int,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Record:
        """The record of 0-based rank ``index`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.select(index)

    def min(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Smallest-keyed record (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.min()

    def max(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Largest-keyed record (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.max()

    def successor(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Smallest record with key > ``key`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.successor(key)

    def predecessor(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Largest record with key < ``key`` (shared read)."""
        with self._guarded(READ, timeout, deadline):
            return self._inner.predecessor(key)

    def __contains__(self, key: Any) -> bool:
        with self._guarded(READ, None, None):
            return key in self._inner

    def __len__(self) -> int:
        with self._guarded(READ, None, None):
            return len(self._inner)

    # ------------------------------------------------------------------
    # maintenance and lifecycle
    # ------------------------------------------------------------------

    def validate(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Assert the structural invariants (exclusive: may flush)."""
        with self._guarded(WRITE, timeout, deadline):
            self._inner.validate()

    def flush(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Flush the wrapped file's storage stack (single-writer)."""
        with self._guarded(WRITE, timeout, deadline):
            return self._inner.flush()

    def close(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Flush and close the wrapped file (single-writer)."""
        with self._guarded(WRITE, timeout, deadline):
            self._inner.close()

    @property
    def closed(self) -> bool:
        with self._guarded(READ, None, None):
            return self._inner.closed

    def __enter__(self) -> "ThreadSafeDenseFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection (under the read lock: never observed mid-mutation)
    # ------------------------------------------------------------------

    @property
    def params(self) -> Any:
        """The wrapped file's density parameters (read-locked)."""
        with self._guarded(READ, None, None):
            return self._inner.params

    @property
    def stats(self) -> Any:
        """The wrapped file's access counters (read-locked)."""
        with self._guarded(READ, None, None):
            return self._inner.stats

    @property
    def inner(self) -> Any:
        """The wrapped facade (callers must hold no expectations of
        thread safety when touching it directly)."""
        return self._inner  # lint: allow[lock-discipline] -- documented escape hatch

    @property
    def lock(self) -> FairRWLock:
        """The reader-writer lock (exposed for tests and monitoring)."""
        return self._lock

    @property
    def gate(self) -> Optional[AdmissionGate]:
        """The admission gate, or ``None`` when unbounded."""
        return self._gate

    @property
    def shared_reads(self) -> bool:
        """Whether queries run concurrently on this stack."""
        return self._shared_reads

