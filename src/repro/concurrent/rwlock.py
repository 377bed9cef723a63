"""A fair reader-writer lock with deadline-aware acquisition.

Queries against a dense file never mutate the structure, so they can
share the file; inserts, deletes and compactions are the paper's
single-writer algorithms and must run alone.  :class:`FairRWLock`
provides exactly that split with two properties the coarse global lock
it replaces lacked:

**Fairness.**  Waiters are served in strict arrival order: a run of
readers at the head of the queue enters together, a writer enters
alone.  A writer can therefore never be starved by a stream of readers
(new readers queue *behind* the waiting writer), and readers can never
be starved by back-to-back writers — the worst case any waiter sees is
the waiters ahead of it, mirroring the paper's worst-case-over-
amortized philosophy at the concurrency layer.

**Deadlines.**  Both acquisition paths take a
:class:`~repro.concurrent.deadline.Deadline`; a waiter whose budget
expires leaves the queue and raises
:class:`~repro.core.errors.OperationTimeout` instead of blocking
forever.  Lock acquisition, not just the work under the lock, respects
the operation's time budget.

**Uncontended cost.**  Almost every acquisition meets an empty queue
and a lock it can take; that path enters at once under the internal
mutex, with no ticket, and a release wakes the condition only when a
waiter is queued.  Anything else — a waiter queued ahead, or a holder
the request conflicts with — takes a FIFO ticket, so the fairness rule
above is unchanged.

The lock is deliberately **not reentrant**: a thread that already
holds the write side and tries to take either side again will wait on
itself (and time out, if it has a deadline).  The front-end never
nests acquisitions; the torture harness's deadlock negative control
relies on the timeout path making such bugs visible instead of hanging.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

from ..core.errors import LockProtocolError, OperationTimeout
from ..obs import Number, view
from .deadline import Deadline


class _Waiter:
    """One queued acquisition request (FIFO ticket)."""

    __slots__ = ("wants_write",)

    def __init__(self, wants_write: bool):
        self.wants_write = wants_write


class _LockHandle:
    """Context manager returned by the ``*_locked`` helpers."""

    __slots__ = ("_lock", "_write")

    def __init__(self, lock: "FairRWLock", write: bool):
        self._lock = lock
        self._write = write

    def __enter__(self) -> "_LockHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._write:
            self._lock.release_write()
        else:
            self._lock.release_read()


class FairRWLock:
    """FIFO-fair shared/exclusive lock with per-acquisition deadlines."""

    LAYER = "concurrent.rwlock"
    #: Registered by kind, each with its merge rule (:mod:`repro.obs`):
    #: counters add up, a peak takes the greatest, and the current-value
    #: gauges stay in the lock's own stack.
    COUNTERS = ("readers_served", "writers_served", "timeouts")
    PEAKS = ("max_queue_depth",)
    GAUGES = ("active_readers", "writer_active", "queue_depth")

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._queue: deque = deque()
        self.active_readers = 0
        self.writer_active = False
        self._clock = clock
        # Observability counters (written under the internal mutex).
        self.readers_served = 0
        self.writers_served = 0
        self.timeouts = 0
        self.max_queue_depth = 0

    # -- admission rule -------------------------------------------------

    def _may_enter(self, waiter: _Waiter) -> bool:
        """FIFO rule: enter only when nothing conflicting is ahead."""
        if waiter.wants_write:
            return (
                not self.writer_active
                and self.active_readers == 0
                and self._queue[0] is waiter
            )
        if self.writer_active:
            return False
        for ahead in self._queue:
            if ahead is waiter:
                return True
            if ahead.wants_write:
                return False
        raise AssertionError("waiter vanished from the queue")

    def _acquire(self, wants_write: bool, deadline: Optional[Deadline]) -> None:
        with self._mutex:
            if (
                not self._queue
                and not self.writer_active
                and not (wants_write and self.active_readers)
            ):
                # Uncontended: a ticket would stand alone at the head
                # of the queue and pass _may_enter at once, so enter
                # without one.  A queued waiter of either kind sends
                # every arrival down the ticket path, which keeps FIFO.
                self._enter(wants_write)
                if not self.max_queue_depth:
                    self.max_queue_depth = 1
                return
            budget = deadline if deadline is not None else Deadline.unbounded()
            waiter = _Waiter(wants_write)
            self._queue.append(waiter)
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
            try:
                while not self._may_enter(waiter):
                    if not self._cond.wait(budget.wait_budget()):
                        if budget.expired:
                            self.timeouts += 1
                            kind = "write" if wants_write else "read"
                            raise OperationTimeout(
                                f"{kind}-lock acquisition: deadline expired "
                                f"with {len(self._queue)} waiter(s) queued"
                            )
            except BaseException:
                self._queue.remove(waiter)
                # Our departure may unblock the waiters behind us.
                self._cond.notify_all()
                raise
            self._queue.remove(waiter)
            self._enter(wants_write)
            if not wants_write and self._queue:
                # A contiguous run of readers enters together.
                self._cond.notify_all()

    def _enter(self, wants_write: bool) -> None:
        """Take the lock (caller holds the mutex and passed the rule)."""
        if wants_write:
            self.writer_active = True
            self.writers_served += 1
        else:
            self.active_readers += 1
            self.readers_served += 1

    # -- public API -----------------------------------------------------

    def acquire_read(self, deadline: Optional[Deadline] = None) -> None:
        """Join the readers (shared); honours ``deadline`` while queued."""
        self._acquire(False, deadline)

    def acquire_write(self, deadline: Optional[Deadline] = None) -> None:
        """Become the sole writer; honours ``deadline`` while queued."""
        self._acquire(True, deadline)

    def release_read(self) -> None:
        """Leave the readers; wakes the queue when the last one leaves."""
        with self._mutex:
            if self.active_readers <= 0:
                raise LockProtocolError("release_read without a matching acquire")
            self.active_readers -= 1
            if self.active_readers == 0 and self._queue:
                self._cond.notify_all()

    def release_write(self) -> None:
        """Release exclusivity and wake the queue."""
        with self._mutex:
            if not self.writer_active:
                raise LockProtocolError("release_write without a matching acquire")
            self.writer_active = False
            if self._queue:
                self._cond.notify_all()

    def read_locked(self, deadline: Optional[Deadline] = None) -> _LockHandle:
        """``with lock.read_locked(deadline):`` acquire/release helper."""
        self.acquire_read(deadline)
        return _LockHandle(self, write=False)

    def write_locked(self, deadline: Optional[Deadline] = None) -> _LockHandle:
        """``with lock.write_locked(deadline):`` acquire/release helper."""
        self.acquire_write(deadline)
        return _LockHandle(self, write=True)

    # -- introspection --------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Waiters currently queued (a point-in-time snapshot)."""
        with self._mutex:
            return len(self._queue)

    def stats(self) -> Dict[str, Number]:
        """Service and contention counters (each read once, unlocked)."""
        return view(self, self.COUNTERS + self.PEAKS + self.GAUGES)
