"""Instrumented wrappers: zero-cost when off, by construction.

The sanitizer never patches live objects or branches on an "enabled"
flag in the hot path.  Instead, *sanitize mode builds a different
stack*: the store is wrapped in :class:`SanitizedStore` (a
:class:`~repro.storage.backend.DelegatingStore` that reports one event
per metered touch before delegating) and the front-end is given a
:class:`SanitizedRWLock` (a :class:`~repro.concurrent.rwlock.FairRWLock`
subclass that reports request/acquire/release around the inherited
behaviour).  With the sanitizer off the plain classes are used and not
one instruction changes — which is what makes the overhead-gate
satellite (bit-identical logical counters, wall-clock within the bench
gate) hold trivially rather than approximately.

The store seam is the LNT001 seam: the accounting lint rule already
forces every engine's physical traffic through
``get_page``/``get_page2``/``put_page``/``move_records`` on the store
attribute, so wrapping the store is guaranteed to observe every
metered page touch (``get_page2`` arrives as two ``get_page`` calls).  ``peek`` is also reported (as a read): it is
uncharged *cost-wise* but still a shared-memory access the detector
must order.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..concurrent.deadline import Deadline
from ..concurrent.rwlock import FairRWLock
from ..storage.backend import DelegatingStore, PageStore
from ..storage.page import Page
from .runtime import READ, WRITE, SanitizerRuntime


class SanitizedStore(DelegatingStore):
    """Report every metered page touch, then delegate unchanged.

    Decorating the *outermost* store of a stack observes exactly the
    logical access sequence the engine issues (the same sequence the
    paper's accounting charges); inner caching layers keep their own
    traffic invisible, which is correct — a buffer-pool hit still reads
    the shared page object.
    """

    name = "sanitized"
    passthrough_reads = True

    def __init__(
        self,
        inner: PageStore,
        runtime: SanitizerRuntime,
        label: str = "store",
    ):
        super().__init__(inner)
        self._runtime = runtime
        self._label = runtime.register_label(label)

    def _resource(self, page_number: int) -> str:
        return f"{self._label}:page[{page_number}]"

    def peek(self, page_number: int) -> Page:
        self._runtime.on_access(self._resource(page_number), READ)
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        self._runtime.on_access(self._resource(page_number), READ)
        return self.inner.get_page(page_number)

    def put_page(self, page_number: int) -> None:
        self._runtime.on_access(self._resource(page_number), WRITE)
        self.inner.put_page(page_number)

    def move_records(self, source: int, dest: int, count: int) -> int:
        # The SHIFT touch sequence the logical meter charges: read the
        # source, write the destination, write the source back.
        self._runtime.on_access(self._resource(source), READ)
        self._runtime.on_access(self._resource(dest), WRITE)
        self._runtime.on_access(self._resource(source), WRITE)
        return self.inner.move_records(source, dest, count)


class SanitizedRWLock(FairRWLock):
    """A :class:`FairRWLock` that reports its events to the runtime.

    Requests are reported *before* blocking (so a deadlocked or
    timed-out acquisition still records its lock-order edge), releases
    *before* the waiters wake (so the published vector clock is visible
    to whoever acquires next).  The ``*_locked`` context-manager
    helpers inherit from the base class and dispatch through the
    overridden methods.
    """

    def __init__(
        self,
        runtime: SanitizerRuntime,
        label: str = "rwlock",
        clock: Callable[[], float] = time.monotonic,
    ):
        super().__init__(clock=clock)
        self._runtime = runtime
        self._label = runtime.register_label(label)

    @property
    def label(self) -> str:
        """The runtime-unique instance label (for tests and reports)."""
        return self._label

    def acquire_read(self, deadline: Optional[Deadline] = None) -> None:
        self._runtime.on_acquire_request(self._label, READ)
        super().acquire_read(deadline)
        self._runtime.on_acquired(self._label, READ)

    def acquire_write(self, deadline: Optional[Deadline] = None) -> None:
        self._runtime.on_acquire_request(self._label, WRITE)
        super().acquire_write(deadline)
        self._runtime.on_acquired(self._label, WRITE)

    def release_read(self) -> None:
        self._runtime.on_release(self._label, READ)
        super().release_read()

    def release_write(self) -> None:
        self._runtime.on_release(self._label, WRITE)
        super().release_write()
