"""Fault injection and absorption at the ``PageStore`` seam.

The paper's headline is a *worst-case* guarantee, but the physical
layer only honours it on a healthy disk.  This module makes the failure
modes of real storage first-class — and deterministic — so the test
suite can drive a fault into every injection point of every command and
assert the file always lands in a legal state:

:class:`FaultPlan`
    A seeded, reproducible schedule of faults.  It generalizes the
    crash-at-Nth-physical-write :class:`FaultInjector` beyond the
    journal to the whole store seam, and adds three more fault kinds:
    transient :class:`~repro.core.errors.TransientIOError` on
    get/put/flush (seeded Bernoulli per operation), **torn writes**
    (only a prefix of the page frame reaches the platter) and **payload
    bit-flips** (silent corruption, caught by the slot CRCs on the next
    read).
:class:`FaultyStore`
    A :class:`~repro.storage.backend.PageStore` decorator that consults
    a plan before every logical operation and installs the plan's
    physical hooks on the :class:`~repro.storage.ondisk.DiskPagedStore`
    at the bottom of the stack (when there is one).  Every fault fires
    *before* the wrapped store is touched, so a faulted operation has
    no side effects and is safe to retry verbatim.
:class:`RetryingStore`
    The absorption side: bounded retries with a deterministic
    exponential :class:`~repro.concurrent.retry.RetryPolicy` for
    transient faults, with
    retry/give-up counters in :meth:`~RetryingStore.stats`.  Crashes and
    corruption are *not* retried — those belong to the journal and
    :func:`~repro.storage.scrub.scrub` recovery paths.

Fault taxonomy (who detects it, who heals it):

=============  ======================  ===============================
fault          detected by             healed by
=============  ======================  ===============================
transient      raised synchronously    :class:`RetryingStore` retries
crash          process death           journal redo on reopen
torn write     slot CRC on next read   journal image via ``scrub()``
bit-flip       slot CRC on next read   journal image via ``scrub()``;
                                       else quarantine + read-only mode
=============  ======================  ===============================

A default-constructed :class:`FaultPlan` injects nothing; the decorators
then add no logical page accesses and near-zero overhead (the
``benchmarks/test_fault_overhead.py`` guard asserts both), so the fault
layer can stay installed in production stacks.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, List, Optional, Tuple, TypeVar

from ..concurrent.retry import RetryCounters, RetryPolicy, retry_call
from ..core.errors import (
    ConfigurationError,
    ReproError,
    TransientIOError,
)
from .backend import DiskStore, PageStore
from .page import Page

_T = TypeVar("_T")

#: Logical operations a :class:`FaultPlan` can fault transiently.
TRANSIENT_OPS = ("get", "put", "flush")


class SimulatedCrash(ReproError):
    """Raised by a :class:`FaultInjector` in place of a power failure."""


class FaultInjector:
    """Counts down physical writes and 'crashes' when exhausted.

    The original crash-only injector of the journal tests, now the base
    of the full :class:`FaultPlan`.
    """

    def __init__(self):
        self.countdown: Optional[int] = None
        self.crashes = 0

    def arm(self, writes_before_crash: int) -> None:
        """Crash on the (n+1)-th physical write from now."""
        self.countdown = writes_before_crash

    def disarm(self) -> None:
        """Stop injecting faults."""
        self.countdown = None

    def check(self) -> None:
        """Called by stores/journals before each physical write."""
        if self.countdown is None:
            return
        if self.countdown <= 0:
            self.crashes += 1
            raise SimulatedCrash("injected crash before a physical write")
        self.countdown -= 1


class FaultPlan(FaultInjector):
    """A deterministic, seeded schedule of storage faults.

    All randomness comes from one ``random.Random(seed)``, so a failing
    schedule replays exactly from its constructor arguments.

    Parameters
    ----------
    seed:
        Seeds the transient Bernoulli draws and the bit-flip position.
    transient_rate:
        Probability that any one logical get/put/flush raises a
        :class:`~repro.core.errors.TransientIOError` (before the wrapped
        store is touched).
    max_transients:
        Cap on injected transients (``None`` = unlimited).  Lets a test
        bound the worst burst a retry policy must survive.
    transient_ops:
        Which logical operations may fault (default: all of
        :data:`TRANSIENT_OPS`).
    crash_after_writes:
        Arm the inherited crash countdown immediately: the plan raises
        :class:`SimulatedCrash` before the (n+1)-th physical write.
    torn_write_at:
        0-based index (among the physical page-frame writes this plan
        observes) of a write that reaches the platter only partially:
        the frame is truncated to its first half, leaving a slot whose
        CRC cannot match.
    bitflip_at:
        0-based physical-write index whose frame gets one bit flipped at
        a seeded position — silent corruption the next read's CRC check
        must catch.
    """

    COUNTERS = (
        "ops_seen", "physical_writes", "transients_injected", "crashes",
        "torn_writes", "bitflips",
    )

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        max_transients: Optional[int] = None,
        transient_ops: Tuple[str, ...] = TRANSIENT_OPS,
        crash_after_writes: Optional[int] = None,
        torn_write_at: Optional[int] = None,
        bitflip_at: Optional[int] = None,
    ):
        super().__init__()
        if not 0.0 <= transient_rate <= 1.0:
            raise ConfigurationError("transient_rate must be a probability")
        self.seed = seed
        self.transient_rate = transient_rate
        self.max_transients = max_transients
        self.transient_ops = tuple(transient_ops)
        self.torn_write_at = torn_write_at
        self.bitflip_at = bitflip_at
        self._rng = random.Random(seed)
        if crash_after_writes is not None:
            self.arm(crash_after_writes)
        # Observation counters (all injected faults are accounted for).
        self.ops_seen = 0
        self.physical_writes = 0
        self.transients_injected = 0
        self.torn_writes = 0
        self.bitflips = 0
        #: Pages whose on-disk frame this plan corrupted (torn or flip).
        self.corrupted_pages: List[int] = []

    # -- logical seam (consulted by FaultyStore) ------------------------

    @property
    def enabled(self) -> bool:
        """Whether this plan can still inject any fault at all."""
        transients_left = self.transient_rate > 0.0 and (
            self.max_transients is None
            or self.transients_injected < self.max_transients
        )
        return bool(
            transients_left
            or self.countdown is not None
            or self.torn_write_at is not None
            or self.bitflip_at is not None
        )

    def on_op(self, op: str, page_number: Optional[int] = None) -> None:
        """Consulted before each logical operation; may raise a transient."""
        self.ops_seen += 1
        if op not in self.transient_ops or self.transient_rate <= 0.0:
            return
        if (
            self.max_transients is not None
            and self.transients_injected >= self.max_transients
        ):
            return
        if self._rng.random() < self.transient_rate:
            self.transients_injected += 1
            where = f" of page {page_number}" if page_number is not None else ""
            raise TransientIOError(
                f"injected transient fault on {op}{where} "
                f"(#{self.transients_injected})"
            )

    # -- physical seam (installed on DiskPagedStore) --------------------

    def filter_frame(self, page_number: int, frame: bytes) -> bytes:
        """Corrupt the Nth physical page frame per the schedule.

        Called by :class:`~repro.storage.ondisk.DiskPagedStore` with the
        fully framed slot image (header + payload) after the CRC has
        been computed over the *intended* payload — so a corrupted frame
        is guaranteed to fail its checksum on the next read.
        """
        index = self.physical_writes
        self.physical_writes += 1
        if index == self.torn_write_at:
            self.torn_writes += 1
            self.corrupted_pages.append(page_number)
            return frame[: max(1, len(frame) // 2)]
        if index == self.bitflip_at:
            self.bitflips += 1
            self.corrupted_pages.append(page_number)
            corrupted = bytearray(frame)
            position = self._rng.randrange(len(frame))
            corrupted[position] ^= 1 << self._rng.randrange(8)
            return bytes(corrupted)
        return frame


def find_disk_store(store: Optional[PageStore]) -> Optional[DiskStore]:
    """The :class:`DiskStore` layer inside a decorator stack, if any."""
    while store is not None:
        if isinstance(store, DiskStore):
            return store
        store = getattr(store, "inner", None)
    return None


class FaultyStore(PageStore):
    """Inject faults from a :class:`FaultPlan` into any wrapped backend.

    Logical faults (transients, the crash countdown on write-through
    puts) fire *before* the wrapped store is touched, so every faulted
    operation is side-effect free and idempotent to retry.  Physical
    faults (torn writes, bit-flips, crash-at-Nth-write) are delegated to
    the :class:`~repro.storage.ondisk.DiskPagedStore` at the bottom of
    the stack by installing the plan as its ``fault_injector`` hook;
    over a pure :class:`~repro.storage.backend.MemoryStore` there is no
    platter to corrupt and those schedule entries simply never fire.

    With a default (empty) plan the decorator is pure pass-through: the
    logical access sequence reaching the wrapped store is byte-identical
    to running without it.
    """

    name = "faulty"
    LAYER = "storage.faults"
    COUNTERS = FaultPlan.COUNTERS

    def __init__(self, inner: PageStore, plan: Optional[FaultPlan] = None):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        self.num_pages = inner.num_pages
        disk = find_disk_store(inner)
        if disk is not None:
            disk.raw.fault_injector = self.plan

    # -- the protocol ---------------------------------------------------

    def peek(self, page_number: int) -> Page:
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        self.plan.on_op("get", page_number)
        return self.inner.get_page(page_number)

    def put_page(self, page_number: int) -> None:
        self.plan.on_op("put", page_number)
        self.inner.put_page(page_number)

    # move_records deliberately uses the inherited default: it is built
    # from this store's own get/put, so a fault can land on every step
    # of a SHIFT, while the touch sequence the wrapped store sees stays
    # identical to running undecorated (backends reduce to the same
    # read-source / write-dest / write-source order).

    def flush(self) -> int:
        self.plan.on_op("flush")
        return self.inner.flush()

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def counter_source(self) -> object:
        return self.plan


class RetryingStore(PageStore):
    """Absorb transient faults from the wrapped store with bounded retries.

    Each logical operation is attempted up to ``policy.max_attempts``
    times; only :class:`~repro.core.errors.TransientIOError` is retried
    (crashes and corruption must surface).  Between attempts the
    deterministic :class:`~repro.concurrent.retry.RetryPolicy` delay is
    accumulated in the stats and slept via the injectable ``sleep``
    callable (a no-op for the default zero base delay).

    ``move_records`` uses the inherited default built from this store's
    own get/put, so retries happen at single-operation granularity — a
    transient in the middle of a SHIFT never replays the record moves
    that already happened.

    **Deadline awareness.**  The concurrent front-end hands each
    operation's remaining time budget to this layer via
    :meth:`set_deadline` (stored per thread, since readers may run
    concurrently).  The retry loop then stops — raising
    :class:`~repro.core.errors.OperationTimeout` with the transient
    chained — as soon as the budget is spent or the next backoff delay
    would overrun it, instead of burning wall-clock the caller no
    longer has.  A faulted operation has no side effects, so giving up
    mid-retry leaves the store exactly as it was.
    """

    name = "retrying"
    LAYER = "storage.faults"
    #: How many transients were absorbed (``retries``), how many
    #: exhausted the policy (``giveups``), how many stopped early because
    #: the operation's deadline ran out (``deadline_giveups``), and the
    #: accumulated backoff time.
    COUNTERS = RetryCounters.COUNTERS

    def __init__(
        self,
        inner: PageStore,
        policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.num_pages = inner.num_pages
        self._sleep = sleep
        self._local = threading.local()
        self.retries = 0
        self.giveups = 0
        self.deadline_giveups = 0
        self.backoff_total = 0.0

    # -- deadline plumbing ----------------------------------------------

    def set_deadline(self, deadline: Optional[Any]) -> None:
        """Install the calling thread's retry budget (``None`` clears it).

        ``deadline`` is duck-typed: anything with ``remaining() -> float``
        works (normally a :class:`~repro.concurrent.deadline.Deadline`).
        """
        self._local.deadline = deadline

    @property
    def deadline(self) -> Optional[Any]:
        """The calling thread's active retry budget, if any."""
        return getattr(self._local, "deadline", None)

    # -- retry engine ---------------------------------------------------

    def _attempt(self, operation: Callable[[], _T]) -> _T:
        return retry_call(
            operation,
            self.policy,
            retryable=(TransientIOError,),
            deadline=self.deadline,
            sleep=self._sleep,
            counters=self,
            what="store retry",
        )

    # -- the protocol ---------------------------------------------------

    def peek(self, page_number: int) -> Page:
        return self.inner.peek(page_number)

    def get_page(self, page_number: int) -> Page:
        return self._attempt(lambda: self.inner.get_page(page_number))

    def put_page(self, page_number: int) -> None:
        self._attempt(lambda: self.inner.put_page(page_number))

    def flush(self) -> int:
        return self._attempt(self.inner.flush)

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed


def fault_tolerant_stack(
    inner: PageStore,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
) -> RetryingStore:
    """``RetryingStore(FaultyStore(inner, plan), policy)`` in one call.

    The canonical test/chaos stack: faults injected below, absorbed
    above, with the wrapped backend none the wiser.
    """
    return RetryingStore(FaultyStore(inner, plan), policy=policy)
