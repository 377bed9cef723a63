"""Bounded admission in front of the lock: fail fast instead of piling up.

A lock serializes work but does nothing about *queueing*: under
overload an unbounded number of operations stack up behind it and every
one of them eventually runs — seconds late.  :class:`AdmissionGate`
bounds the whole pipeline instead:

* at most ``max_in_flight`` operations are past the gate at once;
* at most ``max_queued`` more may wait for a slot — the next arrival
  fails *immediately* with :class:`~repro.core.errors.OverloadError`
  carrying the observed queue depth, so clients shed load at the edge
  instead of timing out deep inside;
* with ``shed_load=True`` the gate degrades gracefully: as soon as a
  **write** would have to wait at all it is rejected, while reads may
  still use the wait queue.  Reads are the cheap, paper-bounded
  operations a degraded system should keep serving; writes are the
  ones that make the backlog worse.

Waiting at the gate honours the operation's
:class:`~repro.concurrent.deadline.Deadline`, so even an admitted-but-
queued operation never blocks past its budget.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..core.errors import (
    ConfigurationError,
    OperationTimeout,
    OverloadError,
    UsageError,
)
from ..obs import Number, view
from .deadline import Deadline

#: Operation classes the gate distinguishes for shedding decisions.
READ, WRITE = "read", "write"


class _Admission:
    """Context manager token for one admitted operation."""

    __slots__ = ("_gate",)

    def __init__(self, gate: "AdmissionGate"):
        self._gate = gate

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc: object) -> None:
        self._gate._leave()


class AdmissionGate:
    """Semaphore with a bounded, deadline-aware wait queue."""

    LAYER = "concurrent.admission"
    #: Registered by kind, as :class:`~repro.concurrent.rwlock.FairRWLock`
    #: registers its own.
    GAUGES = ("in_flight", "queue_depth")
    COUNTERS = ("admitted", "rejected", "shed_writes", "timeouts")
    PEAKS = ("peak_in_flight", "peak_queued")

    def __init__(
        self,
        max_in_flight: int = 64,
        max_queued: int = 64,
        shed_load: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_in_flight < 1:
            raise ConfigurationError("the gate must admit at least one operation")
        if max_queued < 0:
            raise ConfigurationError("max_queued cannot be negative")
        self.max_in_flight = max_in_flight
        self.max_queued = max_queued
        self.shed_load = shed_load
        self._cond = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        self._clock = clock
        # Observability counters (written under the internal mutex).
        self.admitted = 0
        self.rejected = 0
        self.shed_writes = 0
        self.timeouts = 0
        self.peak_in_flight = 0
        self.peak_queued = 0

    # -- public API -----------------------------------------------------

    def enter(
        self, kind: str = READ, deadline: Optional[Deadline] = None
    ) -> _Admission:
        """Admit one ``kind`` operation or raise; use as a context manager.

        Raises :class:`~repro.core.errors.OverloadError` when the gate
        cannot (or, for shed writes, will not) queue the operation, and
        :class:`~repro.core.errors.OperationTimeout` when ``deadline``
        expires while waiting for a slot.
        """
        if kind not in (READ, WRITE):
            raise UsageError(f"unknown operation kind {kind!r}")
        budget = deadline if deadline is not None else Deadline.unbounded()
        with self._cond:
            if self._in_flight < self.max_in_flight and self._queued == 0:
                return self._admit()
            if self.shed_load and kind == WRITE:
                self.shed_writes += 1
                self.rejected += 1
                raise OverloadError(
                    f"shedding load: write rejected with {self._queued} "
                    f"queued and {self._in_flight} in flight "
                    "(reads are still served)",
                    queue_depth=self._queued,
                    in_flight=self._in_flight,
                )
            if self._queued >= self.max_queued:
                self.rejected += 1
                raise OverloadError(
                    f"admission queue full ({self._queued} waiting, "
                    f"{self._in_flight} in flight)",
                    queue_depth=self._queued,
                    in_flight=self._in_flight,
                )
            self._queued += 1
            self.peak_queued = max(self.peak_queued, self._queued)
            try:
                while not (
                    self._in_flight < self.max_in_flight
                ):
                    if not self._cond.wait(budget.wait_budget()):
                        if budget.expired:
                            self.timeouts += 1
                            raise OperationTimeout(
                                f"admission: deadline expired with "
                                f"{self._queued} queued and "
                                f"{self._in_flight} in flight"
                            )
            finally:
                self._queued -= 1
            return self._admit()

    # -- internals (caller holds self._cond) ----------------------------

    def _admit(self) -> _Admission:
        self._in_flight += 1
        self.admitted += 1
        self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        return _Admission(self)

    def _leave(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify()

    # -- introspection --------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Operations currently past the gate (snapshot)."""
        with self._cond:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Operations currently waiting at the gate (snapshot)."""
        with self._cond:
            return self._queued

    def stats(self) -> Dict[str, Number]:
        """Admission and shedding counters (the caps are attributes)."""
        with self._cond:
            return view(self, self.GAUGES + self.COUNTERS + self.PEAKS)
