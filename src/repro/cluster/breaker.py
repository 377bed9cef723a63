"""Per-shard circuit breakers: stop paying for a shard that is down.

Retries absorb *transient* faults; a shard that is crashed, partitioned
or degraded fails every attempt, and a client that keeps retrying into
it burns its whole deadline budget learning the same fact over and
over.  The :class:`CircuitBreaker` converts repeated failure into local
knowledge with the classic three-state machine:

``closed``
    Normal service.  Failures are counted; ``failure_threshold``
    *consecutive* failures trip the breaker to ``open``.
``open``
    Every call is refused immediately with
    :class:`~repro.core.errors.CircuitOpenError` — the caller fails in
    microseconds instead of seconds, keeping its own worst-case bound.
    After ``reset_timeout`` seconds the breaker moves to ``half_open``.
``half_open``
    Exactly one in-flight *probe* request is allowed through.  If it
    succeeds the breaker closes (the shard recovered); if it fails the
    breaker re-opens for another full cooldown.  Concurrent calls while
    the probe is out are refused like ``open``.

Every admitted call must report **exactly one** outcome:
:meth:`~CircuitBreaker.record_success` (the shard answered, even with a
domain error), :meth:`~CircuitBreaker.record_failure` (the shard could
not serve), or :meth:`~CircuitBreaker.release` (the attempt ended
without learning anything about the shard — a connection-scoped fault
or a client-side abort).  ``release`` exists so inconclusive outcomes
neither close a half-open breaker nor bias the failure count — and so
the probe slot can never leak, which would wedge the breaker open
forever.

The clock is injectable (``time.monotonic`` by default) so tests and
the chaos harness drive the state machine deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from ..core.errors import CircuitOpenError, ConfigurationError

#: The three breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a single half-open probe."""

    def __init__(
        self,
        shard_id: int = -1,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if reset_timeout < 0.0:
            raise ConfigurationError("reset_timeout cannot be negative")
        self.shard_id = shard_id
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._mutex = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        # Observability counters (read under the mutex).
        self.opens = 0
        self.closes = 0
        self.rejections = 0
        self.probes = 0
        self.releases = 0

    # -- the gate -------------------------------------------------------

    def allow(self) -> None:
        """Admit one call or raise :class:`CircuitOpenError`.

        In ``half_open`` the first caller becomes the probe; its
        :meth:`record_success` / :meth:`record_failure` decides the next
        state.  Callers must report exactly one outcome per admitted
        call.
        """
        if self._state == CLOSED:
            # The common case needs no mutex: a call admitted just
            # before a concurrent trip is ordered before that trip.
            return
        with self._mutex:
            if self._state == CLOSED:
                return
            now = self._clock()
            if self._state == OPEN:
                elapsed = now - self._opened_at
                if elapsed < self.reset_timeout:
                    self.rejections += 1
                    raise CircuitOpenError(
                        f"circuit for shard {self.shard_id} is open "
                        f"({self._consecutive_failures} consecutive "
                        f"failures); probe in "
                        f"{self.reset_timeout - elapsed:.3f}s",
                        shard_id=self.shard_id,
                        retry_after=self.reset_timeout - elapsed,
                    )
                self._state = HALF_OPEN
                self._probe_in_flight = False
            # half_open: admit exactly one probe at a time.
            if self._probe_in_flight:
                self.rejections += 1
                raise CircuitOpenError(
                    f"circuit for shard {self.shard_id} is half-open with "
                    "a probe already in flight",
                    shard_id=self.shard_id,
                    retry_after=self.reset_timeout,
                )
            self._probe_in_flight = True
            self.probes += 1

    def record_success(self) -> None:
        """The admitted call succeeded; close from half-open."""
        if self._state == CLOSED and not self._consecutive_failures:
            # Nothing to reset or close: skip the mutex.  A failure
            # recorded concurrently is ordered after this success.
            return
        with self._mutex:
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._state = CLOSED
                self._probe_in_flight = False
                self.closes += 1

    def record_failure(self) -> None:
        """The admitted call failed; trip or re-open as appropriate."""
        with self._mutex:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self.opens += 1
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self.opens += 1

    def release(self) -> None:
        """The admitted call ended inconclusively; free the slot.

        A connection reset or a client-side abort says nothing about
        the shard behind the connection, so the breaker must neither
        count a failure nor celebrate a success.  In ``closed`` this is
        a no-op (state and failure count untouched).  In ``half_open``
        the probe slot is returned and the breaker re-opens for another
        full cooldown — the probe was spent without an answer, and
        leaving the slot marked in-flight would wedge the breaker shut
        forever.
        """
        with self._mutex:
            self.releases += 1
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self.opens += 1

    # -- introspection --------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, re-evaluating the open->half-open timer."""
        with self._mutex:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_timeout
            ):
                return HALF_OPEN
            return self._state

    def stats(self) -> Dict[str, object]:
        """State and transition counters as a printable dictionary."""
        with self._mutex:
            return {
                "shard_id": self.shard_id,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self.opens,
                "closes": self.closes,
                "rejections": self.rejections,
                "probes": self.probes,
                "releases": self.releases,
            }
