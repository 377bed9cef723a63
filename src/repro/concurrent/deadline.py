"""Operation deadlines: a monotonic time budget threaded through a call.

Every public operation of the concurrent front-end accepts either a
relative ``timeout=`` (seconds from now) or an absolute ``deadline=``
(a :class:`Deadline`), normalized here into one object that each layer
— admission gate, reader-writer lock, storage retry loop — consults
before blocking.  The paper bounds the *page accesses* of one command;
the deadline bounds its *wall-clock* cost end to end, so a caller's
worst case stays bounded even when the lock is contended or the disk
is flaky.

Deadlines are measured on ``time.monotonic`` (never the wall clock, so
NTP steps cannot expire an operation early), and the clock is
injectable for deterministic tests.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..core.errors import OperationTimeout, UsageError


class Deadline:
    """An absolute point on the monotonic clock a call must finish by.

    A ``Deadline`` with ``expires_at=None`` never expires (the
    "unbounded" budget, which is the default for every operation).
    Instances are immutable and safe to share across the layers of one
    call; they are *not* meant to be reused across operations — each
    operation gets its own budget.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self,
        expires_at: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.expires_at = expires_at
        self._clock = clock

    # -- constructors ---------------------------------------------------

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` = never expires)."""
        if seconds is None:
            return cls(None, clock)
        if seconds < 0:
            raise UsageError("a timeout cannot be negative")
        return cls(clock() + seconds, clock)

    @classmethod
    def unbounded(cls) -> "Deadline":
        """The no-op budget: never expires, costs nothing to check."""
        return cls(None)

    @classmethod
    def resolve(
        cls,
        timeout: Optional[float] = None,
        deadline: Optional["Deadline"] = None,
        default_timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Normalize the ``timeout=`` / ``deadline=`` pair of an API call.

        An explicit ``deadline`` wins; otherwise ``timeout`` seconds
        from now; otherwise the caller's ``default_timeout``; otherwise
        unbounded.  Passing both raises ``ValueError`` — they describe
        the same budget two ways and must not disagree.
        """
        if deadline is not None and timeout is not None:
            raise UsageError("pass timeout= or deadline=, not both")
        if deadline is not None:
            return deadline
        if timeout is not None:
            return cls.after(timeout, clock)
        return cls.after(default_timeout, clock)

    # -- queries --------------------------------------------------------

    @property
    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self.expires_at is not None and self._clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0); ``inf`` for an unbounded budget."""
        if self.expires_at is None:
            return float("inf")
        return max(0.0, self.expires_at - self._clock())

    def wait_budget(self) -> Optional[float]:
        """The ``timeout`` argument for a ``Condition.wait`` call.

        ``None`` (wait forever) for an unbounded deadline, else the
        remaining seconds — possibly 0.0, which makes the wait a poll.
        """
        if self.expires_at is None:
            return None
        return self.remaining()

    def check(self, what: str = "operation") -> None:
        """Raise :class:`~repro.core.errors.OperationTimeout` if expired."""
        if self.expires_at is not None and self._clock() >= self.expires_at:
            raise self._spent(what)

    def left(self, what: str = "operation") -> Optional[float]:
        """:meth:`check` and :meth:`wait_budget` from one clock reading.

        Raises :class:`~repro.core.errors.OperationTimeout` exactly when
        :meth:`check` would; otherwise returns the seconds left (always
        positive), or ``None`` for an unbounded budget.
        """
        if self.expires_at is None:
            return None
        remaining = self.expires_at - self._clock()
        if remaining <= 0.0:
            raise self._spent(what)
        return remaining

    @staticmethod
    def _spent(what: str) -> OperationTimeout:
        return OperationTimeout(
            f"{what}: deadline expired "
            f"(budget exhausted on the monotonic clock)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.expires_at is None:
            return "Deadline(unbounded)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
