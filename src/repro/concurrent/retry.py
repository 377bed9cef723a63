"""One retry policy for every layer: capped backoff with seeded jitter.

Before this module the repository had two divergent backoff loops — the
storage layer's :class:`~repro.storage.faults.RetryingStore` and an
ad-hoc sleep loop wherever something needed retrying.  The cluster
front-end would have added a third.  This module extracts the policy
(*how long to wait before attempt N*) and the loop (*attempt, classify,
check the deadline, sleep, repeat*) so store-level and network-level
retries share one tested implementation.

Design constraints, inherited from the paper's worst-case mindset:

* **Deterministic.**  ``delay(attempt)`` is a pure function of the
  policy's fields and the attempt number.  Jitter — essential for
  de-synchronizing a fleet of network clients hammering a recovering
  shard — is drawn from a :class:`random.Random` seeded with
  ``(seed, attempt)``, never from global randomness or the wall clock,
  so a chaos run replays byte-identically from its seed.
* **Capped.**  Exponential growth stops at ``max_delay``; the total
  number of attempts stops at ``max_attempts``.  No retry loop in this
  codebase may be unbounded.
* **Deadline-aware.**  :func:`retry_call` stops early — raising
  :class:`~repro.core.errors.OperationTimeout` with the last failure
  chained — when the operation's remaining budget is spent or the next
  backoff sleep would overrun it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type, TypeVar

from ..core.errors import ConfigurationError, OperationTimeout

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with optional seeded jitter.

    ``delay(attempt)`` is ``base_delay * multiplier**attempt`` capped at
    ``max_delay``, then shrunk by up to ``jitter`` (a fraction in
    ``[0, 1]``) using a PRNG seeded from ``(seed, attempt)`` — so two
    clients with different seeds spread their retries across the window
    while each client's schedule stays reproducible.

    The default ``base_delay`` of zero makes retries free (no sleeping),
    which is what unit tests want; real deployments pass a small base.
    """

    max_attempts: int = 5
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("a retry policy needs at least one attempt")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be a fraction in [0, 1]")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ConfigurationError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be at least 1")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        capped = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter == 0.0 or capped == 0.0:
            return capped
        draw = random.Random((self.seed << 20) ^ (attempt + 1)).random()
        return capped * (1.0 - self.jitter * draw)

    def with_seed(self, seed: int) -> "RetryPolicy":
        """This policy with a different jitter seed (per-client spread)."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_delay=self.base_delay,
            multiplier=self.multiplier,
            max_delay=self.max_delay,
            jitter=self.jitter,
            seed=seed,
        )


class RetryCounters:
    """Mutable absorption counters a retry loop reports into.

    Attribute names match the long-standing ``RetryingStore`` counter
    vocabulary so existing stats consumers keep working: ``retries``
    (faults absorbed), ``giveups`` (policy exhausted), ``deadline_giveups``
    (budget ran out mid-retry) and ``backoff_total`` (seconds of backoff
    scheduled).
    """

    COUNTERS = ("retries", "giveups", "deadline_giveups", "backoff_total")
    __slots__ = COUNTERS

    def __init__(self) -> None:
        self.retries = 0
        self.giveups = 0
        self.deadline_giveups = 0
        self.backoff_total = 0.0


def retry_call(
    operation: Callable[[], _T],
    policy: RetryPolicy,
    retryable: Tuple[Type[BaseException], ...],
    deadline: Optional[Any] = None,
    sleep: Callable[[float], None] = time.sleep,
    counters: Optional[Any] = None,
    what: str = "operation",
) -> _T:
    """Attempt ``operation`` under ``policy``; the one shared retry loop.

    Only exceptions in ``retryable`` are retried; anything else
    propagates untouched.  ``deadline`` is duck-typed (anything with
    ``remaining() -> float``, normally a
    :class:`~repro.concurrent.deadline.Deadline`): when the budget is
    spent, or the next backoff delay would overrun it, the loop raises
    :class:`~repro.core.errors.OperationTimeout` with the triggering
    fault chained instead of burning wall-clock the caller no longer
    has.  ``counters`` is any object with :class:`RetryCounters`'s
    attributes (``RetryingStore`` passes itself).
    """
    attempt = 0
    while True:
        try:
            return operation()
        except retryable as fault:
            attempt += 1
            if attempt >= policy.max_attempts:
                if counters is not None:
                    counters.giveups += 1
                raise
            delay = policy.delay(attempt - 1)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0 or delay >= remaining:
                    if counters is not None:
                        counters.deadline_giveups += 1
                    raise OperationTimeout(
                        f"{what}: retry budget spent after {attempt} "
                        f"attempt(s): {fault}"
                    ) from fault
            if counters is not None:
                counters.retries += 1
                counters.backoff_total += delay
            if delay > 0.0:
                sleep(delay)
