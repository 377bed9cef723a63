"""Network fault injection at the :class:`Channel` seam.

The storage layer makes disk failure deterministic with
:class:`~repro.storage.faults.FaultPlan`; this module extends the same
idiom one layer up, to the network between a cluster client and the
server.  A :class:`NetFaultPlan` is a seeded, reproducible schedule of
the failure modes a real network exhibits:

``drop``
    The connection dies before the request is delivered — the server
    never sees it (:class:`~repro.core.errors.TransientNetworkError`).
``drop_after``
    The connection dies *after* delivery but before the response comes
    back — the server **did** apply the operation, the client cannot
    know.  This is the fault that makes idempotency tokens necessary.
``delay``
    The exchange succeeds after a seeded extra latency, burning the
    caller's deadline budget.
``duplicate``
    The request is delivered twice (a retransmit); the server's
    idempotency table must make the second delivery a no-op.
``reorder``
    The client receives a *stale* response — the answer to some earlier
    exchange — which must fail the correlation check as
    :class:`~repro.core.errors.WireProtocolError`, never be
    misattributed.
``truncate``
    The response is cut off mid-frame (peer reset mid-message); the
    frame decoder must reject the partial bytes.

All randomness is drawn from one ``random.Random(seed)``, so a chaos
run replays byte-identically from its constructor arguments.  Every
injected fault is counted, and fault kinds whose semantics differ on
the apply/not-applied axis are tracked separately — the chaos
harness's trichotomy audit depends on that distinction.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import (
    ConfigurationError,
    TransientNetworkError,
)
from .transport import Channel

#: The injectable fault kinds, in the order the plan draws them.
FAULT_KINDS = ("drop", "drop_after", "delay", "duplicate", "reorder", "truncate")


class NetFaultPlan:
    """A deterministic, seeded schedule of network faults.

    Parameters
    ----------
    seed:
        Seeds every Bernoulli draw and delay length.
    drop_rate / drop_after_rate / delay_rate / duplicate_rate /
    reorder_rate / truncate_rate:
        Per-exchange probabilities of each fault kind.  At most one
        fault fires per exchange (the first whose draw succeeds, in
        :data:`FAULT_KINDS` order).
    delay:
        Seconds of injected latency when a ``delay`` fault fires (the
        actual sleep is a seeded fraction of this maximum).
    max_faults:
        Cap on total injected faults (``None`` = unlimited), bounding
        the worst burst a retry policy must survive.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        drop_after_rate: float = 0.0,
        delay_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        truncate_rate: float = 0.0,
        delay: float = 0.01,
        max_faults: Optional[int] = None,
    ):
        rates = {
            "drop": drop_rate,
            "drop_after": drop_after_rate,
            "delay": delay_rate,
            "duplicate": duplicate_rate,
            "reorder": reorder_rate,
            "truncate": truncate_rate,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{kind}_rate must be a probability")
        if delay < 0.0:
            raise ConfigurationError("delay cannot be negative")
        self.seed = seed
        self.rates = rates
        self.delay = delay
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self.exchanges = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    @property
    def total_injected(self) -> int:
        """Total faults injected so far, across every kind."""
        return sum(self.injected.values())

    @property
    def enabled(self) -> bool:
        """Whether this plan can still inject anything."""
        if self.max_faults is not None and self.total_injected >= self.max_faults:
            return False
        return any(rate > 0.0 for rate in self.rates.values())

    def draw(self) -> Tuple[Optional[str], float]:
        """The fault (if any) for the next exchange: ``(kind, delay)``.

        At most one kind fires per exchange.  The PRNG is advanced one
        draw per kind regardless of earlier hits, so the schedule for
        exchange N is independent of which faults actually fired — a
        property the replay determinism of the chaos harness relies on.
        """
        self.exchanges += 1
        chosen: Optional[str] = None
        for kind in FAULT_KINDS:
            hit = self._rng.random() < self.rates[kind]
            if hit and chosen is None:
                chosen = kind
        extra_delay = self._rng.random() * self.delay
        if chosen is None or not self.enabled:
            return None, 0.0
        self.injected[chosen] += 1
        return chosen, extra_delay if chosen == "delay" else 0.0


class ChaosChannel:
    """A :class:`Channel` decorator that mangles exchanges per a plan.

    Wraps any inner channel (normally a
    :class:`~repro.cluster.transport.LocalChannel` straight into the
    server dispatcher, so the only nondeterminism is the plan itself)
    and applies at most one injected fault per exchange:

    * ``drop`` raises before the inner channel is touched — the server
      provably never saw the request;
    * ``drop_after`` delivers the request, discards the response, and
      raises — the *ambiguous* fault;
    * ``duplicate`` delivers the request twice and returns the second
      response (both deliveries hit the idempotency table);
    * ``reorder`` returns the previous exchange's response bytes when
      one is cached (correlation ids must catch this);
    * ``truncate`` returns only a prefix of the response frame;
    * ``delay`` sleeps the drawn latency, then exchanges normally.
    """

    def __init__(
        self,
        inner: Channel,
        plan: NetFaultPlan,
        sleep: Callable[[float], None] = lambda _s: None,
    ):
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self._previous_response: Optional[bytes] = None

    def request(self, frame: bytes, timeout: Optional[float] = None) -> bytes:
        """One exchange, possibly mangled by the plan."""
        kind, extra_delay = self.plan.draw()
        if kind == "drop":
            raise TransientNetworkError(
                "injected connection drop before delivery "
                f"(#{self.plan.injected['drop']})"
            )
        if kind == "delay":
            self._sleep(extra_delay)
            response = self.inner.request(frame, timeout)
            self._previous_response = response
            return response
        if kind == "drop_after":
            # Deliver, then lose the response: the server applied the
            # op but the client sees a dead connection.
            self.inner.request(frame, timeout)
            raise TransientNetworkError(
                "injected connection drop after delivery "
                f"(#{self.plan.injected['drop_after']})"
            )
        if kind == "duplicate":
            self.inner.request(frame, timeout)
            response = self.inner.request(frame, timeout)
            self._previous_response = response
            return response
        if kind == "reorder" and self._previous_response is not None:
            stale = self._previous_response
            # Still perform the real exchange (the network delivered
            # the request; we just handed the caller the wrong frame).
            self._previous_response = self.inner.request(frame, timeout)
            return stale
        if kind == "truncate":
            response = self.inner.request(frame, timeout)
            self._previous_response = response
            return response[: max(1, len(response) // 2)]
        response = self.inner.request(frame, timeout)
        self._previous_response = response
        return response

    def close(self) -> None:
        """Close the wrapped channel."""
        self.inner.close()
