"""The fault-tolerant cluster client.

:class:`ClusterClient` is where the robustness mechanisms compose into
one call path.  Every operation:

1. resolves its ``timeout=``/``deadline=`` pair into one
   :class:`~repro.concurrent.deadline.Deadline` that bounds the *whole*
   operation — every retry, every backoff sleep, every socket wait
   draws from the same budget;
2. asks the target shard's :class:`~repro.cluster.breaker.CircuitBreaker`
   for admission — a shard known to be down fails in microseconds with
   :class:`~repro.core.errors.CircuitOpenError` instead of burning the
   budget rediscovering the outage;
3. sends a framed request carrying a fresh correlation id, the
   remaining budget, and (for writes) an idempotency token that is
   **reused across retries** so the server applies the write at most
   once no matter how many times the network made us resend it;
4. retries transient failures (connection drops, mangled frames,
   server-side admission timeouts) under the shared
   :class:`~repro.concurrent.retry.RetryPolicy` — capped exponential
   backoff with per-client seeded jitter — until the deadline budget
   says stop, at which point the caller gets a typed
   :class:`~repro.core.errors.OperationTimeout`, never a hang.

Typed errors from the server are reconstructed into the same exception
classes a local :class:`~repro.cluster.store.ShardedDenseFile` raises,
so callers handle remote and local failure identically.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..concurrent.deadline import Deadline
from ..concurrent.retry import RetryCounters, RetryPolicy, retry_call
from ..core.errors import (
    CircuitOpenError,
    ClusterError,
    ConfigurationError,
    DuplicateKeyError,
    FileFullError,
    InvariantViolationError,
    OperationTimeout,
    OverloadError,
    ReadOnlyError,
    RecordNotFoundError,
    ReproError,
    ShardUnavailableError,
    TransientNetworkError,
    UsageError,
    WireProtocolError,
)
from ..obs import Metrics, Number
from ..records import Record
from ..storage.codec import CodecError
from .breaker import CircuitBreaker
from .sharding import ShardMap
from .store import ScanResult
from .transport import Channel, SocketChannel
from .wire import check_correlation, decode_bytes, encode_frame, request

#: Failures worth retrying: the op may not have reached a definite
#: outcome yet.  Everything else is a definite answer and surfaces.
RETRYABLE = (TransientNetworkError, WireProtocolError, OperationTimeout)

#: Default client ids are drawn from a process-wide counter, because
#: idempotency tokens are namespaced by client id: two clients sharing
#: an id would replay each other's recorded outcomes.
_CLIENT_IDS = itertools.count()


def _rebuild_error(name: str, message: str, detail: Dict[str, Any]) -> ReproError:
    """The server's typed error, reconstructed client-side."""
    if name == "ShardUnavailableError":
        return ShardUnavailableError(
            message,
            shard_ids=tuple(detail.get("shard_ids", ())),
            key_ranges=tuple(tuple(pair) for pair in detail.get("key_ranges", ())),
            mode=str(detail.get("mode", "down")),
        )
    if name == "CircuitOpenError":
        return CircuitOpenError(
            message,
            shard_id=int(detail.get("shard_id", -1)),
            retry_after=float(detail.get("retry_after", 0.0)),
        )
    if name == "OverloadError":
        return OverloadError(
            message,
            queue_depth=int(detail.get("queue_depth", 0)),
            in_flight=int(detail.get("in_flight", 0)),
        )
    plain = {
        "DuplicateKeyError": DuplicateKeyError,
        "RecordNotFoundError": RecordNotFoundError,
        "FileFullError": FileFullError,
        "OperationTimeout": OperationTimeout,
        "ReadOnlyError": ReadOnlyError,
        "WireProtocolError": WireProtocolError,
        "TransientNetworkError": TransientNetworkError,
        "InvariantViolationError": InvariantViolationError,
        "ConfigurationError": ConfigurationError,
        "UsageError": UsageError,
        "CodecError": CodecError,
    }.get(name)
    if plain is not None:
        return plain(message)
    return ClusterError(f"{name}: {message}")


def _answer(response: Dict[str, Any], request_id: str) -> Any:
    """A decoded response's result, or its typed error raised."""
    check_correlation(response, request_id)
    if response.get("ok"):
        return response.get("result")
    raise _rebuild_error(
        str(response.get("error", "ClusterError")),
        str(response.get("message", "")),
        response.get("detail") or {},
    )


def _to_record(payload: Optional[List[Any]]) -> Optional[Record]:
    return None if payload is None else Record(payload[0], payload[1])


def _to_scan(payload: Dict[str, Any]) -> ScanResult:
    return ScanResult(
        records=tuple(
            Record(item[0], item[1]) for item in payload.get("records", ())
        ),
        partial=bool(payload.get("partial", False)),
        unavailable=tuple(
            tuple(pair) for pair in payload.get("unavailable", ())
        ),
    )


class ClusterClient:
    """Deadline-aware, retrying, breaker-gated cluster front-end client.

    Parameters
    ----------
    channel:
        The transport (a :class:`~repro.cluster.transport.SocketChannel`
        or :class:`~repro.cluster.transport.LocalChannel`, possibly
        wrapped in a chaos channel).
    retry_policy:
        Shared backoff policy; its jitter seed is re-seeded per client
        (``client_seed``) so a fleet spreads its retries.
    default_timeout:
        Budget for operations that pass neither ``timeout=`` nor
        ``deadline=``.  ``None`` keeps them unbounded.
    """

    def __init__(
        self,
        channel: Channel,
        client_id: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        default_timeout: Optional[float] = None,
        client_seed: Optional[int] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.channel = channel
        self.client_id = (
            client_id if client_id is not None else f"c{next(_CLIENT_IDS)}"
        )
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        if client_seed is not None:
            policy = policy.with_seed(client_seed)
        self.retry_policy = policy
        self.default_timeout = default_timeout
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self._clock = clock
        self._sleep = sleep
        self.counters = RetryCounters()
        #: This client's counter registry; each breaker joins it when
        #: it is built (see :mod:`repro.obs`).
        self.metrics = Metrics()
        self.metrics.register("cluster.client", self.counters, RetryCounters.COUNTERS)
        self._mutex = threading.Lock()
        self._sequence = itertools.count()
        self._shard_map: Optional[ShardMap] = None
        self._breakers: Dict[int, CircuitBreaker] = {}

    @classmethod
    def connect(cls, host: str, port: int, **kwargs: Any) -> "ClusterClient":
        """A client over a fresh TCP channel to ``host:port``."""
        return cls(SocketChannel(host, port), **kwargs)

    # -- handshake and routing ------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        """The routing table (fetched via ``hello`` on first use)."""
        # Set once by prime() and only ever replaced whole, so a
        # primed map is read without the mutex.
        cached = self._shard_map
        if cached is not None:
            return cached
        return self.hello()

    def hello(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> ShardMap:
        """Handshake: download the shard map, (re)build the breakers."""
        result = self._call("hello", {}, timeout=timeout, deadline=deadline)
        shard_map = ShardMap.from_wire(result["shard_map"])
        self.prime(shard_map)
        return shard_map

    def prime(self, shard_map: ShardMap) -> None:
        """Install a known shard map without the ``hello`` round trip.

        Used when the routing table is available out of band (the chaos
        harness shares the server's map directly) so the handshake does
        not have to survive the fault plan it is about to test.
        """
        with self._mutex:
            self._shard_map = shard_map
            for shard_id in range(shard_map.num_shards):
                if shard_id not in self._breakers:
                    breaker = self._breakers[shard_id] = CircuitBreaker(
                        shard_id=shard_id,
                        failure_threshold=self.breaker_threshold,
                        reset_timeout=self.breaker_reset,
                        clock=self._clock,
                    )
                    self.metrics.register(
                        breaker.LAYER, breaker, breaker.COUNTERS
                    )

    def breaker(self, shard_id: int) -> CircuitBreaker:
        """The circuit breaker guarding ``shard_id``."""
        self.shard_map  # ensure the handshake happened
        with self._mutex:
            return self._breakers[shard_id]

    def _next_token(self) -> str:
        return f"{self.client_id}:t{next(self._sequence)}"

    def new_token(self) -> str:
        """A fresh idempotency token (callers auditing at-most-once
        application generate the token *before* issuing the write, so
        it survives even when the call raises)."""
        return self._next_token()

    def _next_request_id(self) -> str:
        return f"{self.client_id}:r{next(self._sequence)}"

    # -- the call path ---------------------------------------------------

    def _exchange(
        self, frame: bytes, request_id: Any, timeout: Optional[float]
    ) -> Any:
        """One attempt: send, decode, correlate, raise-or-return.

        A ``bytes`` ``request_id`` marks a point-lane request: an OK
        point response is read straight into its result (``None`` or a
        :class:`Record`), its echoed id compared as bytes, and any
        other answer (a replay, a typed error) through the dict path.

        The caller checks the budget *before* breaker admission; by the
        time we are here an ``OperationTimeout`` can only be the
        server's answer, so the breaker accounting in ``_call`` may
        treat it as a shard failure.
        """
        raw = self.channel.request(frame, timeout=timeout)
        if type(request_id) is not bytes:
            return _answer(decode_bytes(raw), request_id)
        response = decode_bytes(raw, lane=True)
        if type(response) is tuple:
            if response[0] != request_id:
                raise WireProtocolError(
                    f"response correlation mismatch: sent {request_id!r}, "
                    f"got {response[0]!r} (reordered or stale response)"
                )
            return response[1]
        return _to_record(_answer(response, request_id.decode("utf-8")))

    def _call(
        self,
        op: str,
        args: Any,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        token: Optional[str] = None,
        shard_id: Optional[int] = None,
    ) -> Any:
        """The full robust call: breaker gate, retry loop, deadline.

        ``args`` is the request's dict of named arguments or, for a
        point command, its ``(key, value)`` pair, which sends it on the
        point lane (see :mod:`repro.cluster.wire`): the frame is
        encoded from the fields and a record comes back, not a pair.
        """
        budget = Deadline.resolve(
            timeout, deadline, self.default_timeout, clock=self._clock
        )
        # prime() only adds breakers, so the lookup needs no mutex.
        breaker = None if shard_id is None else self._breakers.get(shard_id)
        what = f"cluster {op}"
        lane = type(args) is tuple

        def attempt() -> Any:
            # A spent client-side budget is not a shard failure: raise
            # before asking the breaker for admission, so a too-small
            # budget can never trip the breaker of a shard that was
            # never contacted.  Past this point an OperationTimeout is
            # the server's answer.  The one clock reading also gives
            # the request's budget field and the socket timeout.
            remaining = budget.left(what)
            # Encode before admission too: an argument the wire cannot
            # carry raises the non-retryable CodecError here, without
            # touching the breaker or the network.
            request_id: Any
            if lane:
                request_id = self._next_request_id().encode("utf-8")
                frame = encode_frame(
                    (op, request_id, token, remaining, args[0], args[1])
                )
            else:
                request_id = self._next_request_id()
                frame = encode_frame(
                    request(op, request_id, args=args, token=token,
                            budget=remaining)
                )
            if breaker is not None:
                breaker.allow()
            # The breaker admitted this call, so exactly one outcome
            # must be reported below — success, failure, or a neutral
            # release — on every path out, or a half-open probe slot
            # leaks and the breaker wedges shut forever.
            try:
                result = self._exchange(frame, request_id, remaining)
            except (ShardUnavailableError, OperationTimeout):
                # A definite "this shard cannot serve" answer: feed the
                # breaker so later calls fail fast.
                if breaker is not None:
                    breaker.record_failure()
                raise
            except (TransientNetworkError, WireProtocolError):
                # Connection-scoped, not shard-scoped: release the
                # probe slot without biasing the failure count (and
                # without closing a half-open breaker — a reset probe
                # proved nothing about the shard).
                if breaker is not None:
                    breaker.release()
                raise
            except ReproError:
                # Any other typed outcome — duplicate key, missing
                # record, overload shed, a server-side refusal — means
                # the shard answered: a success as far as shard health
                # is concerned.
                if breaker is not None:
                    breaker.record_success()
                raise
            except BaseException:
                # Unexpected (a bug, an interrupt): free the slot
                # without judging the shard.
                if breaker is not None:
                    breaker.release()
                raise
            if breaker is not None:
                breaker.record_success()
            return result

        return retry_call(
            attempt,
            self.retry_policy,
            retryable=RETRYABLE,
            deadline=budget,
            sleep=self._sleep,
            counters=self.counters,
            what=what,
        )

    # -- point operations ------------------------------------------------

    def insert(
        self,
        key: Any,
        value: Any = None,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Insert ``key`` (at-most-once across retries via its token)."""
        self.insert_with_token(key, value, timeout=timeout, deadline=deadline)

    def delete(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Delete ``key`` and return the removed record."""
        return self.delete_with_token(key, timeout=timeout, deadline=deadline)[1]

    def search(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Point lookup for ``key``."""
        result: Optional[Record] = self._call(
            "search",
            (key, None),
            timeout=timeout,
            deadline=deadline,
            shard_id=self.shard_map.shard_for(key),
        )
        return result

    # -- fan-out operations ----------------------------------------------

    def scan(
        self,
        start_key: Any,
        count: int,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> ScanResult:
        """Up to ``count`` records from ``start_key`` (may be partial)."""
        return _to_scan(
            self._call(
                "scan",
                {"key": start_key, "count": count},
                timeout=timeout,
                deadline=deadline,
            )
        )

    def range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> ScanResult:
        """All records in ``[lo_key, hi_key]`` (may be partial)."""
        return _to_scan(
            self._call(
                "range",
                {"lo": lo_key, "hi": hi_key},
                timeout=timeout,
                deadline=deadline,
            )
        )

    def count_range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Records in ``[lo_key, hi_key]`` (refuses on down shards)."""
        return int(
            self._call(
                "count",
                {"lo": lo_key, "hi": hi_key},
                timeout=timeout,
                deadline=deadline,
            )
        )

    def __len__(self) -> int:
        return int(self._call("len", {}))

    # -- health, admin, observability ------------------------------------

    def ping(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> bool:
        """Round-trip liveness check."""
        return self._call("ping", {}, timeout=timeout, deadline=deadline) == "pong"

    def health(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[Dict[str, Any]]:
        """Per-shard health records from the server."""
        return list(self._call("health", {}, timeout=timeout, deadline=deadline))

    def stats(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Number]:
        """The server's counter snapshot: its own layers
        (``cluster.server.*``, ``cluster.idempotency.*``) and every
        shard's but a down one's, merged by name (counters summed,
        ``core.balance_headroom`` the tightest shard's)."""
        return dict(self._call("stats", {}, timeout=timeout, deadline=deadline))

    def token_outcome(self, token: str) -> Optional[Dict[str, Any]]:
        """The server's recorded outcome for ``token`` (None = not applied)."""
        return self._call("token", {"token": token})

    def kill_shard(self, shard_id: int) -> str:
        """Admin: take a shard down (chaos harness / drills)."""
        return str(self._call("kill_shard", {"shard_id": shard_id})["state"])

    def degrade_shard(self, shard_id: int) -> str:
        """Admin: degrade a shard to read-only."""
        return str(self._call("degrade_shard", {"shard_id": shard_id})["state"])

    def revive_shard(self, shard_id: int) -> str:
        """Admin: return a shard to service."""
        return str(self._call("revive_shard", {"shard_id": shard_id})["state"])

    def client_stats(self) -> Dict[str, Number]:
        """Client-side counters: retries, giveups and the breakers'
        transitions summed over shards (one breaker's own counters are
        ``client.breaker(shard_id).stats()``)."""
        with self._mutex:
            return self.metrics.snapshot()

    def close(self) -> None:
        """Release the transport."""
        self.channel.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- write-with-known-token (the chaos harness needs the token) ------

    def insert_with_token(
        self,
        key: Any,
        value: Any = None,
        *,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> str:
        """Insert returning the idempotency token used (for audits)."""
        used = token if token is not None else self._next_token()
        self._call(
            "insert",
            (key, value),
            timeout=timeout,
            deadline=deadline,
            token=used,
            shard_id=self.shard_map.shard_for(key),
        )
        return used

    def delete_with_token(
        self,
        key: Any,
        *,
        token: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[str, Optional[Record]]:
        """Delete returning ``(token, removed record)`` (for audits)."""
        used = token if token is not None else self._next_token()
        record: Optional[Record] = self._call(
            "delete",
            (key, None),
            timeout=timeout,
            deadline=deadline,
            token=used,
            shard_id=self.shard_map.shard_for(key),
        )
        return used, record
