"""The cluster server: framed requests in, typed outcomes out.

:class:`ClusterServer` owns a :class:`~repro.cluster.store.ShardedDenseFile`
and exposes it through one bytes-in/bytes-out dispatcher,
:meth:`ClusterServer.handle_frame`.  The TCP accept loop and the
in-process :class:`~repro.cluster.transport.LocalChannel` both call
that same function, so the chaos harness exercises byte-for-byte the
production request path.

Three properties the dispatcher guarantees:

**At-most-once writes.**  Mutating requests carry an idempotency
``token``.  The first time a token reaches a *definite* outcome —
success or a domain error like ``DuplicateKeyError`` — the outcome is
recorded in the :class:`IdempotencyTable`; a retried request with the
same token replays the recorded outcome instead of re-executing.
Outcomes that mean *not applied* (timeout waiting for admission,
shard down, overload shed) are deliberately **not** recorded, so a
retry after the fault clears can still succeed.

**Deadline propagation.**  Requests carry the client's remaining
``budget`` in seconds; the server converts it to a
:class:`~repro.concurrent.deadline.Deadline` and threads it through
the store, so work the caller has already abandoned is cut short at
the next blocking point instead of holding locks for a dead request.

**Typed failure.**  Every :class:`~repro.core.errors.ReproError`
serializes to an error response carrying its class name and payload
(affected key ranges, queue depth, retry-after), which the client
reconstructs into the same exception type — remote failures read
exactly like local ones.
"""

from __future__ import annotations

import socket
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..concurrent.deadline import Deadline
from ..core.errors import (
    CircuitOpenError,
    ConfigurationError,
    OperationTimeout,
    OverloadError,
    ReproError,
    ShardUnavailableError,
    WireProtocolError,
)
from ..obs import Metrics
from ..storage.codec import CodecError
from .store import ShardedDenseFile
from .transport import arm_timeouts, recv_frames, require_timeval
from .wire import (
    PointResponse,
    decode_bytes,
    encode_frame,
    error_response,
    ok_response,
)

#: Error classes whose outcome means the write was NOT applied — these
#: are never recorded against an idempotency token, so a retry after
#: the fault clears can still execute.
NOT_APPLIED_ERRORS = (
    "OperationTimeout",
    "OverloadError",
    "ShardUnavailableError",
    "CircuitOpenError",
    "TransientNetworkError",
    "WireProtocolError",
)

#: Operations that mutate state (idempotency tokens apply to these).
MUTATING_OPS = frozenset({"insert", "delete"})

#: Seconds a connection may sit idle, or block on a send, before the
#: server drops it.  Armed in the kernel once per connection.
IDLE_TIMEOUT = 30.0


class IdempotencyTable:
    """Bounded token -> outcome map proving at-most-once application.

    Keeps the most recent ``capacity`` definite outcomes in insertion
    order; a retried token replays its recorded outcome.  The table is
    also the chaos harness's ground truth: after a run, a token absent
    from the table is *proof* the write was never applied.

    At-most-once needs more than a lookup: a retried request can race a
    *still-executing* first attempt (the client reconnected while the
    old connection's worker is mid-write), and a check-then-execute
    window would double-execute.  :meth:`reserve` therefore claims the
    token atomically **before** dispatch — the first attempt becomes
    the owner, duplicates wait on its completion event and then replay
    the recorded outcome — and :meth:`finish` releases the claim.  The
    event is built only when a duplicate actually has to wait: most
    writes never meet one, and an :class:`threading.Event` costs more
    than the rest of the claim.
    """

    #: The registry layer of the table's counters (see :mod:`repro.obs`).
    LAYER = "cluster.idempotency"
    COUNTERS = ("hits", "evictions", "waits")

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ConfigurationError("idempotency capacity must be positive")
        self.capacity = capacity
        self._mutex = threading.Lock()
        self._outcomes: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Claimed tokens; the value is the completion event, built by
        #: the first duplicate that has to wait (``None`` until then).
        self._pending: Dict[str, Optional[threading.Event]] = {}
        self.hits = 0
        self.evictions = 0
        self.waits = 0

    def peek(self, token: str) -> Optional[Dict[str, Any]]:
        """The recorded outcome for ``token``, or ``None`` if unseen
        (not counted as a dedup hit)."""
        with self._mutex:
            return self._outcomes.get(token)

    def _record_locked(self, token: str, outcome: Dict[str, Any]) -> None:
        """Record a definite outcome, evicting the oldest past capacity."""
        self._outcomes[token] = outcome
        while len(self._outcomes) > self.capacity:
            self._outcomes.popitem(last=False)
            self.evictions += 1

    def reserve(self, token: str) -> Tuple[str, Any]:
        """Atomically claim ``token`` for execution.

        Returns one of three claims:

        ``("replay", outcome)``
            A definite outcome is already recorded — replay it, do not
            execute.
        ``("wait", event)``
            Another attempt for the same token is executing right now.
            Wait on the :class:`threading.Event`, then call
            :meth:`reserve` again to pick up its outcome.
        ``("execute", None)``
            The caller now owns the token and **must** call
            :meth:`finish` exactly once, however execution ends.
        """
        with self._mutex:
            outcome = self._outcomes.get(token)
            if outcome is not None:
                self.hits += 1
                return ("replay", outcome)
            if token in self._pending:
                event = self._pending[token]
                if event is None:
                    event = self._pending[token] = threading.Event()
                self.waits += 1
                return ("wait", event)
            self._pending[token] = None
            return ("execute", None)

    def finish(self, token: str, outcome: Optional[Dict[str, Any]]) -> None:
        """The owner's epilogue: record and release in one atomic step.

        ``outcome`` is the definite response to replay for later
        retries, or ``None`` when the attempt ended *not applied*
        (admission timeout, shard down, overload shed) and the token
        must stay free for a retry to execute.  Either way the pending
        claim is dropped and any duplicate attempts parked on the
        event (if one was built) are woken.
        """
        with self._mutex:
            if outcome is not None:
                self._record_locked(token, outcome)
            event = self._pending.pop(token, None)
        if event is not None:
            event.set()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._outcomes)


def _record_to_wire(record: Any) -> Optional[List[Any]]:
    return None if record is None else [record.key, record.value]


def _error_detail(error: ReproError) -> Dict[str, Any]:
    """The reconstructable payload for a typed error response."""
    detail: Dict[str, Any] = {}
    if isinstance(error, ShardUnavailableError):
        detail["shard_ids"] = list(error.shard_ids)
        detail["key_ranges"] = [list(pair) for pair in error.key_ranges]
        detail["mode"] = error.mode
    elif isinstance(error, CircuitOpenError):
        detail["shard_id"] = error.shard_id
        detail["retry_after"] = error.retry_after
    elif isinstance(error, OverloadError):
        detail["queue_depth"] = error.queue_depth
        detail["in_flight"] = error.in_flight
    return detail


class ClusterServer:
    """Serve a sharded dense file over frames (TCP or in-process)."""

    LAYER = "cluster.server"
    COUNTERS = ("requests", "errors", "dedup_replays")

    def __init__(
        self,
        store: ShardedDenseFile,
        idempotency_capacity: int = 8192,
        max_budget: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = store
        self.tokens = IdempotencyTable(idempotency_capacity)
        self.max_budget = max_budget
        self._clock = clock
        self._mutex = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        self._stopping = threading.Event()
        # Request counters (reads are approximate; writes under GIL).
        self.requests = 0
        self.errors = 0
        self.dedup_replays = 0
        #: This server's counter registry (see :mod:`repro.obs`); each
        #: shard's file keeps its own.  It reads the server through a
        #: weak proxy: server -> registry -> server would be a cycle
        #: that keeps a stopped server and its shards alive until a
        #: full collection.  The token table refers to nothing, so the
        #: registry holds it directly.
        self.metrics = Metrics()
        self.metrics.register(self.LAYER, weakref.proxy(self), self.COUNTERS)
        tokens = self.tokens
        self.metrics.register(tokens.LAYER, tokens, tokens.COUNTERS)

    # -- the dispatcher (shared by TCP and LocalChannel) ----------------

    def handle_frame(self, data: bytes) -> bytes:
        """One framed request in, one framed response out.

        A point command's frame (see :mod:`repro.cluster.wire`) runs on
        the point lane, :meth:`_serve_point`; every other frame is
        decoded to its dict and runs through :meth:`handle_body`.
        """
        try:
            body = decode_bytes(data, lane=True)
        except WireProtocolError as error:
            # No correlation id is recoverable from a mangled frame.
            return encode_frame(
                error_response("?", "WireProtocolError", str(error))
            )
        if type(body) is tuple:
            return self._serve_point(*body)
        return self._send(self.handle_body(body))

    def _send(self, body: Union[Dict[str, Any], PointResponse]) -> bytes:
        """``body`` as a frame, or a typed ``CodecError`` answer when it
        carries a stored value the wire cannot, so the connection keeps
        serving."""
        try:
            return encode_frame(body)
        except CodecError as error:
            self.errors += 1
            request_id = (
                str(body.get("id", "?")) if isinstance(body, dict)
                else body[0].decode("utf-8")
            )
            return encode_frame(
                error_response(
                    request_id,
                    "CodecError",
                    f"result cannot be sent: {error}",
                )
            )

    def handle_body(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request body to the store.

        Whatever shape the request is in, the caller gets a response
        frame back: a malformed body (missing args, non-numeric
        budget) earns a typed ``WireProtocolError`` answer instead of
        an escaped exception that would kill the connection thread and
        leave the client retrying into silence.
        """
        self.requests += 1
        request_id = str(body.get("id", "?"))
        try:
            op = body.get("op")
            args = body.get("args") or {}
            if not isinstance(args, dict):
                raise WireProtocolError(
                    f"args must be an object, got {type(args).__name__}"
                )
            token = body.get("token")
            deadline = self._budget_deadline(body.get("budget"))
            if token is not None and op in MUTATING_OPS:
                return self._apply_once(
                    request_id, str(token), deadline, self._dispatch, op, args
                )
            return self._respond(request_id, deadline, self._dispatch, op, args)
        except Exception as error:  # lint: allow[errors]
            return self._refusal(request_id, error)

    def _serve_point(
        self,
        op: str,
        request_id: bytes,
        token: Optional[str],
        budget: Optional[float],
        key: Any,
        value: Any,
    ) -> bytes:
        """:meth:`handle_body` for a point command, from its fields.

        The same token protocol, store call and refusals, and the same
        response bytes, with no request, args or response dict: only a
        tokened write builds the outcome dict the idempotency table
        records.
        """
        self.requests += 1
        try:
            deadline = self._budget_deadline(budget)
            if token is None or op == "search":
                result = self._point(op, key, value, deadline)
            else:
                response = self._apply_once(
                    request_id.decode("utf-8"), token, deadline,
                    self._point, op, key, value,
                )
                if "replayed" in response or not response["ok"]:
                    return self._send(response)
                result = response["result"]
        except Exception as error:  # lint: allow[errors]
            return self._send(self._refusal(request_id.decode("utf-8"), error))
        return self._send((request_id, result))

    def _refusal(self, request_id: str, error: Exception) -> Dict[str, Any]:
        """The typed error response for a request that raised ``error``.

        A :class:`ReproError` keeps its class name and payload; any
        other exception is a request whose shape we did not anticipate,
        which still gets a typed answer rather than a dead connection.
        """
        self.errors += 1
        if isinstance(error, ReproError):
            return error_response(
                request_id,
                type(error).__name__,
                str(error),
                detail=_error_detail(error),
            )
        return error_response(
            request_id,
            "WireProtocolError",
            f"malformed request: {type(error).__name__}: {error}",
        )

    def _budget_deadline(self, budget: Any) -> Optional[Deadline]:
        """The request's ``budget`` field as a server-side deadline."""
        if budget is not None and not isinstance(budget, (int, float)):
            raise WireProtocolError(
                f"budget must be a number, got {type(budget).__name__}"
            )
        effective = budget
        if self.max_budget is not None:
            effective = (
                self.max_budget if budget is None
                else min(budget, self.max_budget)
            )
        if effective is None:
            return None
        # A non-positive budget is a request that expired in transit:
        # an already-spent deadline turns it into a typed timeout at
        # the first blocking point instead of a UsageError.
        return Deadline.after(max(0.0, effective), clock=self._clock)

    def _respond(
        self,
        request_id: str,
        deadline: Optional[Deadline],
        execute: Callable[..., Any],
        *operands: Any,
    ) -> Dict[str, Any]:
        """Run ``execute(*operands, deadline)`` and shape its outcome as
        a response body."""
        try:
            result = execute(*operands, deadline)
        except ReproError as error:
            return self._refusal(request_id, error)
        return ok_response(request_id, result)

    def _apply_once(
        self,
        request_id: str,
        token: str,
        deadline: Optional[Deadline],
        execute: Callable[..., Any],
        *operands: Any,
    ) -> Dict[str, Any]:
        """Run a mutating op, ``execute(*operands, deadline)``, at most
        once per idempotency token; its response body.

        The token is claimed atomically *before* dispatch, so a retried
        request that races a still-executing first attempt (the client
        reconnected while the old connection's worker is mid-write)
        waits for that attempt's outcome and replays it instead of
        re-executing — a double-execute would, e.g., turn an applied
        delete into a spurious ``RecordNotFoundError`` recorded as the
        token's definite outcome.
        """
        while True:
            claim, payload = self.tokens.reserve(token)
            if claim == "replay":
                # Replay the definite outcome under the NEW correlation
                # id: the retry is a different request for the same op.
                self.dedup_replays += 1
                replay = dict(payload)
                replay["id"] = request_id
                replay["replayed"] = True
                return replay
            if claim == "wait":
                if not payload.wait(
                    None if deadline is None else deadline.wait_budget()
                ):
                    # The first attempt is still executing at our
                    # deadline.  Its outcome (applied or not) remains
                    # owned by that attempt; this retry only times out.
                    raise OperationTimeout(
                        f"duplicate of token {token!r} still executing "
                        f"when the retry's budget expired"
                    )
                continue
            # claim == "execute": this attempt owns the token and must
            # release it on every path out, or duplicates wait forever.
            definite: Optional[Dict[str, Any]] = None
            try:
                response = self._respond(
                    request_id, deadline, execute, *operands
                )
                error_name = response.get("error")
                if error_name is None or error_name not in NOT_APPLIED_ERRORS:
                    # Success or a domain error: the op executed, so
                    # this is the outcome every retry must see.
                    definite = response
                return response
            finally:
                self.tokens.finish(token, definite)

    def _point(
        self, op: str, key: Any, value: Any, deadline: Optional[Deadline]
    ) -> Optional[List[Any]]:
        """The store call of a point command; a record as ``[key, value]``."""
        store = self.store
        if op == "insert":
            store.insert(key, value, deadline=deadline)
            return None
        if op == "delete":
            return _record_to_wire(store.delete(key, deadline=deadline))
        return _record_to_wire(store.search(key, deadline=deadline))

    def _dispatch(
        self, op: Any, args: Dict[str, Any], deadline: Optional[Deadline]
    ) -> Any:
        store = self.store
        if op == "insert" or op == "delete" or op == "search":
            return self._point(op, args["key"], args.get("value"), deadline)
        if op == "scan":
            scan = store.scan(args["key"], args["count"], deadline=deadline)
            return {
                "records": [_record_to_wire(r) for r in scan.records],
                "partial": scan.partial,
                "unavailable": [list(pair) for pair in scan.unavailable],
            }
        if op == "range":
            scan = store.range(args["lo"], args["hi"], deadline=deadline)
            return {
                "records": [_record_to_wire(r) for r in scan.records],
                "partial": scan.partial,
                "unavailable": [list(pair) for pair in scan.unavailable],
            }
        if op == "count":
            return store.count_range(args["lo"], args["hi"], deadline=deadline)
        if op == "len":
            return len(store)
        if op == "hello":
            return {
                "shard_map": store.shard_map.to_wire(),
                "num_shards": store.shard_map.num_shards,
                "health": store.health(),
            }
        if op == "health":
            return store.health()
        if op == "stats":
            return store.store_stats(self.metrics.snapshot(), deadline=deadline)
        if op == "ping":
            return "pong"
        if op == "token":
            # Ground truth for the chaos trichotomy: was this write
            # ever applied?  Absent => proven not applied.
            return self.tokens.peek(str(args["token"]))
        if op == "kill_shard":
            store.mark_down(int(args["shard_id"]))
            return {"state": store.state_of(int(args["shard_id"]))}
        if op == "degrade_shard":
            store.mark_degraded(int(args["shard_id"]))
            return {"state": store.state_of(int(args["shard_id"]))}
        if op == "revive_shard":
            store.revive(int(args["shard_id"]))
            return {"state": store.state_of(int(args["shard_id"]))}
        raise WireProtocolError(f"unknown operation {op!r}")

    # -- TCP serving ----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; raises if not serving."""
        with self._mutex:
            if self._listener is None:
                raise ConfigurationError("server is not listening")
            host, port = self._listener.getsockname()[:2]
            return host, port

    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and serve on a background thread; returns the address.

        Refuses a platform whose socket timeouts are not a ``struct
        timeval`` (see :mod:`repro.cluster.transport`)."""
        require_timeval()
        with self._mutex:
            if self._listener is not None:
                raise ConfigurationError("server is already listening")
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(64)
            # A short accept timeout keeps the loop responsive to stop().
            listener.settimeout(0.2)
            self._listener = listener
            self._stopping.clear()
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="cluster-accept", daemon=True
            )
            self._accept_thread.start()
        return self.address

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            with self._mutex:
                listener = self._listener
            if listener is None:
                return
            try:
                conn, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us during stop()
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="cluster-conn",
                daemon=True,
            )
            with self._mutex:
                self._workers = [t for t in self._workers if t.is_alive()]
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        pending = b""
        try:
            # A blocking socket with the idle timeout in the kernel:
            # each read and write is one system call, with no poll.
            conn.settimeout(None)
            arm_timeouts(conn, int(IDLE_TIMEOUT * 1_000_000))
            while not self._stopping.is_set():
                # Every complete frame in the buffer is served, in
                # order, before the next read.
                frames, pending = recv_frames(conn, pending)
                for frame in frames:
                    conn.sendall(self.handle_frame(frame))
        except OSError:
            # Reset, an idle timeout (BlockingIOError), the peer
            # leaving or a bad frame header (both network errors are
            # OSErrors): connection-scoped, the server drops this
            # stream and keeps serving.
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting, close the listener, join worker threads."""
        self._stopping.set()
        with self._mutex:
            listener, self._listener = self._listener, None
            accept_thread, self._accept_thread = self._accept_thread, None
            workers, self._workers = list(self._workers), []
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        budget = Deadline.after(timeout)
        if accept_thread is not None:
            accept_thread.join(timeout=budget.wait_budget())
        for worker in workers:
            worker.join(timeout=budget.wait_budget())
