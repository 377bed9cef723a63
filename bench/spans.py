"""Outside-in span tracing for the benchmark's traced run.

Every layer is measured from outside: the ``instrument_*`` functions
replace methods on the public objects of one built stack (the engine, its page
file and disk meter, the page store behind ``pagefile.store``, the
buffer pool, the slotted OS file, the journal, the thread-safe front-end
and its lock, the cluster client, channel and server) with wrappers that
open a span around the original call.  Nothing under ``src/`` changes;
an untraced run builds the same stack and installs nothing.

One span stack serves every thread.  That is sound only because the
load is a closed loop with one client: the cluster server thread runs a
request while the client thread is blocked inside ``channel.request``,
and it closes its spans before it sends the response, so server spans
nest under the client's transport span without interleaving.

A layer's self time is its span time minus the time of the spans it
caused.  Calls and self time are aggregated for every command; the full
span tree is kept for one command in :data:`SAMPLE_EVERY` and written as
Chrome trace events.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import PageStore
from repro.storage.backend import DelegatingStore

#: Keep the full span tree of one command in this many.
SAMPLE_EVERY = 64

#: Layer names, outermost first.  Every traced run reports ``calls`` and
#: ``self_s`` for each of them, zero where a workload never enters it.
LAYERS = (
    "cluster.client",
    "cluster.wire",
    "cluster.transport",
    "cluster.server",
    "concurrent",
    "persistent",
    "core",
    "storage.pagefile",
    "storage.disk",
    "storage.backend",
    "storage.bufferpool",
    "storage.codec",
    "storage.ondisk",
    "storage.wal",
    "harness",
)


class Layer:
    """Aggregates of one layer: span count, self time, extra counters."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount


class Tracer:
    """Span recorder: per-layer aggregates plus sampled span trees."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: Dict[str, Layer] = {name: Layer() for name in LAYERS}
        #: Open spans, innermost last: ``[child_seconds, span_id]``.
        self.stack: List[List[Any]] = []
        #: Time covered by spans opened with an empty stack.
        self.top_s = 0.0
        self.sampling = False
        self.request = -1
        self.events: List[Dict[str, Any]] = []
        self._next_id = 0

    # -- command boundaries -------------------------------------------

    def begin_command(self, index: int) -> None:
        """Mark command ``index`` as the current request."""
        self.request = index
        self.sampling = index % SAMPLE_EVERY == 0

    # -- spans ----------------------------------------------------------

    def _open(self) -> List[Any]:
        frame: List[Any] = [0.0, None]
        if self.sampling:
            self._next_id += 1
            frame[1] = self._next_id
        self.stack.append(frame)
        return frame

    def _close(self, layer: Layer, label: str, frame: List[Any],
               start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        elapsed = end - start
        layer.self_s += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_s += elapsed
        if frame[1] is not None:
            self.events.append({
                "name": label,
                "ph": "X",
                "ts": start * 1e6,
                "dur": elapsed * 1e6,
                "pid": 1,
                "tid": threading.get_ident(),
                "args": {
                    "id": frame[1],
                    "parent": stack[-1][1] if stack else None,
                    "request": self.request,
                },
            })

    def wrap(self, layer_name: str, fn: Callable[..., Any],
             label: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` as a span of ``layer_name`` (one call per invocation)."""
        layer = self.layers[layer_name]
        label = label or f"{layer_name}.{fn.__name__}"
        clock = self.clock
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                layer.calls += 1
                tracer._close(layer, label, frame, start, end)

        return span

    def wrap_iter(self, layer_name: str,
                  fn: Callable[..., Iterator[Any]]) -> Callable[..., Iterator[Any]]:
        """A generator function whose every ``next()`` is a span.

        The call counts once; the time of each step counts where it is
        spent, inside whatever span consumes the iterator.
        """
        layer = self.layers[layer_name]
        label = f"{layer_name}.{fn.__name__}"
        clock = self.clock
        tracer = self

        def steps(inner: Iterator[Any]) -> Iterator[Any]:
            while True:
                frame = tracer._open()
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(layer, label, frame, start, clock())
                    return
                except BaseException:
                    tracer._close(layer, label, frame, start, clock())
                    raise
                tracer._close(layer, label, frame, start, clock())
                yield item

        def call(*args: Any, **kwargs: Any) -> Iterator[Any]:
            layer.calls += 1
            return steps(fn(*args, **kwargs))

        return call

    def patch(self, obj: Any, layer_name: str, *names: str) -> None:
        """Replace each method ``names`` on ``obj`` with a span wrapper."""
        for name in names:
            setattr(obj, name, self.wrap(layer_name, getattr(obj, name)))

    # -- output ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the aggregates at the end of the timed window."""
        self.sampling = False
        frozen: Dict[str, Any] = {
            name: {"calls": layer.calls, "self_s": layer.self_s,
                   "extra": dict(layer.extra)}
            for name, layer in self.layers.items()
        }
        frozen["top_s"] = self.top_s
        return frozen

    def write_chrome_trace(self, path: str) -> None:
        """The sampled span trees as a Chrome trace-event JSON file."""
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, handle)


class TimedStore(DelegatingStore):
    """The ``PageStore`` seam with every protocol call timed.

    ``peek`` is the uncharged in-core access the page file makes after
    every mutation; it is counted, not timed, because a span around it
    would cost more than the call.
    """

    name = "timed"

    def __init__(self, inner: PageStore, tracer: Tracer):
        super().__init__(inner)
        self._layer = tracer.layers["storage.backend"]
        for method in ("get_page", "get_page2", "put_page",
                       "move_records", "prefetch", "flush"):
            setattr(self, method,
                    tracer.wrap("storage.backend", getattr(inner, method)))

    def peek(self, page_number: int) -> Any:
        self._layer.add("peek_calls", 1)
        return self.inner.peek(page_number)


def _counting(fn: Callable[..., Any], layer: Layer, counter: str,
              size: Callable[[Any], float]) -> Callable[..., Any]:
    """``fn`` with ``size(result)`` added to a layer counter per call."""

    def call(*args: Any) -> Any:
        result = fn(*args)
        layer.add(counter, size(result))
        return result

    call.__name__ = fn.__name__
    return call


def instrument_engine(tracer: Tracer, dense: Any) -> None:
    """Spans on one dense file's engine, page file, meter and store.

    ``dense`` is the :class:`~repro.core.dense_file.DenseSequentialFile`
    whose engine runs the commands; a :class:`TimedStore` goes in front
    of its page file's store.
    """
    engine = dense.engine
    tracer.patch(engine, "core", "insert", "delete", "search")
    range_scan = engine.range_scan
    # A scan's records stream out of a generator; the engine span covers
    # draining it, which every benchmark caller does anyway.
    engine.range_scan = tracer.wrap(
        "core", lambda lo, hi: iter(list(range_scan(lo, hi))),
        label="core.range_scan",
    )
    if "insert" in vars(dense):
        # The facade binds insert/delete to the engine at construction.
        dense.insert = engine.insert
        dense.delete = engine.delete
    pagefile = engine.pagefile
    tracer.patch(pagefile, "storage.pagefile", "command_insert",
                 "command_delete", "move_records", "get", "locate")
    pagefile.scan_range = tracer.wrap_iter("storage.pagefile",
                                           pagefile.scan_range)
    tracer.patch(engine.disk, "storage.disk",
                 "read", "read2", "write", "move_charge")
    pagefile.store = TimedStore(pagefile.store, tracer)


def instrument_pool(tracer: Tracer, pool: Any) -> None:
    """Spans on a buffer pool's demand accesses and prefetches."""
    tracer.patch(pool, "storage.bufferpool", "access", "prefetch")


def instrument_raw(tracer: Tracer, raw: Any) -> None:
    """Spans on a slotted OS file: slot I/O, fsync, and the codec."""
    ondisk = tracer.layers["storage.ondisk"]
    codec = tracer.layers["storage.codec"]
    slot = raw.slot_capacity
    raw.encode_page_image = tracer.wrap(
        "storage.codec",
        _counting(raw.encode_page_image, codec, "bytes_encoded", len),
    )
    for method in ("write_page_image", "write_page_payload"):
        setattr(raw, method, tracer.wrap(
            "storage.ondisk",
            _counting(getattr(raw, method), ondisk, "bytes_written",
                      lambda _: slot),
        ))
    raw.flush = tracer.wrap(
        "storage.ondisk",
        _counting(raw.flush, ondisk, "fsyncs", lambda _: 1),
    )
    tracer.patch(raw, "storage.ondisk", "read_page")


def instrument_journaled(tracer: Tracer, journaled: Any) -> None:
    """Spans on the journaled facade and its transaction journal."""
    tracer.patch(journaled, "persistent", "insert", "delete")
    tracer.patch(journaled.journal, "storage.wal",
                 "write_transaction", "mark_applied")


def instrument_threadsafe(tracer: Tracer, front: Any) -> None:
    """Spans on a thread-safe front-end and its lock acquisitions."""
    concurrent = tracer.layers["concurrent"]
    clock = tracer.clock
    tracer.patch(front, "concurrent", "insert", "delete", "search")
    lock = front.lock
    for method in ("acquire_read", "acquire_write"):
        acquire = getattr(lock, method)

        def timed_acquire(*args: Any, _acquire: Callable[..., Any] = acquire,
                          **kwargs: Any) -> None:
            start = clock()
            _acquire(*args, **kwargs)
            concurrent.add("lock_wait_s", clock() - start)
            concurrent.add("lock_acquires", 1)

        timed_acquire.__name__ = method
        setattr(lock, method, tracer.wrap("concurrent", timed_acquire))


def instrument_cluster(tracer: Tracer, client: Any,
                       server: Any) -> Callable[[], None]:
    """Spans on the client, its channel, the wire codec and the server.

    The wire functions are module-level names bound into the client and
    server modules; they are rebound for the traced round, and the
    returned callable restores them.
    """
    from repro.cluster import client as client_module
    from repro.cluster import server as server_module

    tracer.patch(client, "cluster.client", "insert", "delete", "search")
    tracer.patch(client.channel, "cluster.transport", "request")
    tracer.patch(server, "cluster.server", "handle_frame")
    wire = tracer.layers["cluster.wire"]
    saved = []
    for module in (client_module, server_module):
        for name in ("encode_frame", "decode_bytes"):
            original = getattr(module, name)
            saved.append((module, name, original))
            fn = original
            if name == "encode_frame":
                fn = _counting(original, wire, "bytes", len)
            setattr(module, name, tracer.wrap("cluster.wire", fn))

    def restore() -> None:
        for module, name, original in saved:
            setattr(module, name, original)

    return restore
