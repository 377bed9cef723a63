"""The five workloads: the stack each builds, the commands it sends, and
the oracle that says what every command must return.

Common set-up: M=8192 pages, d=8, D=48.  D-d=40 > 3*ceil(log2 M)=39,
so this is the largest M meeting CONTROL 2's slack condition at this
D-d, and every stack runs the plain CONTROL 2 engine.  The file holds
at most N=65,536 records; each round preloads 32,768.

A workload's preload and command stream depend only on its seed: the
generator keeps the oracle (:class:`Model`) in step as it emits
commands, so each command carries the result it must produce.  Streams
are made in blocks (:data:`BLOCK` commands unless a workload sets its
own size), outside the timed window.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import (
    BufferedStore,
    ClusterClient,
    ClusterServer,
    DenseSequentialFile,
    JournaledDenseFile,
    ShardedDenseFile,
)

from spans import (
    Tracer,
    instrument_cluster,
    instrument_engine,
    instrument_journaled,
    instrument_pool,
    instrument_raw,
    instrument_threadsafe,
)

NUM_PAGES, LOW_DENSITY, CAPACITY = 8192, 8, 48
KEY_BITS = 18
KEY_SPACE = 1 << KEY_BITS  # 262,144
PRELOAD = 32_768
BLOCK = 4096
#: hotspot_burst preloads keys this many bits apart.
HOTSPOT_SHIFT = 20
#: scan_mixed scans this many consecutive keys (about 100 records).
SCAN_WIDTH = 800
#: The buffered stacks: 256 frames over 8192 pages, readahead 8.
CACHE_PAGES = 256
READAHEAD = 8

#: A command: (operation, arguments, expected result).  ``insert``
#: expects ``None``; ``delete`` and ``search`` expect the stored value
#: (``None`` for a search miss); ``scan`` expects
#: ``(count, first_key, last_key)``.
Command = Tuple[str, tuple, Any]


def int_value(key: int) -> int:
    return key * 7 + 1


def bytes_value(key: int) -> bytes:
    """A 16-byte value, so durable pages keep the int64 key lane."""
    return ((key * 0x9E3779B97F4A7C15) % (1 << 128)).to_bytes(16, "little")


class Model:
    """The oracle: a sorted-list model of the records the file holds.

    ``present`` is an unordered list for uniform sampling; the sorted
    key list is kept only for workloads that check scans, because
    keeping it sorted costs more per update than the file under test.
    """

    def __init__(self, records: Dict[int, Any], ordered: bool = False):
        self.records = dict(records)
        self.present = list(self.records)
        self._slot = {key: index for index, key in enumerate(self.present)}
        self.sorted: Optional[List[int]] = sorted(self.records) if ordered else None

    def __contains__(self, key: int) -> bool:
        return key in self.records

    def add(self, key: int, value: Any) -> None:
        self.records[key] = value
        self._slot[key] = len(self.present)
        self.present.append(key)
        if self.sorted is not None:
            bisect.insort(self.sorted, key)

    def remove(self, key: int) -> Any:
        index = self._slot.pop(key)
        last = self.present.pop()
        if last != key:
            self.present[index] = last
            self._slot[last] = index
        if self.sorted is not None:
            del self.sorted[bisect.bisect_left(self.sorted, key)]
        return self.records.pop(key)

    def scan(self, lo: int, hi: int) -> Tuple[int, Optional[int], Optional[int]]:
        keys = self.sorted
        first = bisect.bisect_left(keys, lo)
        end = bisect.bisect_right(keys, hi)
        if end == first:
            return (0, None, None)
        return (end - first, keys[first], keys[end - 1])

    def sorted_items(self) -> List[Tuple[int, Any]]:
        return sorted(self.records.items())


def check(op: str, args: tuple, expected: Any, out: Any) -> bool:
    """Whether a command's outcome matches the oracle."""
    if isinstance(out, BaseException):
        return False
    if op == "insert":
        return out is None
    if op == "scan":
        count, first, last = expected
        return len(out) == count and (
            count == 0 or (out[0].key == first and out[-1].key == last)
        )
    if expected is None:
        return out is None
    return out is not None and out.key == args[0] and out.value == expected


# ----------------------------------------------------------------------
# command streams
# ----------------------------------------------------------------------


def _absent_key(rng: random.Random, model: Model) -> int:
    while True:
        key = rng.getrandbits(KEY_BITS)
        if key not in model:
            return key


def _insert(rng: random.Random, model: Model,
            value: Callable[[int], Any]) -> Command:
    key = _absent_key(rng, model)
    model.add(key, value(key))
    return ("insert", (key, value(key)), None)


def _delete(rng: random.Random, model: Model) -> Command:
    key = model.present[int(rng.random() * len(model.present))]
    return ("delete", (key,), model.remove(key))


def _search(rng: random.Random, model: Model) -> Command:
    key = rng.getrandbits(KEY_BITS)
    return ("search", (key,), model.records.get(key))


def blocks(commands: Iterator[Command], total: int,
           size: int = BLOCK) -> Iterator[List[Command]]:
    """The first ``total`` commands, in lists of ``size``."""
    while total > 0:
        block = list(itertools.islice(commands, min(size, total)))
        total -= len(block)
        yield block


def uniform_updates(value: Callable[[int], Any]):
    """50/50 insert-absent / delete-present on uniform keys."""

    def stream(rng: random.Random, model: Model) -> Iterator[Command]:
        while True:
            if rng.random() < 0.5:
                yield _insert(rng, model, value)
            else:
                yield _delete(rng, model)

    return stream


def hotspot_cycles(rng: random.Random, model: Model) -> Iterator[Command]:
    """Bursts of 4,096 consecutive keys into one seeded gap, then back out.

    Alternate cycles insert ascending and descending; each burst is
    deleted in shuffled order.  Consecutive keys all land on one page,
    so CONTROL 2's WARNING/ACTIVATE/SHIFT path runs without pause.
    """
    for cycle in itertools.count():
        base = (rng.randrange(PRELOAD - 1) << HOTSPOT_SHIFT) + 1
        keys = list(range(base, base + BLOCK))
        if cycle % 2:
            keys.reverse()
        for key in keys:
            model.add(key, int_value(key))
            yield ("insert", (key, int_value(key)), None)
        rng.shuffle(keys)
        for key in keys:
            yield ("delete", (key,), model.remove(key))


def scan_mix(rng: random.Random, model: Model) -> Iterator[Command]:
    """80% range scans of key width 800, 10% searches, 10% inserts."""
    while True:
        draw = rng.random()
        if draw < 0.8:
            lo = rng.getrandbits(KEY_BITS)
            hi = lo + SCAN_WIDTH - 1
            yield ("scan", (lo, hi), model.scan(lo, hi))
        elif draw < 0.9:
            yield _search(rng, model)
        else:
            yield _insert(rng, model, int_value)


def rpc_mix(rng: random.Random, model: Model) -> Iterator[Command]:
    """45% insert-absent, 45% delete-present, 10% uniform search."""
    while True:
        draw = rng.random()
        if draw < 0.45:
            yield _insert(rng, model, int_value)
        elif draw < 0.9:
            yield _delete(rng, model)
        else:
            yield _search(rng, model)


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------


class Stack:
    """One built system under test plus the hooks the harness needs.

    ``denses`` are the dense files whose engines run the commands (four
    shards for the cluster, one file otherwise).
    """

    def __init__(self, denses: List[DenseSequentialFile]):
        self.denses = denses

    def ops(self) -> Dict[str, Callable[..., Any]]:
        """Command name -> callable, looked up after any instrumentation."""
        raise NotImplementedError

    def meter(self) -> Callable[[], int]:
        """A zero-argument reader of total logical page accesses."""
        stats = self.denses[0].engine.disk.stats
        return lambda: stats.reads + stats.writes

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters; the harness takes deltas."""
        return {
            "records_moved": sum(
                dense.engine.records_moved_total for dense in self.denses
            ),
            "write_bytes": 0,
        }

    def instrument(self, tracer: Tracer) -> Callable[[], None]:
        """Install spans; returns a callable undoing module-level patches."""
        for dense in self.denses:
            instrument_engine(tracer, dense)
        return lambda: None

    def final_check(self, model: Model) -> List[str]:
        """Invariants and final contents against the oracle."""
        problems = []
        for dense in self.denses:
            try:
                dense.validate()
            except Exception as error:  # any invariant break is a failure
                problems.append(f"validate: {type(error).__name__}: {error}")
        keys = [key for dense in self.denses for key in dense.keys()]
        if keys != sorted(model.records):
            problems.append(
                f"final keys differ from the oracle ({len(keys)} vs "
                f"{len(model.records)})"
            )
        return problems

    def close(self) -> None:
        for dense in self.denses:
            dense.close()


class FileStack(Stack):
    """A :class:`DenseSequentialFile` in memory or buffered over disk."""

    def __init__(self, dense: DenseSequentialFile):
        super().__init__([dense])
        self.dense = dense
        # Captured before instrumentation puts a timed store on top.
        self.buffered = dense.store if isinstance(dense.store, BufferedStore) else None

    def ops(self) -> Dict[str, Callable[..., Any]]:
        dense = self.dense
        return {
            "insert": dense.insert,
            "delete": dense.delete,
            "search": dense.search,
            "scan": lambda lo, hi: list(dense.range(lo, hi)),
        }

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        if self.buffered is not None:
            disk = self.buffered.inner
            counters["write_bytes"] = (
                disk.stats()["physical_writes"] * disk.raw.slot_capacity
            )
            pool = self.buffered.pool.stats
            counters.update(
                hits=pool.hits,
                misses=pool.misses,
                evictions=pool.evictions,
                writebacks=pool.physical_writes,
                prefetches=pool.prefetches,
                prefetch_hits=pool.prefetch_hits,
            )
        return counters

    def instrument(self, tracer: Tracer) -> Callable[[], None]:
        restore = super().instrument(tracer)
        if self.buffered is not None:
            instrument_pool(tracer, self.buffered.pool)
            instrument_raw(tracer, self.buffered.inner.raw)
        return restore


class DurableStack(Stack):
    """A :class:`JournaledDenseFile`: one transaction per command."""

    def __init__(self, journaled: JournaledDenseFile, path: str):
        super().__init__([journaled.dense])
        self.journaled = journaled
        self.path = path
        self.raw = journaled.dense.store.raw

    def ops(self) -> Dict[str, Callable[..., Any]]:
        journaled = self.journaled
        return {
            "insert": journaled.insert,
            "delete": journaled.delete,
            "search": journaled.search,
        }

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        journal = self.journaled.journal
        # Each journaled page is also written to its slot once applied.
        counters["write_bytes"] = (
            journal.pages_journaled * self.raw.slot_capacity
            + journal.bytes_journaled
        )
        counters.update(
            journal_fsyncs=journal.fsyncs,
            journal_bytes=journal.bytes_journaled,
        )
        return counters

    def instrument(self, tracer: Tracer) -> Callable[[], None]:
        restore = super().instrument(tracer)
        instrument_raw(tracer, self.raw)
        instrument_journaled(tracer, self.journaled)
        return restore

    def final_check(self, model: Model) -> List[str]:
        problems = []
        try:
            self.journaled.validate()
        except Exception as error:  # any invariant break is a failure
            problems.append(f"validate: {type(error).__name__}: {error}")
        self.journaled.close()
        # Every acknowledged write must survive a close and reopen.
        reopened = JournaledDenseFile.open(self.path)
        try:
            if list(reopened.dense.items()) != model.sorted_items():
                problems.append("reopened file lost acknowledged writes")
            reopened.validate()
        except Exception as error:  # any invariant break is a failure
            problems.append(f"reopen: {type(error).__name__}: {error}")
        finally:
            reopened.close()
        return problems

    def close(self) -> None:
        self.journaled.close()


class ClusterStack(Stack):
    """Four shards behind a loopback TCP server and one client."""

    def __init__(self, store: ShardedDenseFile, server: ClusterServer,
                 client: ClusterClient):
        super().__init__([shard.inner for shard in store.shards])
        self.store = store
        self.server = server
        self.client = client

    def ops(self) -> Dict[str, Callable[..., Any]]:
        client = self.client
        return {
            "insert": client.insert,
            "delete": client.delete,
            "search": client.search,
        }

    def meter(self) -> Callable[[], int]:
        stats = [dense.engine.disk.stats for dense in self.denses]
        return lambda: sum(s.reads + s.writes for s in stats)

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        counters.update(
            retries=self.client.counters.retries,
            server_errors=self.server.errors,
            dedup_replays=self.server.dedup_replays,
        )
        return counters

    def instrument(self, tracer: Tracer) -> Callable[[], None]:
        super().instrument(tracer)
        for shard in self.store.shards:
            instrument_threadsafe(tracer, shard)
        return instrument_cluster(tracer, self.client, self.server)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop()
            self.store.close()


def _uniform_preload(rng: random.Random,
                     value: Callable[[int], Any]) -> Dict[int, Any]:
    return {key: value(key) for key in rng.sample(range(KEY_SPACE), PRELOAD)}


def build_memory(records: Dict[int, Any], workdir: str) -> Stack:
    dense = DenseSequentialFile(NUM_PAGES, LOW_DENSITY, CAPACITY)
    dense.bulk_load(records.items())
    return FileStack(dense)


def build_buffered(records: Dict[int, Any], workdir: str) -> Stack:
    dense = DenseSequentialFile(
        NUM_PAGES, LOW_DENSITY, CAPACITY,
        backend="buffered",
        path=os.path.join(workdir, "file.dsf"),
        cache_pages=CACHE_PAGES,
        readahead=READAHEAD,
    )
    dense.bulk_load(records.items())
    return FileStack(dense)


def build_durable(records: Dict[int, Any], workdir: str) -> Stack:
    path = os.path.join(workdir, "file.dsf")
    journaled = JournaledDenseFile.create(path, NUM_PAGES, LOW_DENSITY, CAPACITY)
    journaled.bulk_load(records.items())
    return DurableStack(journaled, path)


def build_cluster(records: Dict[int, Any], workdir: str) -> Stack:
    store = ShardedDenseFile.build(
        num_shards=4, key_space=KEY_SPACE, capacity_hint=16_384
    )
    by_shard: Dict[int, List[Tuple[int, Any]]] = {}
    for key, value in records.items():
        by_shard.setdefault(store.shard_map.shard_for(key), []).append((key, value))
    for shard_id, items in by_shard.items():
        store.shards[shard_id].inner.bulk_load(items)
    server = ClusterServer(store)
    try:
        host, port = server.start()
        client = ClusterClient.connect(host, port, default_timeout=30.0)
        client.hello()
    except BaseException:
        server.stop()
        raise
    return ClusterStack(store, server, client)


class Workload:
    """A named workload: its stack, preload, stream and measurement."""

    def __init__(self, name: str, why: str, commands: int,
                 build: Callable[[Dict[int, Any], str], Stack],
                 preload: Callable[[random.Random], Dict[int, Any]],
                 stream: Callable[[random.Random, Model], Iterator[Command]],
                 ordered: bool = False, block: int = BLOCK,
                 segment: int = BLOCK // 4, waits: bool = False):
        self.name = name
        self.why = why
        #: Commands per round at ``--scale 1``.
        self.commands = commands
        self.build = build
        self.preload = preload
        self.stream = stream
        self.ordered = ordered
        #: Commands per block: generated together, then timed together.
        self.block = block
        #: Commands between two runs of the reference loop: about 10 ms.
        self.segment = segment
        #: Whether commands block on the device (fsync), so that wall
        #: time off the CPU is theirs (see ``worker.scaled``).
        self.waits = waits


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "update_uniform",
            "per-command fast path with no I/O; bypasses SHIFT, buffer pool, "
            "codec, WAL and wire",
            commands=56 * BLOCK,
            build=build_memory,
            preload=lambda rng: _uniform_preload(rng, int_value),
            stream=uniform_updates(int_value),
        ),
        Workload(
            "hotspot_burst",
            "the paper's adversarial case: consecutive-key bursts keep "
            "CONTROL 2's WARNING/ACTIVATE/SHIFT path busy; hot set fits the cache",
            commands=48 * BLOCK,
            build=build_buffered,
            preload=lambda rng: {
                index << HOTSPOT_SHIFT: int_value(index << HOTSPOT_SHIFT)
                for index in range(PRELOAD)
            },
            stream=hotspot_cycles,
            # Two whole cycles, ascending then descending, so that every
            # block does the same kind of work.
            block=4 * BLOCK,
            segment=BLOCK // 8,
        ),
        Workload(
            "scan_mixed",
            "stream retrieval over a working set far larger than the cache: "
            "scans, record materialization, pool misses, readahead, write-backs",
            commands=64 * BLOCK // 16,
            build=build_buffered,
            preload=lambda rng: _uniform_preload(rng, int_value),
            stream=scan_mix,
            ordered=True,
            block=BLOCK // 16,
            segment=32,
        ),
        Workload(
            "durable_commit",
            "one journaled transaction per command: codec, slot I/O, journal "
            "and fsync dominate; bypasses in-core changes",
            commands=25 * BLOCK // 16,
            build=build_durable,
            preload=lambda rng: _uniform_preload(rng, bytes_value),
            stream=uniform_updates(bytes_value),
            block=BLOCK // 16,
            segment=16,
            waits=True,
        ),
        Workload(
            "cluster_rpc",
            "loopback RPC to four shards: JSON/CRC framing, sockets, server "
            "thread hand-off, idempotency table and per-shard locks",
            commands=48 * BLOCK // 8,
            build=build_cluster,
            preload=lambda rng: _uniform_preload(rng, int_value),
            stream=rpc_mix,
            block=BLOCK // 8,
            segment=64,
        ),
    )
}
