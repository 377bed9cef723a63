"""Deterministic interleaving torture harness and its batch runner.

:func:`run_batches` is the one batch loop behind ``repro stress``
(:func:`run_stress`), ``repro chaos``
(:func:`repro.cluster.chaos.run_chaos`) and ``repro stress
--replica-reads`` (:func:`repro.replication.soak.run_replica_stress`).
A seeded schedule — per-thread mixed insert/delete/scan streams from
:mod:`repro.workloads.generators`, cut into batches — runs on one
persistent worker per client thread.  Each batch is released through a
fresh barrier so its operations genuinely overlap, and the runner
checks **linearizability**: every batch must be equivalent to *some*
sequential order of its operations applied to a
:class:`SequentialOracle`, and the target's contents must match the
oracle's whenever the runner audits them.  Outcomes share one
vocabulary (:func:`outcome_of`; the :data:`NOT_APPLIED` tags are
refusals the witness search skips).  A caller supplies only the
target, ``issue(op) -> outcome``, the audit and optional hooks.

Determinism: the *schedule* is a pure function of the seed; the OS may
interleave the racing operations however it likes, which is exactly
what the permutation check accounts for.  The same seed therefore
always produces the same schedule (asserted via
:attr:`StressReport.schedule_digest`), and a failure names the batch
and seed that reproduce it.

The harness **proves its own teeth** with two negative controls
(:func:`self_test`), both run through the same runner:

* *seeded race*: inserts with the lock deliberately bypassed
  (``bypass_lock=True``) over a store that sleeps between page touches
  to amplify interleavings — the runner must catch the resulting
  corruption (oracle divergence, invariant violation, or an outright
  exception);
* *deadlock*: two operations acquiring two locks in opposite orders,
  released in one batch — the per-operation deadlines must surface
  :class:`~repro.core.errors.OperationTimeout` instead of hanging the
  run (and the build).

A variant runs the whole torture over a
:func:`~repro.storage.faults.fault_tolerant_stack` with a seeded
transient-fault plan underneath, reporting how many transients the
deadline-aware :class:`~repro.storage.faults.RetryingStore` absorbed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.dense_file import DenseSequentialFile
from ..core.errors import (
    CircuitOpenError,
    ConfigurationError,
    OperationTimeout,
    OverloadError,
    ReproError,
    ShardUnavailableError,
    TransientNetworkError,
    WireProtocolError,
)
from ..core.params import ceil_log2
from ..obs import Number
from ..storage.backend import (
    DelegatingStore,
    MemoryStore,
    PageStore,
    make_store,
)
from ..storage.faults import FaultPlan, fault_tolerant_stack
from ..storage.page import Page
from ..workloads.driver import split_workload
from ..workloads.generators import INSERT, mixed_workload
from .deadline import Deadline
from .file import ThreadSafeDenseFile
from .retry import RetryPolicy
from .rwlock import FairRWLock

if TYPE_CHECKING:  # pragma: no cover - imported lazily at runtime
    from ..sanitizer import SanitizerRuntime

#: Stacks the harness can torture.
STACKS = ("memory", "disk", "buffered", "faulty")


@dataclass(frozen=True)
class ClientOp:
    """One operation a client thread will issue."""

    kind: str
    key: object
    arg: int = 0
    thread: int = 0

    def describe(self) -> str:
        """Compact one-line rendering for violation reports."""
        return f"t{self.thread}:{self.kind}({self.key},{self.arg})"


@dataclass
class StressConfig:
    """Everything that determines a torture run (and only that).

    Two configs with equal fields produce byte-identical schedules; the
    seed controls workload content, read mix and batch composition.
    """

    threads: int = 4
    total_ops: int = 200
    seed: int = 0
    max_batch: int = 4
    stack: str = "memory"
    transient_rate: float = 0.05
    insert_ratio: float = 0.6
    read_fraction: float = 0.35
    key_space: int = 10_000
    op_timeout: Optional[float] = 30.0
    batch_timeout: float = 60.0
    check_contents_every: int = 8
    max_in_flight: Optional[int] = None
    shed_load: bool = False
    path: Optional[str] = None
    #: Rebuild the stack with the race sanitizer's instrumented store
    #: and lock (see :mod:`repro.sanitizer`); findings land in
    #: :attr:`StressReport.races`.  Off by default — the plain stack
    #: runs with zero instrumentation.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.stack not in STACKS:
            raise ConfigurationError(f"unknown stack {self.stack!r}; pick {STACKS}")
        if self.threads < 1:
            raise ConfigurationError("need at least one client thread")
        if not 1 <= self.max_batch:
            raise ConfigurationError("max_batch must be at least 1")


@dataclass
class StressReport:
    """What one torture run observed."""

    seed: int = 0
    threads: int = 0
    stack: str = ""
    batches: int = 0
    ops_executed: int = 0
    schedule_digest: str = ""
    violations: List[str] = field(default_factory=list)
    deadlocks: List[str] = field(default_factory=list)
    races: List[str] = field(default_factory=list)
    sanitizer_counters: Optional[Dict[str, Number]] = None
    timeouts: int = 0
    overloads: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    #: The stack's registry snapshot at the end of the run: lock, gate
    #: and retry-layer counters among them (see :mod:`repro.obs`).
    counters: Dict[str, Number] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Clean run: linearizable, no deadlock, no race, no corruption."""
        return (
            not self.violations and not self.deadlocks and not self.races
        )

    def summary(self) -> str:
        """Human-readable verdict with counters and the replay digest."""
        verdict = "CLEAN" if self.ok else "FAILED"
        lines = [
            f"stress[{self.stack}] seed={self.seed} threads={self.threads}: "
            f"{verdict} — {self.ops_executed} ops in {self.batches} batches "
            f"({self.elapsed:.2f}s), schedule {self.schedule_digest[:12]}",
        ]
        if self.timeouts or self.overloads:
            lines.append(
                f"  timeouts={self.timeouts} overloads={self.overloads}"
            )
        if "storage.faults.retries" in self.counters:
            lines.append(
                "  transients injected="
                f"{self.counters['storage.faults.transients_injected']} "
                f"absorbed={self.counters['storage.faults.retries']} "
                f"giveups={self.counters['storage.faults.giveups']} "
                "deadline_giveups="
                f"{self.counters['storage.faults.deadline_giveups']}"
            )
        if self.sanitizer_counters is not None:
            lines.append(
                f"  sanitizer: {self.sanitizer_counters['accesses']} "
                f"accesses / {self.sanitizer_counters['lock_events']} "
                f"lock events over "
                f"{self.sanitizer_counters['resources']} resources — "
                f"{self.sanitizer_counters['findings']} finding(s)"
            )
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        for deadlock in self.deadlocks:
            lines.append(f"  DEADLOCK: {deadlock}")
        for race in self.races:
            lines.append(f"  RACE: {race}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# sequential oracle
# ----------------------------------------------------------------------


class SequentialOracle:
    """A plain sorted-set model of the dense file's visible semantics.

    Results are encoded as small tuples so they compare ``==`` against
    what the targets observed (see :func:`outcome_of`).
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Optional[List] = None):
        self._keys: List = keys if keys is not None else []

    def copy(self) -> "SequentialOracle":
        """An independent snapshot (used to try batch permutations)."""
        return SequentialOracle(list(self._keys))

    def keys(self) -> List:
        """The current sorted key list (not a copy)."""
        return self._keys

    def apply(self, op: ClientOp) -> Tuple:
        """Run ``op`` sequentially and return its canonical outcome tuple."""
        keys = self._keys
        if op.kind == "insert":
            index = bisect.bisect_left(keys, op.key)
            if index < len(keys) and keys[index] == op.key:
                return ("error", "DuplicateKeyError")
            keys.insert(index, op.key)
            return ("ok",)
        if op.kind == "delete":
            index = bisect.bisect_left(keys, op.key)
            if index >= len(keys) or keys[index] != op.key:
                return ("error", "RecordNotFoundError")
            keys.pop(index)
            return ("ok",)
        if op.kind == "scan":
            index = bisect.bisect_left(keys, op.key)
            return ("scan", tuple(keys[index : index + op.arg]))
        if op.kind == "search":
            index = bisect.bisect_left(keys, op.key)
            found = index < len(keys) and keys[index] == op.key
            return ("hit",) if found else ("miss",)
        if op.kind == "count":
            lo = bisect.bisect_left(keys, op.key)
            hi = bisect.bisect_right(keys, op.key + op.arg)
            return ("count", hi - lo)
        raise AssertionError(f"unknown op kind {op.kind!r}")


#: Typed refusals and the outcome tag each one becomes.
_REFUSALS: Tuple[Tuple[Tuple[type, ...], str], ...] = (
    ((OperationTimeout,), "timeout"),
    ((OverloadError,), "overload"),
    ((ShardUnavailableError,), "unavailable"),
    ((CircuitOpenError,), "circuit_open"),
    # The retry policy gave up mid-fault.
    ((TransientNetworkError, WireProtocolError), "network"),
)

#: Outcome tags that mean "definitely not applied": the operation was
#: refused before it could touch the target, so the witness search
#: skips it.  ``partial`` is a cross-shard scan that met a dead shard.
NOT_APPLIED = tuple(tag for _types, tag in _REFUSALS) + ("partial",)


def outcome_of(error: Exception) -> Tuple:
    """Encode the exception an operation raised as its outcome tuple.

    Typed refusals map onto :data:`NOT_APPLIED`; any other
    :class:`~repro.core.errors.ReproError` is an ``error`` the oracle
    must reproduce; anything else is a ``crash`` — corruption shows up
    as arbitrary wreckage.
    """
    for types, tag in _REFUSALS:
        if isinstance(error, types):
            return (tag,)
    if isinstance(error, ReproError):
        return ("error", type(error).__name__)
    return ("crash", f"{type(error).__name__}: {error}")


def file_issuer(
    shared: ThreadSafeDenseFile, timeout: Optional[float]
) -> Callable[[ClientOp], Tuple]:
    """``issue(op) -> outcome`` against a thread-safe dense file."""

    def issue(op: ClientOp) -> Tuple:
        if op.kind == "insert":
            shared.insert(op.key, timeout=timeout)
            return ("ok",)
        if op.kind == "delete":
            shared.delete(op.key, timeout=timeout)
            return ("ok",)
        if op.kind == "scan":
            records = shared.scan(op.key, op.arg, timeout=timeout)
            return ("scan", tuple(record.key for record in records))
        if op.kind == "search":
            record = shared.search(op.key, timeout=timeout)
            return ("hit",) if record is not None else ("miss",)
        if op.kind == "count":
            total = shared.count_range(op.key, op.key + op.arg, timeout=timeout)
            return ("count", total)
        raise AssertionError(f"unknown op kind {op.kind!r}")

    return issue


def check_batch(
    oracle: SequentialOracle,
    executed: List[Tuple[ClientOp, Tuple]],
) -> Tuple[Optional[SequentialOracle], Optional[str]]:
    """Find a sequential witness order for one batch of outcomes.

    Returns ``(advanced_oracle, None)`` when some permutation of the
    batch explains every observed result, else ``(None, explanation)``.
    """
    for order in itertools.permutations(executed):
        candidate = oracle.copy()
        for op, observed in order:
            if observed[0] in NOT_APPLIED or observed[0] == "crash":
                continue
            if candidate.apply(op) != observed:
                break
        else:
            return candidate, None
    detail = ", ".join(
        f"{op.describe()} -> {observed!r}" for op, observed in executed
    )
    return None, f"no sequential witness for batch [{detail}]"


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------


def build_schedule(
    seed: int,
    threads: int,
    total_ops: int,
    max_batch: int,
    *,
    insert_ratio: float,
    key_space: int,
    read_fraction: float,
) -> List[List[ClientOp]]:
    """Deterministic batches of per-thread streams, a pure function of
    its arguments.

    Write traffic comes from :func:`~repro.workloads.generators.mixed_workload`
    split by key ownership (so each stream stays executable no matter
    how streams interleave); reads — scans, point lookups, range counts
    over the *whole* key space — are woven in between.  Each batch then
    takes the next operation of a seeded choice of up to ``max_batch``
    threads: who races whom, when.
    """
    rng = random.Random(seed)
    writes = mixed_workload(
        total_ops, insert_ratio=insert_ratio, key_space=key_space, seed=seed
    )
    streams: List[List[ClientOp]] = []
    for tid, stream in enumerate(split_workload(writes, threads)):
        ops: List[ClientOp] = []
        for operation in stream:
            if rng.random() < read_fraction:
                kind = rng.choice(("scan", "search", "count"))
                key = rng.randrange(key_space)
                arg = rng.randrange(1, 24)
                ops.append(ClientOp(kind, key, arg, tid))
            kind = "insert" if operation.kind == INSERT else "delete"
            ops.append(ClientOp(kind, operation.key, 0, tid))
        streams.append(ops)

    rng = random.Random(seed ^ 0x5EED)
    cursors = [0] * len(streams)
    schedule: List[List[ClientOp]] = []
    while True:
        pending = [
            tid for tid, cursor in enumerate(cursors)
            if cursor < len(streams[tid])
        ]
        if not pending:
            break
        width = rng.randint(1, min(max_batch, len(pending)))
        batch = []
        for tid in sorted(rng.sample(pending, width)):
            batch.append(streams[tid][cursors[tid]])
            cursors[tid] += 1
        schedule.append(batch)
    return schedule


def schedule_digest(schedule: List[List[ClientOp]]) -> str:
    """SHA-256 over the schedule's canonical description."""
    digest = hashlib.sha256()
    for batch in schedule:
        digest.update(
            ("|".join(op.describe() for op in batch) + "\n").encode()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# file construction
# ----------------------------------------------------------------------


def stress_geometry(total_ops: int) -> Tuple[int, int, int]:
    """An (M, d, D) that can hold ``total_ops`` worth of live keys."""
    d = 8
    num_pages = max(16, -(-total_ops // d) * 2)
    D = d + 3 * ceil_log2(num_pages) + 4
    return num_pages, d, D


def build_file(
    config: StressConfig,
    runtime: Optional["SanitizerRuntime"] = None,
) -> DenseSequentialFile:
    """The dense file over the stack the config names.

    With a :class:`~repro.sanitizer.SanitizerRuntime` the *outermost*
    store of whichever stack the config names is wrapped in a
    :class:`~repro.sanitizer.SanitizedStore`, so the sanitizer observes
    exactly the logical access sequence the engine issues.
    """
    num_pages, d, D = stress_geometry(config.total_ops)
    store: PageStore
    if config.stack == "faulty":
        plan = FaultPlan(seed=config.seed, transient_rate=config.transient_rate)
        store = fault_tolerant_stack(
            MemoryStore(num_pages), plan, RetryPolicy(max_attempts=100)
        )
    elif config.stack != "memory" and config.path is None:
        raise ConfigurationError(f"stack {config.stack!r} needs a path")
    else:
        # A buffered stack reads ahead, so threaded scans cross window
        # offers in its own scan walk.
        store = make_store(
            config.stack, num_pages, d=d, D=D, path=config.path,
            cache_pages=8, overwrite=True,
            readahead=4 if config.stack == "buffered" else 0,
        )
    if runtime is not None:
        from ..sanitizer import SanitizedStore

        store = SanitizedStore(store, runtime)
    return DenseSequentialFile(num_pages, d, D, store=store)


# ----------------------------------------------------------------------
# the batch runner
# ----------------------------------------------------------------------


@dataclass
class Issued:
    """One executed operation: what was asked, what came back, how long."""

    op: ClientOp
    outcome: Tuple
    elapsed: float = 0.0


@dataclass
class BatchRun:
    """What :func:`run_batches` observed."""

    batches: int = 0
    ops: int = 0
    #: Outcome tag -> count, after the ``settle`` hook.
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: ``error``/``crash`` class name -> count.
    errors: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: The stuck batch, when one outlived ``batch_timeout``.
    hang: Optional[str] = None


#: One job for a worker: release barrier, batch slot, operation.
_Job = Tuple[threading.Barrier, int, ClientOp]


def run_batches(
    schedule: List[List[ClientOp]],
    threads: int,
    issue: Callable[[ClientOp], Tuple],
    audit: Callable[[SequentialOracle], Optional[str]],
    *,
    batch_timeout: float = 60.0,
    audit_every: int = 8,
    before_batch: Optional[Callable[[int], None]] = None,
    settle: Optional[Callable[[int, List[Issued]], None]] = None,
) -> BatchRun:
    """Run ``schedule`` on ``threads`` workers and check every batch.

    ``before_batch(index)`` runs before a batch's barrier release.  Its
    results are collected under one ``batch_timeout`` (a stuck batch is
    one hang finding and ends the run), handed to ``settle`` — which
    may record the caller's own findings and replace an ambiguous
    outcome with ground truth — then tallied and checked by
    :func:`check_batch`; the first failed witness ends the run.
    ``audit(oracle)`` returns a mismatch or ``None``; it runs every
    ``audit_every`` batches (0 = never) and once at the end.
    """
    run = BatchRun()
    oracle = SequentialOracle()
    outbox: "queue.Queue[Tuple[int, Issued]]" = queue.Queue()

    def work(inbox: "queue.Queue[Optional[_Job]]") -> None:
        while (job := inbox.get()) is not None:
            barrier, slot, op = job
            start = time.monotonic()
            try:
                barrier.wait(timeout=60.0)
                start = time.monotonic()
                outcome = issue(op)
            except Exception as error:  # lint: allow[errors] -- every exception is an outcome
                outcome = outcome_of(error)
            outbox.put((slot, Issued(op, outcome, time.monotonic() - start)))

    inboxes: List["queue.Queue[Optional[_Job]]"] = [
        queue.Queue() for _ in range(threads)
    ]
    workers = [
        threading.Thread(
            target=work, args=(inbox,), name=f"batch-worker-{tid}", daemon=True
        )
        for tid, inbox in enumerate(inboxes)
    ]
    for worker in workers:
        worker.start()
    try:
        for index, batch in enumerate(schedule):
            if before_batch is not None:
                before_batch(index)
            barrier = threading.Barrier(len(batch))
            for slot, op in enumerate(batch):
                inboxes[op.thread].put((barrier, slot, op))
            done: Dict[int, Issued] = {}
            deadline = Deadline.after(batch_timeout)
            try:
                while len(done) < len(batch):
                    slot, issued = outbox.get(timeout=deadline.wait_budget())
                    done[slot] = issued
            except queue.Empty:
                stuck = ", ".join(
                    op.describe() for slot, op in enumerate(batch)
                    if slot not in done
                )
                run.hang = (
                    f"batch {index}: no result within {batch_timeout}s — "
                    f"stuck on [{stuck}]"
                )
                return run
            executed = [done[slot] for slot in range(len(batch))]
            run.batches += 1
            run.ops += len(executed)
            if settle is not None:
                settle(index, executed)
            for issued in executed:
                tag = issued.outcome[0]
                run.outcomes[tag] = run.outcomes.get(tag, 0) + 1
                if tag in ("error", "crash"):
                    label = issued.outcome[1].split(":")[0]
                    run.errors[label] = run.errors.get(label, 0) + 1
                if tag == "crash":
                    run.violations.append(
                        f"batch {index}: {issued.op.describe()} crashed: "
                        f"{issued.outcome[1]}"
                    )
            advanced, problem = check_batch(
                oracle, [(issued.op, issued.outcome) for issued in executed]
            )
            if advanced is None:
                run.violations.append(f"batch {index}: {problem}")
                return run
            oracle = advanced
            if audit_every and (index + 1) % audit_every == 0:
                mismatch = audit(oracle)
                if mismatch:
                    run.violations.append(f"batch {index}: {mismatch}")
                    return run
        mismatch = audit(oracle)
        if mismatch:
            run.violations.append(f"final: {mismatch}")
        return run
    finally:
        for inbox in inboxes:
            inbox.put(None)
        for worker in workers:
            worker.join(timeout=10.0)


def file_audit(
    shared: ThreadSafeDenseFile, key_space: int
) -> Callable[[SequentialOracle], Optional[str]]:
    """The :func:`run_batches` audit for a thread-safe dense file: its
    keys must be the oracle's, and its invariants must hold."""

    def audit(oracle: SequentialOracle) -> Optional[str]:
        observed = [
            record.key
            for record in shared.range(-1, key_space + 1, timeout=None)
        ]
        if observed != oracle.keys():
            return (
                f"contents diverge from oracle: file has {len(observed)} "
                f"keys, oracle has {len(oracle.keys())}"
            )
        try:
            shared.validate()
        except Exception as error:  # lint: allow[errors] -- recorded as a violation
            return f"validate(): {type(error).__name__}: {error}"
        return None

    return audit


# ----------------------------------------------------------------------
# the stress schedule
# ----------------------------------------------------------------------


def run_stress(config: StressConfig) -> StressReport:
    """Run one seeded torture campaign and check it end to end."""
    schedule = build_schedule(
        config.seed, config.threads, config.total_ops, config.max_batch,
        insert_ratio=config.insert_ratio, key_space=config.key_space,
        read_fraction=config.read_fraction,
    )
    report = StressReport(
        seed=config.seed,
        threads=config.threads,
        stack=config.stack,
        schedule_digest=schedule_digest(schedule),
    )
    runtime: Optional["SanitizerRuntime"] = None
    lock: Optional[FairRWLock] = None
    if config.sanitize:
        from ..sanitizer import SanitizedRWLock, SanitizerRuntime

        runtime = SanitizerRuntime()
        lock = SanitizedRWLock(runtime)
    dense = build_file(config, runtime=runtime)
    shared = ThreadSafeDenseFile(
        dense,
        max_in_flight=config.max_in_flight,
        shed_load=config.shed_load,
        lock=lock,
    )
    start = time.monotonic()
    try:
        run = run_batches(
            schedule, config.threads,
            file_issuer(shared, config.op_timeout),
            file_audit(shared, config.key_space),
            batch_timeout=config.batch_timeout,
            audit_every=config.check_contents_every,
        )
        report.batches = run.batches
        report.ops_executed = run.ops
        report.timeouts = run.outcomes.get("timeout", 0)
        report.overloads = run.outcomes.get("overload", 0)
        report.errors = run.errors
        report.violations = run.violations
        if run.hang is not None:
            report.deadlocks.append(run.hang)
    finally:
        report.elapsed = time.monotonic() - start
        report.counters = shared.metrics.snapshot()
        if runtime is not None:
            race_report = runtime.report()
            report.races = [
                finding.render() for finding in race_report.findings
            ]
            report.sanitizer_counters = race_report.counters()
        shared.inner.close()
    return report


# ----------------------------------------------------------------------
# negative controls: the harness proves its own teeth
# ----------------------------------------------------------------------


class _YieldingStore(DelegatingStore):
    """Pass-through store that sleeps between page touches.

    Widens every window between a read and its dependent write, so a
    deliberately unlocked run interleaves destructively with near
    certainty.  ``move_records`` uses the :class:`PageStore` get/put
    default, planting a yield inside every SHIFT step.
    """

    name = "yielding"
    move_records = PageStore.move_records

    def get_page(self, page_number: int) -> Page:
        time.sleep(0.0005)
        return self.inner.get_page(page_number)

    def put_page(self, page_number: int) -> None:
        time.sleep(0.0005)
        self.inner.put_page(page_number)


def negative_control_race(seed: int = 0, attempts: int = 3) -> bool:
    """Bypass the lock and check the runner catches the carnage.

    Returns ``True`` when a race was detected (contents diverged, an
    invariant broke, or an operation crashed outright) within
    ``attempts`` seeded rounds.  The hardened front-end runs the same
    pattern clean, so detection here is the harness's teeth, not noise.
    """
    num_pages, d, D = stress_geometry(64)
    threads, key_space = 4, 1000
    for attempt in range(attempts):
        store = _YieldingStore(MemoryStore(num_pages))
        dense = DenseSequentialFile(num_pages, d, D, store=store)
        unlocked = ThreadSafeDenseFile(dense, bypass_lock=True)
        # Interleaved key stripes: every batch races all threads over
        # the same pages.
        keys = random.Random(seed + attempt).sample(range(key_space), 48)
        schedule = [
            [ClientOp("insert", key, 0, tid) for tid, key in enumerate(row)]
            for row in zip(*[iter(keys)] * threads)
        ]
        run = run_batches(
            schedule, threads,
            file_issuer(unlocked, None), file_audit(unlocked, key_space),
        )
        if run.violations or run.hang is not None:
            return True
    return False


def negative_control_deadlock(hold: float = 0.05, budget: float = 0.5) -> bool:
    """Two lock acquisitions in opposite orders, raced in one batch.

    A guaranteed lock-order inversion: each client takes its first lock,
    meets the other at a barrier, then requests the other's lock.  With
    unbounded waiting this hangs forever; with per-operation deadlines
    the runner records a ``timeout`` outcome instead of wedging the
    build.  Returns ``True`` when the timeout path fired as designed.
    """
    lock_a, lock_b = FairRWLock(), FairRWLock()
    orders = ((lock_a, lock_b), (lock_b, lock_a))
    meet = threading.Barrier(2)

    def issue(op: ClientOp) -> Tuple:
        first, second = orders[op.thread]
        with first.write_locked(Deadline.after(budget)):
            meet.wait(timeout=30.0)
            time.sleep(hold)
            # lint: allow[lock-order] -- deliberate ABBA deadlock for the negative control
            with second.write_locked(Deadline.after(budget)):
                return ("miss",)  # an empty lookup, to the oracle

    batch = [ClientOp("search", -1, 0, tid) for tid in range(2)]
    run = run_batches([batch], 2, issue, lambda oracle: None)
    return run.outcomes.get("timeout", 0) > 0


@dataclass
class SelfTestReport:
    """Outcome of the harness's own positive + negative controls."""

    clean: StressReport
    race_detected: bool
    deadlock_detected: bool

    @property
    def ok(self) -> bool:
        return self.clean.ok and self.race_detected and self.deadlock_detected

    def summary(self) -> str:
        """One line per control, each with its own ok/FAILED mark."""

        def mark(value: bool) -> str:
            return "ok" if value else "FAILED"

        return "\n".join(
            [
                self.clean.summary(),
                f"negative control (seeded race, lock bypassed): "
                f"{mark(self.race_detected)} — corruption detected",
                f"negative control (lock-order deadlock): "
                f"{mark(self.deadlock_detected)} — deadline fired",
            ]
        )


def self_test(seed: int = 0, total_ops: int = 120) -> SelfTestReport:
    """Positive control plus both negative controls, in one verdict."""
    clean = run_stress(StressConfig(seed=seed, total_ops=total_ops))
    return SelfTestReport(
        clean=clean,
        race_detected=negative_control_race(seed),
        deadlock_detected=negative_control_deadlock(),
    )
