"""Long-soak SLO runner: primary + replica under fire, with receipts.

:func:`run_soak` drives a primary–replica pair for a wall-clock budget
under a seeded mixed workload while three hazard generators run:

* **crash rounds** — every ``crash_every`` ops the
  :class:`~repro.storage.faults.FaultPlan` countdown is armed at a
  seeded offset, so a :class:`~repro.storage.faults.SimulatedCrash`
  lands at an arbitrary journal/apply write boundary of a later
  transaction.  The runner then exercises the full failover path:
  scrub the dead primary (its recovery must come back healthy), promote
  the replica through :meth:`~repro.replication.Failover.
  promote_after_crash` (the promoted digest must equal the primary's
  committed state at the promoted LSN), and re-seed the old primary's
  path as the next replica — the pair ping-pongs between the two paths
  for as many failovers as the clock allows.
* **corruption rounds** — every ``corrupt_every`` ops a torn write or
  bit flip is armed at the very next physical page write, and once it
  has bitten, the next write is crashed.  That ordering makes the
  damage provably recoverable (the corrupt page belongs to the last
  applied transaction, whose retained journal image heals it), so any
  page scrub cannot repair is a real finding, not noise.
* **load** — reader threads on the primary (through the
  :class:`~repro.concurrent.ThreadSafeDenseFile` admission gate and
  deadline budgets) and on the replica, where every snapshot is checked
  for prefix consistency against the primary-side
  :class:`~repro.replication.StateRecorder` digests.

The result is a :class:`SoakReport`: p50/p99 latencies per operation
class, replication-lag percentiles, failover/corruption counts, and
the list of findings (empty on a clean run) — exportable as a
``repro-bench/1`` JSON report for the CI soak-smoke gate.

:func:`run_replica_stress` (``repro stress --replica-reads``) is the
short, crash-free pair schedule: seeded writer batches on a journaled
primary, run and oracle-checked by the batch runner of
:mod:`repro.concurrent.harness`
(:func:`~repro.concurrent.harness.run_batches`), while an applier
thread ships the WAL and reader threads snapshot the replica.  Both
schedules judge the pair with the same two
:class:`~repro.replication.Failover` checks —
:meth:`~repro.replication.Failover.check_snapshot` on every replica
snapshot and :meth:`~repro.replication.Failover.final_drain` at the
end.  :func:`run_soak` keeps its own loop: it is time-budgeted and
single-writer, with failovers in between, not a precomputed schedule.
"""

from __future__ import annotations

import os
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis.stats import percentile
from ..concurrent import ThreadSafeDenseFile
from ..concurrent.harness import (
    build_schedule,
    file_audit,
    file_issuer,
    run_batches,
    stress_geometry,
)
from ..core.errors import (
    ConfigurationError,
    OperationTimeout,
    OverloadError,
    ReproError,
)
from ..persistent import JournaledDenseFile
from ..storage.faults import FaultPlan, SimulatedCrash
from ..storage.scrub import scrub
from .failover import Failover
from .replica import Replica, bootstrap_replica
from .transport import DirectoryTransport, QueueTransport

BENCH_SCHEMA = "repro-bench/1"


@dataclass
class SoakConfig:
    """Knobs for one soak run (defaults match the CI smoke job)."""

    workdir: str
    seconds: float = 20.0
    seed: int = 7
    transport: str = "queue"  # "queue" | "directory"
    num_pages: int = 48
    d: int = 4
    D: int = 28
    op_timeout: float = 2.0
    max_in_flight: int = 4
    read_fraction: float = 0.45
    sync_every: int = 20
    crash_every: int = 200
    corrupt_every: int = 450
    primary_readers: int = 1
    replica_readers: int = 1
    key_space: int = 50_000

    def __post_init__(self) -> None:
        if self.transport not in ("queue", "directory"):
            raise ConfigurationError(
                f"transport must be 'queue' or 'directory', "
                f"not {self.transport!r}"
            )
        if self.seconds <= 0:
            raise ConfigurationError("seconds must be positive")


@dataclass
class SoakReport:
    """Everything one soak run observed, with SLO percentiles."""

    seconds: float
    seed: int
    transport: str
    elapsed_s: float = 0.0
    primary_writes: int = 0
    primary_reads: int = 0
    replica_reads: int = 0
    consistency_checks: int = 0
    failovers: int = 0
    crash_rounds: int = 0
    corruption_rounds: int = 0
    records_shipped: int = 0
    records_applied: int = 0
    pages_healed: int = 0
    timeouts: int = 0
    overloads: int = 0
    reader_races: int = 0
    lag_samples: List[int] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    read_latencies: List[float] = field(default_factory=list)
    replica_latencies: List[float] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no unrecovered corruption or divergence was found."""
        return not self.findings

    def _cell(
        self, scenario: str, ops: int, latencies: List[float],
        counters: Dict[str, float],
    ) -> Dict[str, Any]:
        ordered = sorted(latencies)
        return {
            "scenario": scenario,
            "backend": "journaled-replicated",
            "ops": ops,
            "elapsed_s": self.elapsed_s,
            "ops_per_sec": (
                ops / self.elapsed_s if self.elapsed_s > 0 else 0.0
            ),
            "page_accesses": 0,
            "latency_p50_us": percentile(ordered, 0.50) * 1e6,
            "latency_p99_us": percentile(ordered, 0.99) * 1e6,
            "counters": counters,
        }

    def to_bench_report(self) -> Dict[str, Any]:
        """The run as a ``repro-bench/1`` report dict (JSON-ready)."""
        lag = sorted(self.lag_samples)
        return {
            "schema": BENCH_SCHEMA,
            "quick": False,
            "seed": self.seed,
            "ops": self.primary_writes + self.primary_reads,
            "soak": {
                "seconds": self.seconds,
                "transport": self.transport,
                "failovers": self.failovers,
                "crash_rounds": self.crash_rounds,
                "corruption_rounds": self.corruption_rounds,
                "records_shipped": self.records_shipped,
                "records_applied": self.records_applied,
                "pages_healed": self.pages_healed,
                "consistency_checks": self.consistency_checks,
                "lag_p50": percentile(lag, 0.50) if lag else 0.0,
                "lag_p99": percentile(lag, 0.99) if lag else 0.0,
                "lag_max": max(lag) if lag else 0,
                "findings": list(self.findings),
            },
            "results": [
                self._cell(
                    "soak-primary-write",
                    self.primary_writes,
                    self.write_latencies,
                    {
                        "timeouts": self.timeouts,
                        "overloads": self.overloads,
                        "failovers": self.failovers,
                    },
                ),
                self._cell(
                    "soak-primary-read",
                    self.primary_reads,
                    self.read_latencies,
                    {"reader_races": self.reader_races},
                ),
                self._cell(
                    "soak-replica-read",
                    self.replica_reads,
                    self.replica_latencies,
                    {"consistency_checks": self.consistency_checks},
                ),
            ],
        }

    def summary(self) -> str:
        """Multi-line human report for the CLI."""
        lag = sorted(self.lag_samples)
        writes = sorted(self.write_latencies)
        lines = [
            f"soak: {self.elapsed_s:.1f}s elapsed (budget {self.seconds}s), "
            f"seed {self.seed}, transport {self.transport}",
            f"  primary: {self.primary_writes} writes, "
            f"{self.primary_reads} reads "
            f"(p50 {percentile(writes, 0.5) * 1e6:.0f}us / "
            f"p99 {percentile(writes, 0.99) * 1e6:.0f}us write latency)"
            if writes
            else f"  primary: {self.primary_writes} writes, "
            f"{self.primary_reads} reads",
            f"  replica: {self.replica_reads} reads, "
            f"{self.consistency_checks} prefix-consistency checks, "
            f"lag p99 {percentile(lag, 0.99) if lag else 0:.1f} "
            f"(max {max(lag) if lag else 0})",
            f"  hazards: {self.failovers} failovers "
            f"({self.crash_rounds} crash rounds, "
            f"{self.corruption_rounds} corruption rounds), "
            f"{self.pages_healed} pages healed, "
            f"{self.timeouts} timeouts, {self.overloads} overloads",
        ]
        if self.clean:
            lines.append("soak verdict: clean (zero unrecovered findings)")
        else:
            for finding in self.findings:
                lines.append(f"  FINDING: {finding}")
            lines.append(
                f"soak verdict: {len(self.findings)} finding(s) — "
                "see above"
            )
        return "\n".join(lines)


class _Live:
    """The current epoch's primary/replica pair, swapped on failover."""

    def __init__(
        self,
        wrapper: ThreadSafeDenseFile,
        primary: JournaledDenseFile,
        replica: Replica,
        pair: Failover,
        primary_path: str,
        replica_path: str,
    ) -> None:
        self.wrapper = wrapper
        self.primary = primary
        self.replica = replica
        self.pair = pair
        self.primary_path = primary_path
        self.replica_path = replica_path


def run_soak(config: SoakConfig) -> SoakReport:
    """Drive the pair for ``config.seconds``; see the module docstring."""
    rng = random.Random(config.seed)
    os.makedirs(config.workdir, exist_ok=True)
    report = SoakReport(
        seconds=config.seconds, seed=config.seed, transport=config.transport
    )
    report_lock = threading.Lock()

    path_a = os.path.join(config.workdir, "node-a.dsf")
    path_b = os.path.join(config.workdir, "node-b.dsf")
    epoch = 0

    def make_transport() -> Any:
        if config.transport == "directory":
            return DirectoryTransport(
                os.path.join(config.workdir, f"ship-{epoch}")
            )
        return QueueTransport()

    plan = FaultPlan(seed=config.seed)
    primary = JournaledDenseFile.create(
        path_a,
        num_pages=config.num_pages,
        d=config.d,
        D=config.D,
        overwrite=True,
        injector=plan,
    )
    capacity = config.num_pages * config.d
    target_size = capacity // 2
    model = set(rng.sample(range(config.key_space), target_size))
    primary.insert_many(sorted(model))
    replica = bootstrap_replica(
        primary, path_b, op_timeout=config.op_timeout
    )
    pair = Failover(primary, replica, make_transport())
    wrapper = ThreadSafeDenseFile(
        primary,
        max_in_flight=config.max_in_flight,
        default_timeout=config.op_timeout,
    )
    live = _Live(wrapper, primary, replica, pair, path_a, path_b)

    stop = threading.Event()

    def primary_reader(index: int) -> None:
        reader_rng = random.Random(config.seed * 7919 + index)
        while not stop.is_set():
            current = live
            key = reader_rng.randrange(config.key_space)
            begin = time.perf_counter()
            try:
                current.wrapper.search(key, timeout=config.op_timeout)
            except OperationTimeout:  # lint: allow[errors] -- counted, soak continues
                with report_lock:
                    report.timeouts += 1
                continue
            except OverloadError:
                with report_lock:
                    report.overloads += 1
                continue
            except (ReproError, OSError, ValueError):
                # The primary died under us mid-failover; the next
                # iteration picks up the promoted one.
                with report_lock:
                    report.reader_races += 1
                continue
            with report_lock:
                report.primary_reads += 1
                report.read_latencies.append(time.perf_counter() - begin)

    def replica_reader(index: int) -> None:
        while not stop.is_set():
            current = live
            begin = time.perf_counter()
            try:
                sequence, records = current.replica.snapshot(
                    timeout=config.op_timeout
                )
            except OperationTimeout:  # lint: allow[errors] -- counted, soak continues
                with report_lock:
                    report.timeouts += 1
                continue
            except (ReproError, OSError, ValueError):
                # Retired (promoted) or mid-swap replica; pick up the
                # fresh one next iteration.
                with report_lock:
                    report.reader_races += 1
                continue
            elapsed = time.perf_counter() - begin
            finding = current.pair.check_snapshot(sequence, records)
            with report_lock:
                report.replica_reads += 1
                report.replica_latencies.append(elapsed)
                report.consistency_checks += 1
                if finding is not None:
                    report.findings.append(finding)

    threads = [
        threading.Thread(
            target=primary_reader, args=(index,), daemon=True
        )
        for index in range(config.primary_readers)
    ] + [
        threading.Thread(
            target=replica_reader, args=(index,), daemon=True
        )
        for index in range(config.replica_readers)
    ]
    for thread in threads:
        thread.start()

    def harvest(old_pair: Failover) -> None:
        with report_lock:
            report.records_shipped += old_pair.shipper.shipped
            report.records_applied += old_pair.replica.records_applied

    def failover() -> None:
        """The dead primary's wake: scrub it, promote, re-seed, swap."""
        nonlocal plan, model, epoch, live, corruption_state
        epoch += 1
        dead_path = live.primary_path
        survivor_path = live.replica_path
        try:
            live.primary._raw.close()
        except (OSError, ReproError):
            pass  # the handle may already be unusable post-crash
        harvest(live.pair)
        scrub_report = scrub(dead_path)
        with report_lock:
            report.pages_healed += len(scrub_report.repaired) + len(
                scrub_report.healed
            )
            if not scrub_report.healthy:
                report.findings.append(
                    f"scrub of crashed primary {dead_path} (epoch "
                    f"{epoch}) did not come back healthy: "
                    f"quarantined {list(scrub_report.quarantined)}, "
                    f"invariants {list(scrub_report.invariant_errors)}"
                )
        plan = FaultPlan(seed=config.seed + 1000 * epoch)
        result = live.pair.promote_after_crash(injector=plan)
        if result.finding is not None:
            with report_lock:
                report.findings.append(result.finding)
        promoted = result.promoted
        model = {
            record.key for record in promoted.engine.pagefile.iter_all()
        }
        for suffix in ("", ".journal", ".journal.applied"):
            stale = dead_path + suffix
            if os.path.exists(stale):
                os.unlink(stale)
        new_replica = bootstrap_replica(
            promoted, dead_path, op_timeout=config.op_timeout
        )
        new_pair = Failover(promoted, new_replica, make_transport())
        new_wrapper = ThreadSafeDenseFile(
            promoted,
            max_in_flight=config.max_in_flight,
            default_timeout=config.op_timeout,
        )
        live = _Live(
            new_wrapper, promoted, new_replica, new_pair,
            survivor_path, dead_path,
        )
        corruption_state = "idle"
        with report_lock:
            report.failovers += 1

    def one_write() -> None:
        """One seeded mutation through the admission/deadline pipeline."""
        grow = len(model) < target_size or (
            len(model) < capacity - config.D and rng.random() < 0.5
        )
        begin = time.perf_counter()
        if grow:
            key = rng.randrange(config.key_space)
            while key in model:
                key = rng.randrange(config.key_space)
            live.wrapper.insert(key, f"v{key}", timeout=config.op_timeout)
            model.add(key)
        else:
            key = rng.choice(sorted(model))
            live.wrapper.delete(key, timeout=config.op_timeout)
            model.discard(key)
        with report_lock:
            report.primary_writes += 1
            report.write_latencies.append(time.perf_counter() - begin)

    started = time.monotonic()
    horizon = started + config.seconds
    ops = 0
    ops_since_crash = 0
    ops_since_corrupt = 0
    corruption_state = "idle"  # idle -> armed -> fatal -> (failover) idle
    try:
        while time.monotonic() < horizon:
            ops += 1
            ops_since_crash += 1
            ops_since_corrupt += 1
            torn_before = plan.torn_writes + plan.bitflips
            is_write = rng.random() >= config.read_fraction
            try:
                if is_write:
                    one_write()
                else:
                    begin = time.perf_counter()
                    live.wrapper.search(
                        rng.randrange(config.key_space),
                        timeout=config.op_timeout,
                    )
                    with report_lock:
                        report.primary_reads += 1
                        report.read_latencies.append(
                            time.perf_counter() - begin
                        )
            except SimulatedCrash:
                failover()
                # Only the crash countdown resets: the corruption
                # clock keeps accumulating across failovers, so both
                # hazard kinds fire even when crashes are the more
                # frequent of the two.
                ops_since_crash = 0
                continue
            except OperationTimeout:  # lint: allow[errors] -- counted, soak continues
                with report_lock:
                    report.timeouts += 1
            except OverloadError:
                with report_lock:
                    report.overloads += 1

            if corruption_state == "armed" and (
                plan.torn_writes + plan.bitflips > torn_before
            ):
                # The tear/flip landed inside the last applied
                # transaction; crash the very next write so recovery
                # must heal it from the retained applied image.
                plan.arm(0)
                corruption_state = "fatal"
            elif (
                corruption_state == "idle"
                and ops_since_corrupt >= config.corrupt_every
            ):
                if rng.random() < 0.5:
                    plan.torn_write_at = plan.physical_writes
                else:
                    plan.bitflip_at = plan.physical_writes
                corruption_state = "armed"
                ops_since_corrupt = 0
                with report_lock:
                    report.corruption_rounds += 1
            elif (
                corruption_state == "idle"
                and ops_since_crash >= config.crash_every
            ):
                plan.arm(rng.randrange(0, 30))
                ops_since_crash = 0
                with report_lock:
                    report.crash_rounds += 1

            if ops % config.sync_every == 0:
                live.pair.sync(timeout=config.op_timeout)
                with report_lock:
                    report.lag_samples.append(live.pair.lag())

        # A corruption round may still be mid-flight when the clock
        # runs out; drive it to its crash so the heal path completes
        # and no torn page survives the run.
        if corruption_state != "idle":
            for _ in range(200):
                try:
                    one_write()
                except SimulatedCrash:
                    failover()
                    break
                except (OperationTimeout, OverloadError):  # lint: allow[errors] -- drain loop, counted elsewhere
                    continue
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

    # Final barrier: ship and apply everything, then the replica must
    # be byte-for-byte the primary's committed state (lag zero).
    drain = live.pair.final_drain(timeout=config.op_timeout)
    report.lag_samples.append(drain.lag)
    report.findings.extend(drain.findings)
    if {key for key, _ in drain.records} != model:
        report.findings.append(
            "final replica key set diverges from the workload model"
        )
    try:
        live.primary.validate()
    except ReproError as error:
        report.findings.append(
            f"final primary validation failed: {error}"
        )
    harvest(live.pair)
    report.elapsed_s = time.monotonic() - started
    live.replica.close()
    live.wrapper.close()
    return report


# ----------------------------------------------------------------------
# replica-reads schedule: writers on the primary, readers on the replica
# ----------------------------------------------------------------------


@dataclass
class ReplicaStressConfig:
    """A replica-reads torture run: writers on node A, readers on B."""

    path: Optional[str] = None
    threads: int = 2
    readers: int = 2
    total_ops: int = 120
    seed: int = 0
    insert_ratio: float = 0.7
    key_space: int = 10_000
    op_timeout: Optional[float] = 30.0
    sync_interval: float = 0.002

    def __post_init__(self) -> None:
        if self.threads < 1 or self.readers < 1:
            raise ConfigurationError(
                "replica stress needs at least one writer and one reader"
            )


@dataclass
class ReplicaStressReport:
    """What one replica-reads run observed."""

    seed: int = 0
    writers: int = 0
    readers: int = 0
    writes_applied: int = 0
    snapshots_checked: int = 0
    records_shipped: int = 0
    records_applied: int = 0
    final_sequence: int = 0
    final_lag: int = 0
    timeouts: int = 0
    violations: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Every snapshot was a committed prefix and lag drained to 0."""
        return not self.violations

    def summary(self) -> str:
        """Human-readable verdict with shipping and snapshot counters."""
        verdict = "CLEAN" if self.ok else "FAILED"
        lines = [
            f"replica-stress seed={self.seed} writers={self.writers} "
            f"readers={self.readers}: {verdict} — "
            f"{self.writes_applied} writes, {self.snapshots_checked} "
            f"prefix-consistent snapshots, shipped="
            f"{self.records_shipped} applied={self.records_applied}, "
            f"final LSN {self.final_sequence} (lag {self.final_lag}), "
            f"{self.elapsed:.2f}s",
        ]
        if self.timeouts:
            lines.append(f"  timeouts={self.timeouts}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def run_replica_stress(config: ReplicaStressConfig) -> ReplicaStressReport:
    """Seeded writer batches on the primary, readers on the replica.

    The batch runner drives ``config.threads`` key-disjoint seeded
    insert/delete streams through a
    :class:`~repro.concurrent.ThreadSafeDenseFile` over a journaled
    primary and checks them against the oracle, so a lost or phantom
    write is a violation.  Alongside, an applier thread drains the WAL
    shipper into the replica and reader threads check every
    :meth:`Replica.snapshot` with :meth:`Failover.check_snapshot`; a
    failed :meth:`Failover.final_drain` is a violation too.
    """
    if config.path is None:
        raise ConfigurationError("replica stress needs a path")
    report = ReplicaStressReport(
        seed=config.seed, writers=config.threads, readers=config.readers
    )
    num_pages, d, D = stress_geometry(config.total_ops)
    primary = JournaledDenseFile.create(
        config.path, num_pages=num_pages, d=d, D=D, overwrite=True
    )
    shared = ThreadSafeDenseFile(primary)
    replica = bootstrap_replica(primary, config.path + ".replica")
    pair = Failover(primary, replica, QueueTransport())
    # Writes only (the replica readers are the reads); every batch may
    # race all writers.
    schedule = build_schedule(
        config.seed, config.threads, config.total_ops, config.threads,
        insert_ratio=config.insert_ratio, key_space=config.key_space,
        read_fraction=0.0,
    )
    stop = threading.Event()
    failures: "queue.Queue[str]" = queue.Queue()
    counters_lock = threading.Lock()

    def applier() -> None:
        while not stop.is_set():
            try:
                pair.sync(timeout=config.op_timeout)
            except ReproError as error:
                failures.put(f"applier: {type(error).__name__}: {error}")
                return
            stop.wait(config.sync_interval)

    def reader() -> None:
        while not stop.is_set():
            try:
                sequence, records = replica.snapshot(
                    timeout=config.op_timeout
                )
            except OperationTimeout:  # lint: allow[errors] -- counted, run continues
                with counters_lock:
                    report.timeouts += 1
                continue
            except ReproError as error:
                failures.put(f"reader: {type(error).__name__}: {error}")
                return
            finding = pair.check_snapshot(sequence, records)
            if finding is not None:
                failures.put(finding)
                return
            with counters_lock:
                report.snapshots_checked += 1

    helpers = [threading.Thread(target=applier, daemon=True)] + [
        threading.Thread(target=reader, daemon=True)
        for _ in range(config.readers)
    ]
    start = time.monotonic()
    for thread in helpers:
        thread.start()
    try:
        run = run_batches(
            schedule, config.threads,
            file_issuer(shared, config.op_timeout),
            file_audit(shared, config.key_space),
        )
    finally:
        stop.set()
        for thread in helpers:
            thread.join(timeout=30.0)
        report.elapsed = time.monotonic() - start
    report.writes_applied = run.outcomes.get("ok", 0)
    report.timeouts += run.outcomes.get("timeout", 0)
    report.violations.extend(run.violations)
    if run.hang is not None:
        report.violations.append(run.hang)
    while not failures.empty():
        report.violations.append(failures.get())

    if not report.violations:
        drain = pair.final_drain(timeout=config.op_timeout)
        report.final_lag = drain.lag
        report.violations.extend(drain.findings)
    report.final_sequence = replica.applied_sequence
    report.records_shipped = pair.shipper.shipped
    report.records_applied = replica.records_applied
    replica.close()
    shared.inner.close()
    return report
