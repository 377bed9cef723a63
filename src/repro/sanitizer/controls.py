"""Negative controls: the sanitizer proves its own teeth, deterministically.

The torture harness's original negative controls rely on *provoking*
a bad interleaving (a yielding store widens race windows; a barrier
forces an ABBA meet).  The sanitizer's controls are stronger: lockset
refinement and the lock-order graph are functions of the *set* of
events each thread produced, not of their interleaving, so the planted
bugs below are detected even when the scheduler happens to serialize
the threads completely.  Each control runs its threads strictly one
after the other — one operation per batch of the harness's batch
runner, the worst case for a dynamic race detector — and must still
produce a finding under any fixed seed.

:func:`sanitize_self_test` packages the controls with a sanitized
clean run (which must report exactly zero findings) into one verdict
for ``repro stress --sanitize --self-test`` and the CI
``sanitize-smoke`` job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..concurrent.file import ThreadSafeDenseFile
from ..concurrent.harness import (
    ClientOp,
    StressConfig,
    StressReport,
    file_issuer,
    run_batches,
    run_stress,
    stress_geometry,
)
from ..core.dense_file import DenseSequentialFile
from ..storage.backend import MemoryStore
from .instrument import SanitizedRWLock, SanitizedStore
from .runtime import RaceReport, SanitizerRuntime


def planted_unlocked_write(seed: int = 0) -> RaceReport:
    """Two threads mutate the same pages with no lock at all.

    The threads run *sequentially* (one operation per batch of the
    :func:`~repro.concurrent.harness.run_batches` runner), so the
    structure itself never corrupts and the runner's outcome checks see
    nothing wrong — yet the second thread's writes arrive with an empty
    lockset and no happens-before edge to the first thread's, which is
    the definition of a data race waiting for an unlucky schedule.  The report must contain an
    ``unlocked-access`` finding for any seed.
    """
    runtime = SanitizerRuntime()
    num_pages, d, D = stress_geometry(64)
    store = SanitizedStore(MemoryStore(num_pages), runtime)
    dense = DenseSequentialFile(num_pages, d, D, store=store)
    unlocked = ThreadSafeDenseFile(dense, bypass_lock=True)
    keys = random.Random(seed).sample(range(1000), 32)
    # One operation per batch: thread 0 inserts every key, then thread
    # 1 deletes every other one.  Deleting keys the first thread
    # inserted guarantees a write to a page the first thread wrote — a
    # conflicting pair on the same resource for *every* seed, not just
    # lucky key layouts.
    schedule = [[ClientOp("insert", key, 0, 0)] for key in keys] + [
        [ClientOp("delete", key, 0, 1)] for key in keys[::2]
    ]
    run_batches(schedule, 2, file_issuer(unlocked, None), lambda oracle: None)
    return runtime.report()


def planted_abba(seed: int = 0) -> RaceReport:
    """Two locks acquired in opposite orders by two threads.

    No meeting point, no timing: the first client takes A then B and
    exits, then the second takes B then A.  Nothing blocks, nothing times
    out — but the acquisition-order graph now contains A→B and B→A,
    and :meth:`~repro.sanitizer.runtime.SanitizerRuntime.report` must
    surface the ``lock-order-cycle``.  (``seed`` only varies the lock
    hold pattern; detection is schedule-independent.)
    """
    runtime = SanitizerRuntime()
    lock_a = SanitizedRWLock(runtime, label="lock-a")
    lock_b = SanitizedRWLock(runtime, label="lock-b")
    orders = ((lock_a, lock_b), (lock_b, lock_a))
    repeats = 1 + random.Random(seed).randrange(3)

    def issue(op: ClientOp) -> tuple:
        first, second = orders[op.thread]
        for _ in range(repeats):
            with first.write_locked():
                # lint: allow[lock-order] -- deliberate ABBA for the negative control
                with second.write_locked():
                    pass
        return ("miss",)  # an empty lookup, to the oracle

    schedule = [[ClientOp("search", -1, 0, tid)] for tid in range(2)]
    run_batches(schedule, 2, issue, lambda oracle: None)
    return runtime.report()


@dataclass
class SanitizeSelfTestReport:
    """Outcome of the sanitized clean run plus both planted controls."""

    clean: StressReport
    unlocked_write_detected: bool
    abba_detected: bool

    @property
    def ok(self) -> bool:
        return (
            self.clean.ok
            and self.unlocked_write_detected
            and self.abba_detected
        )

    def summary(self) -> str:
        """One line per control, each with its own ok/FAILED mark."""

        def mark(value: bool) -> str:
            return "ok" if value else "FAILED"

        return "\n".join([
            self.clean.summary(),
            f"negative control (planted unlocked write): "
            f"{mark(self.unlocked_write_detected)} — "
            f"empty-lockset access reported",
            f"negative control (planted ABBA acquisition): "
            f"{mark(self.abba_detected)} — lock-order cycle reported",
        ])


def sanitize_self_test(
    seed: int = 0, total_ops: int = 120
) -> SanitizeSelfTestReport:
    """A sanitized clean run (zero findings) plus both planted bugs."""
    clean = run_stress(
        StressConfig(seed=seed, total_ops=total_ops, sanitize=True)
    )
    unlocked = planted_unlocked_write(seed)
    abba = planted_abba(seed)
    return SanitizeSelfTestReport(
        clean=clean,
        unlocked_write_detected=any(
            finding.kind == "unlocked-access" for finding in unlocked.findings
        ),
        abba_detected=any(
            finding.kind == "lock-order-cycle" for finding in abba.findings
        ),
    )
