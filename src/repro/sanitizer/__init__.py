"""Dynamic concurrency sanitizer: lockset + happens-before + lock order.

The static lint rules (LNT001–LNT008) prove properties of the *code*;
this package proves properties of a *run*.  Sanitize mode rebuilds the
stack with instrumented wrappers — :class:`SanitizedStore` over the
metered :class:`~repro.storage.backend.PageStore` seam,
:class:`SanitizedRWLock` over the front-end's
:class:`~repro.concurrent.rwlock.FairRWLock` — feeding a passive
:class:`SanitizerRuntime` that runs an Eraser-style lockset state
machine, FastTrack-style vector-clock happens-before checks, and a
lock-acquisition-order graph.  Verdicts are deterministic under the
torture harness's seeded schedules because every detector depends only
on the per-thread event sets, never on the interleaving the OS chose.

Entry points: ``repro stress --sanitize`` runs the torture harness
sanitized; ``repro stress --sanitize --self-test`` runs
:func:`sanitize_self_test` instead, the planted negative controls plus
one sanitized clean run.  With
the sanitizer off, none of these classes is instantiated — the plain
stack runs unmodified, so the off-mode overhead is zero by
construction (see ``benchmarks/test_sanitizer_overhead.py``).
"""

from .controls import (
    SanitizeSelfTestReport,
    planted_abba,
    planted_unlocked_write,
    sanitize_self_test,
)
from .instrument import SanitizedRWLock, SanitizedStore
from .runtime import READ, WRITE, RaceFinding, RaceReport, SanitizerRuntime
from .vectorclock import VectorClock

__all__ = [
    "READ",
    "WRITE",
    "RaceFinding",
    "RaceReport",
    "SanitizeSelfTestReport",
    "SanitizedRWLock",
    "SanitizedStore",
    "SanitizerRuntime",
    "VectorClock",
    "planted_abba",
    "planted_unlocked_write",
    "sanitize_self_test",
]
