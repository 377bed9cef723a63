"""Hardened concurrency front-end for dense files.

This package replaces the old single-RLock ``repro.concurrent`` module
(imports stay compatible: ``from repro.concurrent import
ThreadSafeDenseFile``) with a worst-case-minded concurrency stack:

:class:`~repro.concurrent.file.ThreadSafeDenseFile`
    The front-end: fair reader-writer locking (queries share, updates
    are single-writer), optional bounded admission, and per-operation
    ``timeout=`` / ``deadline=`` budgets honoured by every layer down
    to storage retry backoff.
:class:`~repro.concurrent.rwlock.FairRWLock`
    FIFO-fair shared/exclusive lock with deadline-aware acquisition.
:class:`~repro.concurrent.admission.AdmissionGate`
    Bounded in-flight gate: fail fast with
    :class:`~repro.core.errors.OverloadError` instead of queueing
    without bound; ``shed_load`` rejects writes first and keeps
    serving reads.
:class:`~repro.concurrent.deadline.Deadline`
    The monotonic time budget threaded through one operation.
:class:`~repro.concurrent.retry.RetryPolicy`
    The shared capped-backoff-with-seeded-jitter retry shape used by
    storage retries and cluster network retries alike.
:mod:`repro.concurrent.harness`
    The deterministic interleaving torture harness and its batch
    runner, the one batch loop behind ``repro stress``, ``repro
    chaos`` and ``repro stress --replica-reads``.
"""

from .admission import AdmissionGate
from .deadline import Deadline
from .file import ThreadSafeDenseFile, find_retrying_stores, reads_are_shareable
from .retry import RetryCounters, RetryPolicy, retry_call
from .rwlock import FairRWLock

__all__ = [
    "AdmissionGate",
    "Deadline",
    "FairRWLock",
    "RetryCounters",
    "RetryPolicy",
    "ThreadSafeDenseFile",
    "find_retrying_stores",
    "reads_are_shareable",
    "retry_call",
]
