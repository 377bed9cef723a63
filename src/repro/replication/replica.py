"""Replica: replays shipped transaction records onto its own store.

A replica owns a full copy of the primary's file, opened once as a
:class:`~repro.persistent.PersistentDenseFile`, plus its own journal.
Each shipped record goes through the primary's own
:meth:`~repro.storage.wal.TransactionJournal.commit` under the
*primary's* sequence number, and a reopened replica runs the same
:func:`~repro.storage.wal.recover_file` — so a replica crash recovers
exactly like a primary crash.  The apply then re-reads just the
record's pages into the open file
(:meth:`~repro.persistent.PersistentDenseFile.reload_pages`), all under
the write lock of a :class:`~repro.concurrent.FairRWLock`, so reads
take only the read lock, and every read — and every
:meth:`Replica.snapshot` — sees the primary's state at some committed
sequence, never a mid-transaction mixture.  An apply that raises
part-way leaves the in-core state untrusted: reads and applies then
raise :class:`~repro.core.errors.ReplicationError` until the replica
is reopened or promoted.

:meth:`Replica.promote` turns the replica into a writable primary: it
runs the standard journal recovery (discard a torn tail, replay to the
last durable commit) via :meth:`JournaledDenseFile.open` and retires
this object — further reads raise
:class:`~repro.core.errors.StaleReplicaError`, because the promoted
primary now owns the pages and a stale handle could observe its
mid-commit states.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..concurrent import Deadline, FairRWLock
from ..core.errors import ReplicationError, StaleReplicaError
from ..persistent import JournaledDenseFile, PersistentDenseFile
from ..records import Record
from ..storage.wal import TransactionJournal, TransactionRecord, recover_file


class Replica:
    """A warm standby applying shipped records, readable at any prefix."""

    def __init__(
        self,
        path: str,
        op_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = path
        self.op_timeout = op_timeout
        self._clock = clock
        self._lock = FairRWLock(clock=clock)
        # Crash recovery: a committed journal left by a replica that
        # died mid-apply is replayed (idempotent redo), a torn one is
        # discarded — identical to primary recovery.
        recover_file(path)
        self.journal = TransactionJournal.beside(path)
        self._file: Optional[PersistentDenseFile] = PersistentDenseFile.open(path)
        self._promoted = False
        #: Why an apply raised part-way (then nothing is served).
        self._failure: Optional[str] = None
        #: Shipped records applied by this object (duplicates excluded).
        self.records_applied = 0
        #: Already-applied records skipped idempotently.
        self.duplicates_skipped = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def applied_sequence(self) -> int:
        """LSN of the last transaction applied to this replica."""
        return self.journal.sequence

    def lag(self, primary_sequence: int) -> int:
        """Committed primary transactions this replica has not applied."""
        return max(0, primary_sequence - self.applied_sequence)

    def _budget(
        self, timeout: Optional[float], deadline: Optional[Deadline]
    ) -> Deadline:
        return Deadline.resolve(
            timeout, deadline, self.op_timeout, self._clock
        )

    def _serving(self, trusted: bool = True) -> PersistentDenseFile:
        """The open file; raises once promoted or closed, and with
        ``trusted`` after a failed apply."""
        if self._promoted:
            raise StaleReplicaError(
                f"replica {self.path} was promoted; this handle is "
                "retired — read from the promoted primary instead"
            )
        if self._file is None:
            raise ReplicationError(f"replica {self.path} is closed")
        if trusted and self._failure is not None:
            raise ReplicationError(
                f"replica {self.path} stopped serving after a failed "
                f"apply ({self._failure}); reopen or promote it"
            )
        return self._file

    # ------------------------------------------------------------------
    # applying shipped records
    # ------------------------------------------------------------------

    def apply(
        self,
        record: TransactionRecord,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> bool:
        """Apply one shipped record; False for an idempotent duplicate.

        Records must arrive in sequence order: a gap means the
        transport lost records, and patching over it would silently
        fork the replica from the primary's history — that raises
        :class:`~repro.core.errors.StaleReplicaError` (re-seed the
        replica from a fresh copy).
        """
        budget = self._budget(timeout, deadline)
        return self._apply_run([record], budget) == 1

    def catch_up(
        self,
        transport: Any,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        batch: int = 64,
    ) -> int:
        """Poll and apply every available record; returns applies done."""
        budget = self._budget(timeout, deadline)
        applied = 0
        while True:
            records = transport.poll(self.applied_sequence, limit=batch)
            if not records:
                return applied
            applied += self._apply_run(records, budget)
            transport.ack(self.applied_sequence)
            budget.check("replica catch-up")

    def _apply_run(
        self, records: Sequence[TransactionRecord], budget: Deadline
    ) -> int:
        """Commit each record in turn, then re-read their pages once.

        One write-lock hold; returns the records applied.  Duplicates
        are skipped; a gap raises after the records before it apply.
        """
        with self._lock.write_locked(budget):
            opened = self._serving()
            expected = self.journal.sequence + 1
            run: List[TransactionRecord] = []
            gap: Optional[TransactionRecord] = None
            for record in records:
                if record.sequence < expected:
                    self.duplicates_skipped += 1
                elif record.sequence > expected:
                    gap = record
                    break
                else:
                    run.append(record)
                    expected += 1
            try:
                for record in run:
                    self.journal.commit(
                        opened._raw, record.pages, sequence=record.sequence
                    )
                opened.reload_pages(
                    {page for record in run for page in record.pages}
                )
            except BaseException as exc:
                self._failure = f"{type(exc).__name__}: {exc}"
                raise
            self.records_applied += len(run)
            if gap is not None:
                raise StaleReplicaError(
                    f"replica {self.path} is at sequence {expected - 1} "
                    f"but record {gap.sequence} arrived — records "
                    f"{expected}..{gap.sequence - 1} were lost in "
                    "transport; re-seed the replica"
                )
            return len(run)

    # ------------------------------------------------------------------
    # reading (prefix-consistent snapshots)
    # ------------------------------------------------------------------

    def _read(self, budget: Deadline, reader: Callable[..., Any]) -> Any:
        """Run ``reader(open file)`` under the read lock."""
        with self._lock.read_locked(budget):
            return reader(self._serving())

    def snapshot(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[int, Tuple[Tuple[Any, Any], ...]]:
        """``(applied_sequence, records)`` as one atomic observation.

        The pair is taken under a single read-lock hold, so the record
        stream is exactly the primary's committed state at that
        sequence — the property the replica-reads stress schedule
        checks against the primary-side digest recorder.
        """
        budget = self._budget(timeout, deadline)

        def _records(opened: PersistentDenseFile) -> Tuple[int, Tuple]:
            records = tuple(
                (record.key, record.value)
                for record in opened.engine.pagefile.iter_all()
            )
            return (self.journal.sequence, records)

        return self._read(budget, _records)

    def search(
        self,
        key: Any,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Point lookup against the current prefix-consistent state."""
        budget = self._budget(timeout, deadline)
        return self._read(budget, lambda opened: opened.search(key))

    def scan(
        self,
        start_key: Any,
        count: int,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[Record]:
        """Ordered scan against the current prefix-consistent state."""
        budget = self._budget(timeout, deadline)
        return self._read(
            budget, lambda opened: opened.scan(start_key, count)
        )

    def __len__(self) -> int:
        budget = self._budget(None, None)
        return int(self._read(budget, len))

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def promote(
        self,
        injector: Any = None,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> JournaledDenseFile:
        """Recover and reopen this replica as a writable primary.

        Runs the standard journal recovery (discard a torn tail, replay
        to the last durable commit) and rebuilds the full engine state
        from disk — also after a failed apply.  This handle is retired:
        subsequent reads raise
        :class:`~repro.core.errors.StaleReplicaError`.
        """
        budget = self._budget(timeout, deadline)
        with self._lock.write_locked(budget):
            self._serving(trusted=False).close()
            self._file = None
            self._promoted = True
        return JournaledDenseFile.open(self.path, injector=injector)

    def close(self) -> None:
        """Release file handles (idempotent)."""
        budget = self._budget(None, None)
        with self._lock.write_locked(budget):
            if self._file is not None:
                self._file.close()
                self._file = None


def bootstrap_replica(
    primary: JournaledDenseFile,
    replica_path: str,
    op_timeout: float = 5.0,
    clock: Callable[[], float] = time.monotonic,
) -> Replica:
    """Seed a new replica from a full copy of ``primary``'s file.

    The primary must be quiescent for the copy: no uncommitted dirty
    pages (commit or roll back the open transaction first) and no
    concurrent writers until this returns.  The copied file already
    holds every page through the primary's durable sequence, so journal
    files an earlier occupant left at ``replica_path`` are discarded,
    the replica's journal is stamped with that LSN and shipping resumes
    from there.
    """
    if primary._dirty:
        raise ReplicationError(
            "cannot bootstrap a replica from a primary with an "
            "uncommitted transaction; commit or close the group first"
        )
    primary._raw.flush()
    shutil.copyfile(primary.path, replica_path)
    journal = TransactionJournal.beside(replica_path)
    journal.discard()
    journal.stamp_applied(primary.durable_sequence)
    return Replica(replica_path, op_timeout=op_timeout, clock=clock)
