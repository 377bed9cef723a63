"""Transaction journal: crash atomicity for multi-page commands.

A single CONTROL 2 command touches several pages (the insert page plus
up to ``J`` SHIFT moves).  Plain write-through persists those pages one
at a time, so a crash *between* the two page writes of one SHIFT could
lose the records in flight.  This module closes that hole with a
classic redo journal:

1. the command runs against memory, collecting the dirty page set;
2. the new images of every dirty page are appended to a side journal
   file, followed by a checksummed **commit marker**, and fsynced;
3. only then are the pages applied to the main store, the store is
   fsynced, and the journal retired.

On open, a journal with a valid commit marker is replayed (redo is
idempotent); a journal without one is discarded — the main file was
never touched by that transaction, so it still holds the consistent
pre-command state.  Either way the reopened file shows exactly the
state before or after each command, never in between.

This module is the protocol's only owner: :meth:`TransactionJournal.commit`
runs steps 2–3 and :meth:`TransactionJournal.redo` / :func:`recover_file`
the recovery, for the journaled file, the replica and ``scrub`` alike.

Version 2 of the on-disk format (magic ``DSJ2``) prepends a 64-bit
**sequence number** (LSN) to the record: transaction ``N`` carries
sequence ``N``, so the journal doubles as a replication log.  Two
things build on that:

* **Tailing** — :meth:`TransactionJournal.subscribe` registers a
  callback that receives each committed :class:`TransactionRecord`
  immediately after its fsync (and before the main-store apply), which
  is what :class:`~repro.replication.JournalShipper` uses to stream
  commits to a replica.  A record that reaches a subscriber is durable;
  a crash before the fsync reaches neither the disk nor the
  subscribers.
* **Applied retention** — after the main store is updated the journal
  is :meth:`mark_applied`-renamed to ``<path>.applied`` instead of
  unlinked.  The rename keeps the clean-shutdown contract (no
  ``.journal`` file after a clean command) while preserving the durable
  sequence across restarts *and* the last transaction's page images as
  a heal source for :func:`~repro.storage.scrub.scrub` (a torn apply
  write can be repaired even though the transaction committed).

Version 1 files (``DSJ1``, no sequence header) are still read; they
report sequence 0.

:class:`~repro.storage.faults.FaultInjector` lets the test suite crash the process at *every* physical write of a command and
assert that recovery lands on one of the two legal states.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from .ondisk import DiskPagedStore, StorageError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .faults import FaultInjector

JOURNAL_MAGIC = b"DSJ2"
JOURNAL_MAGIC_V1 = b"DSJ1"
SEQUENCE = struct.Struct("<Q")  # the record's log sequence number
ENTRY = struct.Struct("<III")  # page, payload length, crc32
COMMIT = struct.Struct("<4sII")  # marker, entry count, crc of entry crcs
COMMIT_MARKER = b"CMT1"

#: Suffix of the retained (applied) journal image beside the main file.
APPLIED_SUFFIX = ".applied"


@dataclass(frozen=True)
class TransactionRecord:
    """One committed transaction: its sequence number and page images.

    The unit that travels over a replication transport.  ``encode()``
    produces exactly the bytes a v2 journal file holds for this
    transaction, so a shipped record and the primary's own journal are
    byte-identical and verified by the same CRCs.
    """

    sequence: int
    pages: Dict[int, bytes]

    def encode(self) -> bytes:
        """The record as a self-delimiting, checksummed byte frame."""
        parts: List[bytes] = [JOURNAL_MAGIC, SEQUENCE.pack(self.sequence)]
        crcs: List[int] = []
        for page, payload in sorted(self.pages.items()):
            crc = zlib.crc32(payload)
            crcs.append(crc)
            parts.append(ENTRY.pack(page, len(payload), crc))
            parts.append(payload)
        trailer = zlib.crc32(
            b"".join(struct.pack("<I", crc) for crc in crcs)
        )
        parts.append(COMMIT.pack(COMMIT_MARKER, len(self.pages), trailer))
        return b"".join(parts)

    @classmethod
    def decode(cls, raw: bytes) -> "TransactionRecord":
        """Parse a frame produced by :meth:`encode`.

        Raises :class:`~repro.storage.ondisk.StorageError` when the
        frame is torn or fails any checksum — a transport must surface
        that loudly rather than replay garbage.
        """
        sequence, pages = _parse(raw)
        if pages is None:
            raise StorageError(
                "torn or corrupt transaction record frame "
                f"({len(raw)} bytes, sequence header {sequence})"
            )
        return cls(sequence, pages)


@dataclass(frozen=True)
class JournalState:
    """What the journal files beside a store currently say.

    ``durable_sequence`` is the LSN of the last transaction known to
    have committed (0 when none has).  ``pending`` means a committed
    journal awaits replay (the process died between the journal fsync
    and the main-store apply); ``torn`` means an uncommitted journal
    tail exists and will be discarded by recovery; ``applied_retained``
    means the last applied transaction's images are still on disk as a
    heal source.
    """

    durable_sequence: int
    pending: bool
    torn: bool
    applied_retained: bool

    @property
    def clean(self) -> bool:
        """No recovery work is outstanding."""
        return not self.pending and not self.torn

    def describe(self) -> str:
        """One CLI-ready line: durable LSN plus any outstanding replay."""
        parts = [f"durable LSN {self.durable_sequence}"]
        if self.pending:
            parts.append("committed transaction pending replay")
        if self.torn:
            parts.append("torn (uncommitted) journal to discard")
        if self.clean:
            parts.append(
                "applied image retained"
                if self.applied_retained
                else "no replay pending"
            )
        return ", ".join(parts)


def journal_state(path: str) -> JournalState:
    """The :class:`JournalState` for the main store file at ``path``."""
    return TransactionJournal.beside(path).state()


def recover_file(path: str) -> Optional[Dict[int, bytes]]:
    """:meth:`TransactionJournal.redo` for the closed main file at
    ``path``, opened only when a journal is pending."""
    journal = TransactionJournal.beside(path)
    if not journal.exists():
        return None
    with DiskPagedStore.open(path) as raw:
        return journal.redo(raw)


def _apply(raw: DiskPagedStore, pages: Mapping[int, bytes]) -> None:
    """Write committed page images to their slots, then fsync the store."""
    for page, payload in sorted(pages.items()):
        raw.write_page_payload(page, payload)
    raw.flush()


def _parse(raw: bytes) -> Tuple[int, Optional[Dict[int, bytes]]]:
    """Parse journal bytes into ``(header sequence, committed pages)``.

    ``pages`` is ``None`` for a torn/uncommitted frame; the header
    sequence is still reported when readable (0 for v1 frames, whose
    format carried no sequence), so recovery can infer the durable LSN
    even from a torn tail.
    """
    if raw[:4] == JOURNAL_MAGIC:
        offset = 4 + SEQUENCE.size
        if len(raw) < offset:
            return 0, None
        sequence = SEQUENCE.unpack_from(raw, 4)[0]
    elif raw[:4] == JOURNAL_MAGIC_V1:
        offset, sequence = 4, 0
    else:
        return 0, None
    pages: Dict[int, bytes] = {}
    crcs: List[int] = []
    while True:
        remaining = len(raw) - offset
        if remaining >= COMMIT.size:
            marker, count, trailer_crc = COMMIT.unpack_from(raw, offset)
            if marker == COMMIT_MARKER and count == len(pages):
                expected = zlib.crc32(
                    b"".join(struct.pack("<I", crc) for crc in crcs)
                )
                if expected == trailer_crc:
                    return sequence, pages
        if remaining < ENTRY.size:
            return sequence, None  # torn: ran out before a valid commit
        page, length, crc = ENTRY.unpack_from(raw, offset)
        offset += ENTRY.size
        payload = raw[offset : offset + length]
        offset += length
        if len(payload) != length or zlib.crc32(payload) != crc:
            return sequence, None  # torn entry
        pages[page] = payload
        crcs.append(crc)


def _read_bytes(path: str) -> Optional[bytes]:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


class TransactionJournal:
    """Append-once redo journal (and replication log) beside the store."""

    LAYER = "storage.wal"
    COUNTERS = (
        "transactions", "pages_journaled", "bytes_journaled", "fsyncs",
        "sequence",
    )

    @classmethod
    def beside(cls, path: str) -> "TransactionJournal":
        """The journal of the main store file at ``path``."""
        return cls(path + ".journal")

    def __init__(self, path: str, injector: Optional[FaultInjector] = None):
        self.path = path
        self.injector = injector
        #: Committed transactions written since this object was made.
        self.transactions = 0
        #: Page images journaled across all transactions.
        self.pages_journaled = 0
        #: Journal payload bytes written (page images only).
        self.bytes_journaled = 0
        #: fsync calls issued (exactly one per committed transaction —
        #: the number group commit reduces by coalescing commands).
        self.fsyncs = 0
        #: Subscribers tailing committed records (fired post-fsync).
        self._subscribers: List[Callable[[TransactionRecord], None]] = []
        #: The durable log sequence number: the LSN of the last
        #: transaction known committed, recovered from the on-disk
        #: journal files at construction and advanced on every commit.
        self.sequence = self._recover_sequence()

    @property
    def applied_path(self) -> str:
        """Where :meth:`mark_applied` retains the last applied image."""
        return self.path + APPLIED_SUFFIX

    def _check(self) -> None:
        if self.injector is not None:
            self.injector.check()

    def _recover_sequence(self) -> int:
        """The durable LSN implied by the on-disk journal files.

        A committed pending journal proves its own sequence durable; a
        torn one proves only its predecessor (the writer assigns
        ``previous + 1``, so a torn header at ``N`` means ``N - 1``
        committed).  The retained applied image carries the LSN across
        clean restarts.
        """
        best = 0
        pending = _read_bytes(self.path)
        if pending is not None:
            sequence, pages = _parse(pending)
            best = sequence if pages is not None else max(0, sequence - 1)
        applied = _read_bytes(self.applied_path)
        if applied is not None:
            sequence, pages = _parse(applied)
            if pages is not None:
                best = max(best, sequence)
        return best

    # ------------------------------------------------------------------
    # tailing
    # ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[TransactionRecord], None]) -> None:
        """Tail the journal: ``callback(record)`` after every commit fsync.

        Callbacks run on the committing thread, after the record is
        durable and *before* the main store is touched — so a crash
        either reaches the disk and every subscriber, or neither.
        Callbacks must not raise; a shipper that can fail queues
        internally and retries on the next commit.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TransactionRecord], None]) -> None:
        """Remove a subscriber added by :meth:`subscribe` (idempotent)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def write_transaction(
        self,
        pages: Mapping[int, bytes],
        sequence: Optional[int] = None,
    ) -> int:
        """Persist one transaction's page images plus a commit marker.

        Assigns (and returns) the next sequence number; a replica
        replaying shipped records passes the primary's ``sequence``
        explicitly so both logs agree on the LSN.  The injector is
        consulted once per journal write (header, each entry, the
        commit marker, the fsync), so crash-point sweeps can land
        inside the journal as well as inside the main-store apply
        phase.
        """
        assigned = self.sequence + 1 if sequence is None else sequence
        self._check()
        crcs = []
        with open(self.path, "wb") as handle:
            handle.write(JOURNAL_MAGIC)
            handle.write(SEQUENCE.pack(assigned))
            for page, payload in sorted(pages.items()):
                self._check()
                crc = zlib.crc32(payload)
                crcs.append(crc)
                handle.write(ENTRY.pack(page, len(payload), crc))
                handle.write(payload)
            self._check()
            trailer_crc = zlib.crc32(
                b"".join(struct.pack("<I", crc) for crc in crcs)
            )
            handle.write(COMMIT.pack(COMMIT_MARKER, len(pages), trailer_crc))
            handle.flush()
            self._check()
            os.fsync(handle.fileno())
        self.sequence = assigned
        self.transactions += 1
        self.pages_journaled += len(pages)
        self.bytes_journaled += sum(len(payload) for payload in pages.values())
        self.fsyncs += 1
        if self._subscribers:
            record = TransactionRecord(assigned, dict(pages))
            for subscriber in tuple(self._subscribers):
                subscriber(record)
        return assigned

    def commit(
        self,
        raw: DiskPagedStore,
        pages: Mapping[int, bytes],
        sequence: Optional[int] = None,
    ) -> int:
        """Journal ``pages`` + fsync, write their slots + fsync, retire.

        A crash in between recovers to the pre-transaction state (no
        commit marker) or the post-transaction one (redo).  Returns
        the sequence :meth:`write_transaction` assigned.
        """
        assigned = self.write_transaction(pages, sequence)
        _apply(raw, pages)
        self.mark_applied()
        return assigned

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def redo(self, raw: DiskPagedStore) -> Optional[Dict[int, bytes]]:
        """Replay a committed journal onto ``raw`` and retire it, or
        discard a torn one; returns the replayed images, else ``None``.
        """
        committed = self.recover()
        if committed is not None:
            _apply(raw, committed)
            self.mark_applied()
        return committed

    def read_committed(self) -> Optional[Dict[int, bytes]]:
        """Return the page images of a committed journal, else ``None``.

        ``None`` means: no journal, or a torn/uncommitted one — in
        either case the main store holds the pre-command state and the
        journal may simply be discarded.
        """
        raw = _read_bytes(self.path)
        if raw is None:
            return None
        return _parse(raw)[1]

    def read_applied(self) -> Optional[Dict[int, bytes]]:
        """Page images of the retained applied journal, else ``None``.

        These pages are already on the main store (the transaction was
        applied before the rename), so rewriting them is idempotent —
        which is exactly what lets :func:`~repro.storage.scrub.scrub`
        heal a torn or bit-flipped apply write after the fact.
        """
        raw = _read_bytes(self.applied_path)
        if raw is None:
            return None
        return _parse(raw)[1]

    def recover(self) -> Optional[Dict[int, bytes]]:
        """Run recovery on the journal file itself.

        Returns the committed page images to replay (:meth:`redo`
        applies them to the main store, then calls :meth:`mark_applied`),
        or ``None`` when there is nothing to redo.  A torn journal is
        discarded here, preserving the durable sequence in a
        zero-entry applied stamp so the LSN survives the discard.
        """
        committed = self.read_committed()
        if committed is None and self.exists():
            os.unlink(self.path)
            self._stamp_sequence()
        return committed

    def stamp_applied(self, sequence: int) -> None:
        """Record ``sequence`` as durably applied without page images.

        Used when seeding a replica from a full copy of the primary:
        the copied file already holds every page through ``sequence``,
        so only the LSN needs to be made durable.  Never moves the
        sequence backwards.
        """
        if sequence > self.sequence:
            self.sequence = sequence
        self._stamp_sequence()

    def discard(self) -> None:
        """Delete the pending and applied journal (LSN 0): the main
        file no longer follows this journal's history."""
        for path in (self.path, self.applied_path):
            if os.path.exists(path):
                os.unlink(path)
        self.sequence = 0

    def _stamp_sequence(self) -> None:
        """Persist ``self.sequence`` in the applied slot if nothing newer.

        Written via a temp file + atomic rename so a crash mid-stamp
        leaves either the old applied image or the new stamp, never a
        torn one.
        """
        if self.sequence <= 0:
            return
        current = _read_bytes(self.applied_path)
        if current is not None:
            sequence, pages = _parse(current)
            if pages is not None and sequence >= self.sequence:
                return
        scratch = self.applied_path + ".tmp"
        with open(scratch, "wb") as handle:
            handle.write(TransactionRecord(self.sequence, {}).encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, self.applied_path)

    def mark_applied(self) -> None:
        """Retire the pending journal: the transaction is fully applied.

        Atomically renames ``<path>`` to ``<path>.applied`` so that no
        ``.journal`` file remains after a clean command (the contract
        plain opens rely on), while the sequence number and the page
        images stay on disk — the LSN survives restarts and the images
        remain available to heal a torn apply write.
        """
        if os.path.exists(self.path):
            os.replace(self.path, self.applied_path)

    def clear(self) -> None:
        """Remove the pending journal without retaining it.

        Kept for discarding torn journals in tests and tooling;
        production recovery goes through :meth:`redo`, which preserves
        the durable sequence.
        """
        if os.path.exists(self.path):
            os.unlink(self.path)

    def exists(self) -> bool:
        """Whether a pending journal file is currently on disk."""
        return os.path.exists(self.path)

    def state(self) -> JournalState:
        """Durable sequence plus outstanding-recovery flags, from disk."""
        pending = torn = False
        raw = _read_bytes(self.path)
        if raw is not None:
            pages = _parse(raw)[1]
            pending = pages is not None
            torn = pages is None
        return JournalState(
            durable_sequence=self._recover_sequence(),
            pending=pending,
            torn=torn,
            applied_retained=os.path.exists(self.applied_path),
        )
