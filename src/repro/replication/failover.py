"""Failover orchestration: ship, watch lag, promote after a crash.

:class:`Failover` wires one primary–replica pair together: a
:class:`~repro.replication.JournalShipper` tails the primary's journal
onto a transport, :meth:`Failover.sync` drains it into the replica, and
:meth:`Failover.promote_after_crash` is the path the operator (or the
soak runner) takes when the primary dies — catch the replica up on
everything the transport still holds, promote it, and *prove* the
promotion correct.

The proof obligation is the issue's central property: a crash seeded at
any byte/record boundary of the primary must yield a promoted replica
whose record stream equals a **committed prefix** of the primary's
history.  :class:`StateRecorder` makes that checkable in-process: it
also subscribes to the primary's journal, so at every commit fsync it
captures a digest of the primary's full record stream, keyed by
sequence.  After promotion, the promoted file's digest must equal the
recorded digest at the promoted LSN — any mismatch is reported as a
finding in :class:`PromotionResult`, never swallowed.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..persistent import JournaledDenseFile
from ..storage.wal import TransactionRecord
from .replica import Replica
from .shipper import JournalShipper


def file_digest(dense: Any) -> str:
    """Digest of a dense file's full record stream, in key order."""
    hasher = hashlib.sha256()
    for record in dense.engine.pagefile.iter_all():
        hasher.update(repr((record.key, record.value)).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def records_digest(records: Any) -> str:
    """Digest of an iterable of ``(key, value)`` pairs, as observed."""
    hasher = hashlib.sha256()
    for key, value in records:
        hasher.update(repr((key, value)).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class StateRecorder:
    """Records the primary's state digest at every committed sequence.

    Subscribes to the primary's journal, so the capture runs on the
    committing thread right after the commit fsync — at which point the
    engine's memory holds exactly the post-transaction state.  The
    digests are the ground truth the replica-reads stress schedule and
    post-promotion verification compare against.

    ``window`` bounds memory on long soaks by forgetting digests more
    than that many sequences behind the newest (a replica further
    behind than the window cannot be verified, only re-seeded).
    """

    def __init__(
        self, primary: JournaledDenseFile, window: Optional[int] = None
    ) -> None:
        self.primary = primary
        self.window = window
        self._lock = threading.Lock()
        self._digests: Dict[int, str] = {}
        self._digests[primary.durable_sequence] = file_digest(primary)
        primary.journal.subscribe(self._on_commit)

    def _on_commit(self, record: TransactionRecord) -> None:
        digest = file_digest(self.primary)
        with self._lock:
            self._digests[record.sequence] = digest
            if self.window is not None:
                horizon = record.sequence - self.window
                for sequence in [
                    s for s in self._digests if s < horizon
                ]:
                    del self._digests[sequence]

    def digest_at(self, sequence: int) -> Optional[str]:
        """The primary's digest at ``sequence`` (None if unrecorded)."""
        with self._lock:
            return self._digests.get(sequence)

    def detach(self) -> None:
        """Stop recording (idempotent; recorded digests are kept)."""
        self.primary.journal.unsubscribe(self._on_commit)


@dataclass
class PromotionResult:
    """Outcome of :meth:`Failover.promote_after_crash`."""

    #: The replica's store reopened as a writable primary.
    promoted: JournaledDenseFile
    #: The LSN the promoted primary recovered to.
    sequence: int
    #: None when the promoted state verified as a committed prefix of
    #: the old primary's history; otherwise a description of the
    #: mismatch (an unrecovered-corruption finding).
    finding: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.finding is None


@dataclass
class DrainResult:
    """Outcome of :meth:`Failover.final_drain`."""

    #: Committed primary transactions still unapplied after the drain.
    lag: int
    #: The LSN of the replica's final snapshot.
    sequence: int
    #: The replica's final ``(key, value)`` records, in key order.
    records: Tuple[Tuple[Any, Any], ...]
    #: Empty when the replica drained to lag zero and its final
    #: snapshot is the primary's committed state; else the findings.
    findings: List[str]


class Failover:
    """One primary–replica pair: shipping, lag, promote-on-crash."""

    def __init__(
        self,
        primary: JournaledDenseFile,
        replica: Replica,
        transport: Any,
        shipper: Optional[JournalShipper] = None,
        recorder: Optional[StateRecorder] = None,
    ) -> None:
        self.primary = primary
        self.replica = replica
        self.transport = transport
        self.shipper = shipper or JournalShipper(primary.journal, transport)
        self.recorder = recorder or StateRecorder(primary)
        #: Promotions performed through this orchestrator.
        self.failovers = 0

    def sync(self, timeout: Optional[float] = None) -> int:
        """Drain shipper + transport into the replica; applies done."""
        self.shipper.flush()
        return self.replica.catch_up(self.transport, timeout=timeout)

    def lag(self) -> int:
        """Committed primary transactions the replica has not applied."""
        return self.replica.lag(self.primary.durable_sequence)

    def _state_finding(
        self, what: str, sequence: int, digest: str
    ) -> Optional[str]:
        """None when ``digest`` is the primary's state at ``sequence``."""
        expected = self.recorder.digest_at(sequence)
        if expected is None:
            return (
                f"{what} at sequence {sequence}, which the primary never "
                "committed (or it fell outside the recorder window)"
            )
        if digest != expected:
            return (
                f"{what} at sequence {sequence} diverges from the "
                "primary's committed state at that sequence "
                f"(digest {digest[:12]}.. != {expected[:12]}..)"
            )
        return None

    def check_snapshot(
        self, sequence: int, records: Any
    ) -> Optional[str]:
        """None when a replica snapshot is a committed primary prefix.

        ``(sequence, records)`` is what :meth:`Replica.snapshot`
        returned; the records' digest must equal the digest the
        recorder captured at exactly that committed sequence.
        Otherwise the result describes the mismatch.
        """
        return self._state_finding(
            "replica snapshot", sequence, records_digest(records)
        )

    def final_drain(self, timeout: Optional[float] = None) -> DrainResult:
        """Ship and apply everything, then verify the caught-up replica.

        The replica must reach lag zero and its final snapshot must be
        the primary's committed state; each failure is a finding.
        """
        self.sync(timeout=timeout)
        lag = self.lag()
        sequence, records = self.replica.snapshot(timeout=timeout)
        findings: List[str] = []
        if lag:
            findings.append(f"final sync left the replica {lag} records behind")
        finding = self.check_snapshot(sequence, records)
        if finding is not None:
            findings.append(f"final {finding}")
        return DrainResult(lag, sequence, records, findings)

    def promote_after_crash(
        self,
        injector: Any = None,
        timeout: Optional[float] = None,
    ) -> PromotionResult:
        """Promote the replica after the primary died; verify the result.

        The dead primary's in-memory object is not touched (it is
        unusable after a crash); everything the shipper managed to hand
        to the transport is drained into the replica, which is then
        promoted through full journal recovery.  The promoted file's
        digest is checked against the recorder's digest at the promoted
        LSN — the promoted state must be exactly the primary's
        committed state at that sequence, i.e. a committed prefix of
        its history.
        """
        self.shipper.detach()
        self.recorder.detach()
        self.shipper.flush()
        self.replica.catch_up(self.transport, timeout=timeout)
        promoted = self.replica.promote(injector=injector, timeout=timeout)
        sequence = promoted.durable_sequence
        finding = self._state_finding(
            "promoted replica", sequence, file_digest(promoted)
        )
        self.failovers += 1
        return PromotionResult(promoted, sequence, finding)
