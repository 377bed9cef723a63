"""The one durable commit path in ``repro.storage.wal``.

``TransactionJournal.commit`` (journal + fsync, write the slots, fsync,
retire) and ``TransactionJournal.redo`` / ``recover_file`` (replay a
committed journal or discard a torn one) serve the journaled primary,
the replica and scrub alike.  These tests sweep a crash across every
physical write of one commit, check that replica reads never take the
write lock, and keep the protocol from being restated elsewhere.
"""

import ast
import os
import random

import pytest

import repro
from repro.core.errors import ReplicationError, StaleReplicaError
from repro.persistent import JournaledDenseFile, PersistentDenseFile
from repro.records import Record
from repro.replication import Replica, bootstrap_replica
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.ondisk import CorruptPageError, DiskPagedStore
from repro.storage.scrub import scrub
from repro.storage.wal import TransactionJournal, journal_state, recover_file

GEOMETRY = dict(num_pages=32, d=12, D=48)


def page_images(path):
    """Every page's decoded records, read straight off the OS file."""
    with DiskPagedStore.open(path) as raw:
        return [raw.read_page(page) for page in range(1, raw.num_pages + 1)]


def images_of(raw, pages):
    """Encoded page images holding ``pages`` (page -> keys)."""
    return {
        page: raw.encode_records_image([Record(key, key) for key in keys])
        for page, keys in pages.items()
    }


# ---------------------------------------------------------------------------
# crash sweep over TransactionJournal.commit
# ---------------------------------------------------------------------------


class TestCommitCrashSweep:
    FIRST = {1: [1, 2], 2: [3], 5: [9]}
    SECOND = {1: [1], 2: [3, 4], 3: [5, 6, 7], 6: [11]}

    def _seeded(self, path, injector):
        """A store holding the committed FIRST transaction (LSN 1)."""
        raw = DiskPagedStore.create(path, num_pages=8, d=2, D=8)
        journal = TransactionJournal.beside(path)
        journal.commit(raw, images_of(raw, self.FIRST))
        journal.injector = injector
        raw.fault_injector = injector
        return raw, journal

    @pytest.mark.parametrize("sequence", [None, 2])
    def test_every_write_lands_before_or_after(self, tmp_path, sequence):
        golden = str(tmp_path / "golden.dsf")
        raw, journal = self._seeded(golden, None)
        before = page_images(golden)
        assert journal.commit(raw, images_of(raw, self.SECOND), sequence) == 2
        raw.close()
        after = page_images(golden)
        assert before != after

        outcomes = set()
        crash_point = 0
        while True:
            path = str(tmp_path / f"crash-{crash_point}.dsf")
            injector = FaultInjector()
            raw, journal = self._seeded(path, injector)
            injector.arm(crash_point)
            try:
                journal.commit(raw, images_of(raw, self.SECOND), sequence)
                completed = True
            except SimulatedCrash:
                completed = False
            injector.disarm()
            raw.close()

            recover_file(path)
            state = journal_state(path)
            assert state.clean, f"crash point {crash_point}: {state}"
            observed = (page_images(path), state.durable_sequence)
            assert observed in ((before, 1), (after, 2)), (
                f"crash point {crash_point}: neither the pre- nor the "
                "post-transaction images with their durable LSN"
            )
            outcomes.add(observed[1])
            if completed:
                break
            crash_point += 1
            assert crash_point < 50, "sweep runaway"
        # Crashes landed in the journal writes and in the slot writes.
        assert outcomes == {1, 2}
        assert crash_point > len(self.SECOND) + 2

    def test_redo_replays_committed_and_discards_torn(self, tmp_path):
        path = str(tmp_path / "redo.dsf")
        raw = DiskPagedStore.create(path, num_pages=8, d=2, D=8)
        journal = TransactionJournal.beside(path)
        pages = images_of(raw, self.FIRST)
        journal.write_transaction(pages)  # committed, never applied
        assert journal.redo(raw) == pages
        assert not journal.exists()
        assert raw.read_page(1) == [Record(1, 1), Record(2, 2)]

        journal.write_transaction(images_of(raw, self.SECOND))
        with open(journal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal.path) - 4)
        # A torn journal is what a process that died mid-write leaves;
        # recovery runs on a fresh journal object.
        journal = TransactionJournal.beside(path)
        assert journal.redo(raw) is None  # torn: discarded, not applied
        assert not journal.exists()
        assert raw.read_page(3) == []
        raw.close()
        assert journal_state(path).durable_sequence == 1

    def test_recover_file_without_journal_is_a_no_op(self, tmp_path):
        assert recover_file(str(tmp_path / "absent.dsf")) is None


class TestReplicaApplyCrashSweep:
    def _pair(self, tmp_path, name):
        """A primary with a replica at LSN 1 and the record for LSN 2."""
        primary = JournaledDenseFile.create(
            str(tmp_path / f"{name}.dsf"), **GEOMETRY
        )
        primary.insert_many(range(0, 120, 3))
        replica = bootstrap_replica(primary, str(tmp_path / f"{name}.rep"))
        shipped = []
        primary.journal.subscribe(shipped.append)
        primary.delete_range(30, 60)
        primary.insert_many(range(200, 260, 2))
        primary.close()
        return replica, shipped

    def test_every_apply_write_recovers_to_a_prefix(self, tmp_path):
        golden, shipped = self._pair(tmp_path, "golden")
        before = golden.snapshot()
        golden.apply(shipped[0])
        after = golden.snapshot()
        golden.close()
        assert before[0] == 1 and after[0] == 2 and before != after

        outcomes = set()
        crash_point = 0
        while True:
            replica, shipped = self._pair(tmp_path, f"crash-{crash_point}")
            injector = FaultInjector()
            replica.journal.injector = injector
            replica._file._raw.fault_injector = injector
            injector.arm(crash_point)
            try:
                replica.apply(shipped[0])
                completed = True
            except SimulatedCrash:
                completed = False
                # The crashed apply's in-core state is not trusted.
                with pytest.raises(ReplicationError, match="failed apply"):
                    replica.snapshot()
            injector.disarm()
            replica.close()

            reopened = Replica(replica.path)
            observed = reopened.snapshot()
            reopened.close()
            assert observed in (before, after), (
                f"crash point {crash_point}: replica recovered to neither "
                "the pre- nor the post-record state"
            )
            outcomes.add(observed[0])
            if completed:
                break
            crash_point += 1
            assert crash_point < 100, "sweep runaway"
        assert outcomes == {1, 2}


class TestReplicaFailedApply:
    def _pair(self, tmp_path):
        primary = JournaledDenseFile.create(
            str(tmp_path / "a.dsf"), **GEOMETRY
        )
        with primary.transaction():  # spread over several pages
            for key in range(0, 600, 3):
                primary.insert(key, key)
        replica = bootstrap_replica(primary, str(tmp_path / "b.dsf"))
        shipped = []
        primary.journal.subscribe(shipped.append)
        primary.insert(7, "seven")
        expected = (
            primary.durable_sequence,
            tuple((r.key, r.value) for r in primary.engine.pagefile.iter_all()),
        )
        primary.close()
        return replica, shipped[0], expected

    def test_torn_slot_stops_serving_until_scrubbed(self, tmp_path):
        replica, record, expected = self._pair(tmp_path)
        # The apply's first slot write reaches the platter half-written.
        replica._file._raw.fault_injector = FaultPlan(seed=1, torn_write_at=0)
        with pytest.raises(CorruptPageError):
            replica.apply(record)
        for read in (
            replica.snapshot,
            lambda: replica.search(7),
            lambda: replica.scan(0, 5),
            lambda: len(replica),
            lambda: replica.apply(record),
        ):
            with pytest.raises(ReplicationError, match="failed apply"):
                read()
        # Promotion still runs; recovery from disk reports the torn slot
        # loudly, and scrub heals it from the retained journal image.
        with pytest.raises(CorruptPageError):
            replica.promote()
        assert scrub(replica.path).healthy
        reopened = Replica(replica.path)
        assert reopened.snapshot() == expected
        reopened.close()

    def test_crashed_apply_can_still_be_promoted(self, tmp_path):
        replica, record, expected = self._pair(tmp_path)
        injector = FaultInjector()
        replica._file._raw.fault_injector = injector
        injector.arm(0)  # crash before the first slot write
        with pytest.raises(SimulatedCrash):
            replica.apply(record)
        promoted = replica.promote()
        observed = (
            promoted.durable_sequence,
            tuple(
                (r.key, r.value) for r in promoted.engine.pagefile.iter_all()
            ),
        )
        assert observed == expected  # the committed journal was redone
        promoted.close()

    def test_flip_outside_the_record_leaves_reads_exact(self, tmp_path):
        replica, record, expected = self._pair(tmp_path)
        untouched = next(
            page
            for page in range(1, GEOMETRY["num_pages"] + 1)
            if page not in record.pages
            and replica._file.engine.pagefile.page_len(page)
        )
        raw = replica._file._raw
        with open(replica.path, "r+b") as handle:
            handle.seek(raw._slot_offset(untouched) + 4)  # the CRC field
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x01]))
        # Only the shipped pages are re-read, so the apply succeeds and
        # reads serve exactly the committed state from the in-core
        # copies; the flip surfaces on the next full load.
        assert replica.apply(record)
        assert replica.snapshot() == expected
        replica.close()
        with pytest.raises(CorruptPageError):
            Replica(replica.path)


# ---------------------------------------------------------------------------
# replica reads take only the read lock
# ---------------------------------------------------------------------------


def test_replica_reads_never_take_the_write_lock(tmp_path):
    primary = JournaledDenseFile.create(str(tmp_path / "a.dsf"), **GEOMETRY)
    primary.insert_many(range(0, 40, 2))
    replica = bootstrap_replica(primary, str(tmp_path / "b.dsf"))
    shipped = []
    primary.journal.subscribe(shipped.append)
    primary.insert(501, "fresh")
    assert replica.apply(shipped[0])
    # A read straight after the apply already sees the shipped record.
    assert replica.search(501).value == "fresh"
    for key in range(0, 40, 4):
        assert replica.search(key) is not None
        assert replica.scan(key, 3)
        assert replica.snapshot()[0] == primary.durable_sequence
        assert len(replica) == 21
    assert replica._lock.stats()["writers_served"] == 1  # the one apply
    replica.close()
    primary.close()


class _ListTransport:
    """Hands out a fixed record list in one poll; records acks."""

    def __init__(self, records):
        self.records = list(records)
        self.acked = []

    def poll(self, after_sequence, limit=64):
        batch, self.records = self.records[:limit], self.records[limit:]
        return batch

    def ack(self, sequence):
        self.acked.append(sequence)


def test_catch_up_applies_a_batch_under_one_write_lock(tmp_path):
    primary = JournaledDenseFile.create(str(tmp_path / "a.dsf"), **GEOMETRY)
    replica = bootstrap_replica(primary, str(tmp_path / "b.dsf"))
    shipped = []
    primary.journal.subscribe(shipped.append)
    for key in range(10):
        primary.insert(key, key)
    primary.close()
    # A duplicate inside the batch is skipped; the run continues.
    transport = _ListTransport(shipped[:4] + shipped[3:6])
    assert replica.catch_up(transport) == 6
    assert replica.duplicates_skipped == 1
    assert transport.acked == [6]
    assert replica._lock.stats()["writers_served"] == 1
    assert [r.key for r in replica.scan(0, 20)] == list(range(6))
    # A gap: the records before it are applied and readable, then the
    # gap is refused; the replica keeps serving its applied prefix.
    with pytest.raises(StaleReplicaError, match="records 8..8 were lost"):
        replica.catch_up(_ListTransport([shipped[6], shipped[8]]))
    assert replica.applied_sequence == 7
    assert replica.records_applied == 7
    assert [r.key for r in replica.scan(0, 20)] == list(range(7))
    replica.close()


def test_applied_pages_match_a_fresh_load(tmp_path):
    """Re-reading only the shipped pages rebuilds what a full load does."""
    primary = JournaledDenseFile.create(str(tmp_path / "a.dsf"), **GEOMETRY)
    replica = bootstrap_replica(primary, str(tmp_path / "b.dsf"))
    shipped = []
    primary.journal.subscribe(shipped.append)
    rng = random.Random(5)
    live = set()
    for _ in range(150):
        key = rng.randrange(1000)
        if key in live:
            primary.delete(key)
            live.discard(key)
        elif len(live) < 300:
            primary.insert(key, key)
            live.add(key)
    primary.close()
    for record in shipped:
        assert replica.apply(record)
    applied = replica._file.engine
    reopened = PersistentDenseFile.open(replica.path)
    fresh = reopened.engine
    assert applied.size == fresh.size == len(live)
    assert applied.calibrator.count == fresh.calibrator.count
    assert applied.pagefile.nonempty_pages() == fresh.pagefile.nonempty_pages()
    assert applied.pagefile._mins == fresh.pagefile._mins
    reopened.close()
    replica.close()


# ---------------------------------------------------------------------------
# structure: the protocol lives in storage/wal.py only
# ---------------------------------------------------------------------------

PROTOCOL_CALLS = {"write_transaction", "mark_applied", "recover"}


def test_only_wal_owns_the_journal_protocol():
    package = os.path.dirname(repro.__file__)
    owner = os.path.join(package, "storage", "wal.py")
    offenders = []
    for directory, _dirs, files in os.walk(package):
        for name in files:
            path = os.path.join(directory, name)
            if not name.endswith(".py") or path == owner:
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            where = os.path.relpath(path, package)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith(".journal")
                ):
                    offenders.append(f"{where}:{node.lineno} builds a journal path")
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in PROTOCOL_CALLS
                ):
                    offenders.append(
                        f"{where}:{node.lineno} calls {node.func.attr}()"
                    )
    assert not offenders, offenders
