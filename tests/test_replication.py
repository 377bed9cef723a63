"""Replication contracts: WAL shipping, replay, promote-on-crash.

Five contracts, the central one swept with Hypothesis-drawn crash
schedules:

* **Log format** — v2 journal frames carry a durable LSN that survives
  commit, apply-retirement and recovery (including torn tails).
* **Transport** — both transports (in-process queue, shipping
  directory) deliver committed records in order exactly once, and the
  directory transport refuses undecodable frames loudly.
* **Replica replay** — shipped records apply crash-atomically under
  the primary's sequence numbers; duplicates are idempotent, gaps are
  refused with :class:`StaleReplicaError`, and a replica that died
  mid-apply recovers on construction.
* **Promote-on-crash** (the property harness) — for *every* seeded
  crash point of the primary, promoting the replica yields a file
  whose record stream equals a committed prefix of the primary's
  history, verified against the commit-time digest recorder, and the
  promoted file is immediately writable and valid.
* **SLO soak** — a short :func:`repro.replication.run_soak` run under
  forced failovers finishes clean and emits a valid repro-bench/1
  report; the ``repro soak`` CLI wraps it with exit codes.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import ReplicationError, StaleReplicaError
from repro.persistent import JournaledDenseFile
from repro.replication import (
    DirectoryTransport,
    Failover,
    QueueTransport,
    Replica,
    SoakConfig,
    bootstrap_replica,
    run_soak,
)
from repro.replication.failover import file_digest, records_digest
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.ondisk import StorageError
from repro.storage.wal import (
    TransactionJournal,
    TransactionRecord,
    journal_state,
)

GEOMETRY = dict(num_pages=16, d=8, D=28)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_transport(kind, tmp_path):
    if kind == "queue":
        return QueueTransport()
    return DirectoryTransport(str(tmp_path / "ship"))


def make_pair(tmp_path, transport, seed_keys=range(0, 40, 2), injector=None):
    primary = JournaledDenseFile.create(
        str(tmp_path / "a.dsf"), injector=injector, **GEOMETRY
    )
    primary.insert_many(seed_keys)
    replica = bootstrap_replica(primary, str(tmp_path / "b.dsf"))
    return primary, replica, Failover(primary, replica, transport)


# ---------------------------------------------------------------------------
# log format: LSNs in the v2 journal
# ---------------------------------------------------------------------------


class TestTransactionRecord:
    def test_encode_decode_roundtrip(self):
        record = TransactionRecord(7, {3: b"abc", 1: b"xyzzy"})
        assert TransactionRecord.decode(record.encode()) == record

    def test_decode_refuses_torn_frame(self):
        encoded = TransactionRecord(7, {3: b"abc"}).encode()
        with pytest.raises(StorageError):
            TransactionRecord.decode(encoded[:-3])

    def test_encode_matches_journal_bytes(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j.journal"))
        journal.write_transaction({5: b"hello", 2: b"world"})
        with open(journal.path, "rb") as handle:
            raw = handle.read()
        record = TransactionRecord.decode(raw)
        assert record.sequence == 1
        assert record.pages == {5: b"hello", 2: b"world"}
        assert record.encode() == raw


class TestJournalSequence:
    def test_sequence_advances_and_survives_retirement(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j.journal"))
        assert journal.sequence == 0
        journal.write_transaction({0: b"a"})
        journal.write_transaction({1: b"b"})
        assert journal.sequence == 2
        journal.mark_applied()
        assert not journal.exists()
        # The applied image keeps the LSN durable across reopen.
        assert TransactionJournal(journal.path).sequence == 2

    def test_recover_pending_keeps_sequence(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j.journal"))
        journal.write_transaction({0: b"a"})
        reopened = TransactionJournal(journal.path)
        assert reopened.sequence == 1
        assert reopened.recover() == {0: b"a"}

    def test_torn_tail_recovers_to_previous_lsn(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j.journal"))
        journal.write_transaction({0: b"a"})
        journal.mark_applied()
        journal.write_transaction({1: b"b"})
        with open(journal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal.path) - 4)
        reopened = TransactionJournal(journal.path)
        assert reopened.recover() is None  # torn tail discarded
        assert reopened.sequence == 1  # ...but the LSN did not rewind
        assert not reopened.exists()

    def test_stamp_applied_never_rewinds(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "j.journal"))
        journal.stamp_applied(9)
        journal.stamp_applied(4)
        assert TransactionJournal(journal.path).sequence == 9

    def test_journal_state_describes_lifecycle(self, tmp_path):
        journal = TransactionJournal(str(tmp_path / "f.dsf.journal"))
        path = str(tmp_path / "f.dsf")
        assert journal_state(path).clean
        journal.write_transaction({0: b"a"})
        state = journal_state(path)
        assert state.pending and state.durable_sequence == 1
        assert "pending replay" in state.describe()
        journal.mark_applied()
        state = journal_state(path)
        assert state.clean and state.applied_retained
        assert "durable LSN 1" in state.describe()


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["queue", "directory"])
class TestTransports:
    def test_publish_poll_ack_ordering(self, kind, tmp_path):
        transport = make_transport(kind, tmp_path)
        records = [TransactionRecord(n, {0: bytes([n])}) for n in (1, 2, 3)]
        for record in records:
            transport.publish(record)
        assert transport.latest_sequence() == 3
        assert transport.poll(0) == records
        assert transport.poll(1, limit=1) == [records[1]]
        transport.ack(2)
        assert transport.poll(0) == [records[2]]
        transport.ack(3)
        assert transport.poll(0) == []


class TestDirectoryTransport:
    def test_undecodable_frame_is_refused(self, tmp_path):
        transport = DirectoryTransport(str(tmp_path / "ship"))
        transport.publish(TransactionRecord(1, {0: b"a"}))
        with open(os.path.join(str(tmp_path / "ship"), f"{2:020d}.txn"), "wb") as f:
            f.write(b"garbage")
        with pytest.raises(ReplicationError):
            transport.poll(0)

    def test_survives_process_restart(self, tmp_path):
        directory = str(tmp_path / "ship")
        DirectoryTransport(directory).publish(TransactionRecord(1, {0: b"a"}))
        fresh = DirectoryTransport(directory)
        assert fresh.poll(0)[0].sequence == 1


# ---------------------------------------------------------------------------
# replica replay
# ---------------------------------------------------------------------------


class TestReplicaReplay:
    def test_ship_apply_read(self, tmp_path):
        primary, replica, pair = make_pair(tmp_path, QueueTransport())
        primary.insert(777, "shipped")
        assert pair.lag() == 1
        pair.sync()
        assert pair.lag() == 0
        assert replica.search(777).value == "shipped"
        sequence, records = replica.snapshot()
        assert sequence == primary.durable_sequence
        assert records_digest(records) == file_digest(primary)
        replica.close()
        primary.close()

    def test_pair_checks_judge_snapshots_and_the_final_drain(self, tmp_path):
        """The two checks every pair schedule shares: a snapshot must be
        the primary's recorded state at its sequence, and the final
        drain must reach lag zero on a matching snapshot."""
        primary, replica, pair = make_pair(tmp_path, QueueTransport())
        primary.insert(777, "shipped")
        lagging = pair.replica.snapshot()
        assert pair.check_snapshot(*lagging) is None  # an older prefix
        sequence, records = lagging
        assert "diverges" in pair.check_snapshot(sequence, records[1:])
        assert "never committed" in pair.check_snapshot(sequence + 9, records)
        drain = pair.final_drain()
        assert drain.findings == []
        assert drain.lag == 0
        assert drain.sequence == primary.durable_sequence
        assert (777, "shipped") in drain.records
        pair.shipper.detach()
        primary.insert(778, "unshipped")
        assert pair.final_drain().findings == [
            "final sync left the replica 1 records behind"
        ]
        replica.close()
        primary.close()

    def test_duplicates_are_idempotent_and_gaps_refused(self, tmp_path):
        primary, replica, pair = make_pair(tmp_path, QueueTransport())
        primary.insert(100)
        record = pair.transport.poll(0)[0]
        assert replica.apply(record) is True
        assert replica.apply(record) is False
        assert replica.duplicates_skipped == 1
        gap = TransactionRecord(record.sequence + 5, record.pages)
        with pytest.raises(StaleReplicaError):
            replica.apply(gap)
        replica.close()
        primary.close()

    def test_bootstrap_refuses_dirty_primary(self, tmp_path):
        primary = JournaledDenseFile.create(str(tmp_path / "a.dsf"), **GEOMETRY)
        with primary.transaction():
            primary.insert(1)
            with pytest.raises(ReplicationError):
                bootstrap_replica(primary, str(tmp_path / "b.dsf"))
        primary.close()

    def test_replica_crash_mid_apply_recovers(self, tmp_path):
        primary, replica, pair = make_pair(tmp_path, QueueTransport())
        primary.insert(500, "durable")
        record = pair.transport.poll(0)[0]
        # Simulate a replica that journaled the shipped record and died
        # before touching its store: the pages sit committed in its own
        # journal, nothing applied.
        replica.journal.write_transaction(
            record.pages, sequence=record.sequence
        )
        replica.close()
        recovered = Replica(replica.path)
        assert recovered.applied_sequence == record.sequence
        assert recovered.search(500).value == "durable"
        recovered.close()
        primary.close()

    def test_promoted_handle_is_retired(self, tmp_path):
        primary, replica, pair = make_pair(tmp_path, QueueTransport())
        pair.sync()
        promoted = replica.promote()
        with pytest.raises(StaleReplicaError):
            replica.search(0)
        with pytest.raises(StaleReplicaError):
            replica.snapshot()
        promoted.insert(990)  # promoted primary is writable
        promoted.validate()
        promoted.close()
        primary.close()


# ---------------------------------------------------------------------------
# promote-on-crash: the crash/recovery property harness
# ---------------------------------------------------------------------------


def _crash_workload(primary, plan):
    """Drive mixed writes until the seeded crash fires (or they finish)."""
    try:
        for key in range(100, 160, 4):
            primary.insert(key)
        for key in range(0, 40, 8):
            primary.delete(key)
        with primary.transaction():
            primary.insert(701)
            primary.insert(702)
            primary.delete_range(20, 30)
    except SimulatedCrash:
        return True
    return False


@pytest.mark.parametrize("kind", ["queue", "directory"])
class TestPromoteOnCrash:
    @given(crash_point=st.integers(0, 90), seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_promoted_state_is_a_committed_prefix(
        self, kind, crash_point, seed, tmp_path_factory
    ):
        """At every seeded crash boundary the promoted replica equals
        the primary's committed state at the promoted LSN — the
        digest recorder proves it, and the promoted file is writable."""
        tmp_path = tmp_path_factory.mktemp("crash")
        plan = FaultPlan(seed=seed)
        transport = make_transport(kind, tmp_path)
        primary, replica, pair = make_pair(
            tmp_path, transport, injector=plan
        )
        pair.sync()
        synced_lsn = replica.applied_sequence
        plan.arm(crash_point)
        crashed = _crash_workload(primary, plan)
        plan.disarm()
        primary._raw.close()

        result = pair.promote_after_crash()
        assert result.finding is None, result.finding
        assert result.verified
        assert result.sequence >= synced_lsn
        if not crashed:
            # No crash: every commit shipped, nothing may be lost.
            assert result.sequence == primary.durable_sequence
        promoted = result.promoted
        promoted.validate()
        promoted.insert(99_991)
        promoted.validate()
        promoted.close()
        assert plan.crashes == (1 if crashed else 0)


# ---------------------------------------------------------------------------
# the SLO soak + CLI
# ---------------------------------------------------------------------------


class TestSoak:
    def test_short_soak_with_forced_failovers_is_clean(self, tmp_path):
        report = run_soak(
            SoakConfig(
                workdir=str(tmp_path),
                seconds=2.5,
                seed=11,
                crash_every=30,
            )
        )
        assert report.clean, report.findings
        assert report.failovers >= 1
        assert report.primary_writes > 0 and report.replica_reads > 0
        assert report.consistency_checks > 0

    def test_bench_report_is_valid_and_serializable(self, tmp_path):
        from repro.benchmark import validate_report

        report = run_soak(
            SoakConfig(workdir=str(tmp_path), seconds=1.0, seed=3)
        )
        payload = report.to_bench_report()
        assert validate_report(payload) == []
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schema"] == "repro-bench/1"
        assert {cell["scenario"] for cell in payload["results"]} == {
            "soak-primary-write", "soak-primary-read", "soak-replica-read",
        }

    def test_config_validation(self, tmp_path):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SoakConfig(workdir=str(tmp_path), transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            SoakConfig(workdir=str(tmp_path), seconds=0)

    def test_cli_soak_writes_report(self, tmp_path):
        out_path = str(tmp_path / "soak.json")
        code, text = run_cli(
            "soak", "--seconds", "1", "--seed", "5",
            "--workdir", str(tmp_path / "work"), "--out", out_path,
        )
        assert code == 0
        assert "soak verdict: clean" in text
        payload = json.load(open(out_path))
        assert payload["schema"] == "repro-bench/1"


class TestReplicaReadsStress:
    def test_schedule_is_prefix_consistent(self, tmp_path):
        from repro.replication import (
            ReplicaStressConfig,
            run_replica_stress,
        )

        report = run_replica_stress(
            ReplicaStressConfig(
                path=str(tmp_path / "p.dsf"), total_ops=80, seed=5
            )
        )
        assert report.ok, report.violations
        assert report.snapshots_checked > 0
        assert report.final_lag == 0
        assert report.records_applied == report.records_shipped

    def test_dropped_deletes_are_an_oracle_violation(
        self, tmp_path, monkeypatch
    ):
        """Planted control: a primary that silently drops every other
        delete still agrees with its own replica, so only the oracle
        check on the writer batches can catch it."""
        from repro.persistent import JournaledDenseFile
        from repro.replication import (
            ReplicaStressConfig,
            run_replica_stress,
        )

        real_delete = JournaledDenseFile.delete
        calls = []

        def dropping_delete(self, key):
            calls.append(key)
            if len(calls) % 2 == 0:
                return None
            return real_delete(self, key)

        monkeypatch.setattr(JournaledDenseFile, "delete", dropping_delete)
        report = run_replica_stress(
            ReplicaStressConfig(
                path=str(tmp_path / "p.dsf"), total_ops=80, seed=5
            )
        )
        assert len(calls) >= 2
        assert not report.ok, report.summary()
        assert any(
            "oracle" in violation or "witness" in violation
            for violation in report.violations
        ), report.violations

    def test_cli_replica_reads(self):
        code, text = run_cli(
            "stress", "--replica-reads", "--ops", "60", "--seed", "1"
        )
        assert code == 0
        assert "replica-stress" in text and "CLEAN" in text


# ---------------------------------------------------------------------------
# CLI state reporting (info / verify)
# ---------------------------------------------------------------------------


class TestCliJournalState:
    @pytest.fixture
    def journaled(self, tmp_path):
        path = str(tmp_path / "f.dsf")
        code, _ = run_cli(
            "create", path, "--pages", "32", "--low-density", "4",
            "--capacity", "24",
        )
        assert code == 0
        code, _ = run_cli("put", path, "42", "answer")
        assert code == 0
        return path

    def test_verify_reports_durable_lsn(self, journaled):
        code, text = run_cli("verify", journaled)
        assert code == 0
        assert "ok:" in text
        assert "durable LSN 1" in text

    def test_info_reports_wal_state(self, journaled):
        code, text = run_cli("info", journaled)
        assert code == 0
        assert "durable LSN 1" in text

    def test_pending_replay_reported_not_errored(self, journaled):
        # A committed-but-unapplied journal: the plain backend cannot
        # replay it, but must *report* that instead of the error path.
        TransactionJournal(journaled + ".journal").write_transaction(
            {0: b"x" * 32}
        )
        for command in ("verify", "info"):
            code, text = run_cli(command, journaled, "--backend", "disk")
            assert code == 6
            assert "pending replay" in text
            assert "journaled backend" in text
