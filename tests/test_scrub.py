"""Unit tests for the scrub/repair ladder and its CLI surface.

``scrub`` walks detect → repair (journal redo) → quarantine → verify;
these tests pin each rung, the idempotence of the whole ladder, and
the exit codes / operator guidance the CLI prints around it.
"""

import io

import pytest

from repro import PersistentDenseFile
from repro.cli import main
from repro.storage.ondisk import DiskPagedStore
from repro.storage.packed import encode_records_image
from repro.storage.scrub import ScrubReport, scrub
from repro.storage.wal import TransactionJournal


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def populated(tmp_path):
    """A healthy closed file with 120 records, plus its page payloads."""
    path = str(tmp_path / "scrub.dsf")
    payloads = {}
    with PersistentDenseFile.create(path, num_pages=32, d=8, D=40) as dense:
        dense.insert_many(range(120))
        for page in dense.engine.pagefile.nonempty_pages():
            payloads[page] = encode_records_image(
                list(dense.engine.pagefile.read_page(page))
            )
    return path, payloads


def corrupt_slot(path: str, page: int) -> None:
    """Clobber the slot's length field: a guaranteed CRC failure."""
    with DiskPagedStore.open(path) as raw:
        offset = raw._slot_offset(page)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"\xff\xff\xff\xff")


class TestScrubLadder:
    def test_healthy_file_is_a_verified_noop(self, populated):
        path, _ = populated
        report = scrub(path)
        assert report.healthy and not report.degraded
        assert report.pages_checked == 32
        assert report.corrupt == ()
        assert report.repaired == () and report.quarantined == ()
        assert not report.journal_replayed
        assert "structural pass" in report.summary()
        # And the file still opens and validates normally afterwards.
        with PersistentDenseFile.open(path) as dense:
            assert len(dense) == 120
            dense.validate()

    def test_journal_repairs_corrupt_page(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[1]
        corrupt_slot(path, victim)
        # A committed journal holding the victim's last good image is
        # exactly what a crash between commit and apply leaves behind.
        TransactionJournal(path + ".journal").write_transaction(
            {victim: payloads[victim]}
        )
        report = scrub(path)
        assert report.healthy
        assert report.corrupt == (victim,)
        assert report.journal_replayed
        assert report.repaired == (victim,)
        assert report.quarantined == ()
        assert not TransactionJournal(path + ".journal").exists()
        with PersistentDenseFile.open(path) as dense:
            assert [r.key for r in dense.range(-1, 10**9)] == list(range(120))
            dense.validate()

    def test_unrepairable_page_is_quarantined(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        report = scrub(path)
        assert report.degraded and not report.healthy
        assert report.quarantined == (victim,)
        assert report.repaired == ()
        assert "DEGRADED" in report.summary()
        # Idempotent: a second pass reports the same quarantine set.
        again = scrub(path)
        assert again.quarantined == (victim,)
        # The plain open still refuses; the degraded open works.
        with pytest.raises(Exception):
            PersistentDenseFile.open(path)
        with PersistentDenseFile.open(
            path, on_corruption="degrade"
        ) as dense:
            assert dense.read_only
            assert dense.quarantined == (victim,)
            survivors = [r.key for r in dense.range(-1, 10**9)]
            assert set(survivors) < set(range(120))

    def test_torn_journal_is_discarded_not_replayed(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        journal = TransactionJournal(path + ".journal")
        journal.write_transaction({victim: payloads[victim]})
        # Tear the commit marker off: the image must NOT be trusted.
        import os

        with open(journal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal.path) - 4)
        report = scrub(path)
        assert not report.journal_replayed
        assert report.quarantined == (victim,)
        assert not journal.exists()  # torn journal cleaned up

    def test_torn_tail_keeps_the_applied_image_heal(self, tmp_path):
        """A torn journal tail with a newer sequence must not cost the
        retained applied image: ``verify`` names it as the repair path
        and ``scrub`` heals from it."""
        import os

        from repro.persistent import JournaledDenseFile

        path = str(tmp_path / "torn.dsf")
        with JournaledDenseFile.create(path, num_pages=32, d=8, D=40) as dense:
            dense.insert_many(range(120))
            victim = dense.engine.pagefile.nonempty_pages()[0]
        assert victim in TransactionJournal(path + ".journal").read_applied()
        corrupt_slot(path, victim)
        journal = TransactionJournal(path + ".journal")
        journal.sequence = 10**6
        journal.write_transaction({victim: encode_records_image([])})
        with open(journal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(journal.path) // 2)
        code, output = run_cli("verify", path)
        assert code == 3
        assert "repairable from the retained applied journal image" in output
        report = scrub(path)
        assert report.healed == (victim,)
        assert report.healthy, report.summary()

    def test_partial_repair_mixed_outcome(self, populated):
        """Two corrupt pages, one journaled image: repair one,
        quarantine the other."""
        path, payloads = populated
        saved, lost = sorted(payloads)[:2]
        corrupt_slot(path, saved)
        corrupt_slot(path, lost)
        TransactionJournal(path + ".journal").write_transaction(
            {saved: payloads[saved]}
        )
        report = scrub(path)
        assert report.corrupt == (saved, lost)
        assert report.repaired == (saved,)
        assert report.quarantined == (lost,)
        assert report.degraded

    def test_report_dataclass_defaults(self, tmp_path):
        report = ScrubReport(path="x")
        assert report.healthy and not report.degraded
        assert "verdict: healthy" in report.summary()


class TestCliSurface:
    def test_scrub_exit_0_on_healthy(self, populated):
        path, _ = populated
        code, output = run_cli("scrub", path)
        assert code == 0
        assert "healthy" in output

    def test_scrub_exit_0_after_repair(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        TransactionJournal(path + ".journal").write_transaction(
            {victim: payloads[victim]}
        )
        code, output = run_cli("scrub", path)
        assert code == 0
        assert f"repaired pages [{victim}]" in output

    def test_scrub_exit_3_on_quarantine(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        code, output = run_cli("scrub", path)
        assert code == 3
        assert "DEGRADED" in output and str(victim) in output

    def test_verify_names_the_repair_path(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        TransactionJournal(path + ".journal").write_transaction(
            {victim: payloads[victim]}
        )
        code, output = run_cli("verify", path)
        assert code == 3
        assert "repairable from the journal" in output
        assert "repro scrub" in output

    def test_verify_warns_about_quarantine(self, populated):
        path, payloads = populated
        corrupt_slot(path, sorted(payloads)[0])
        code, output = run_cli("verify", path)
        assert code == 3
        assert "no journaled image" in output
        assert "read-only" in output

    def test_info_falls_back_to_degraded_view(self, populated):
        path, payloads = populated
        victim = sorted(payloads)[0]
        corrupt_slot(path, victim)
        code, output = run_cli("info", path)
        assert code == 5
        assert "DEGRADED (read-only)" in output
        assert str(victim) in output

    def test_end_to_end_operator_story(self, populated):
        """verify (red) -> scrub (degraded) -> info still works ->
        mutation via CLI fails cleanly."""
        path, payloads = populated
        corrupt_slot(path, sorted(payloads)[0])
        assert run_cli("verify", path)[0] == 3
        assert run_cli("scrub", path)[0] == 3
        code, output = run_cli("info", path)
        assert code == 5 and "DEGRADED" in output
        # A mutating command surfaces the corruption through the exit
        # contract (3, corrupt) rather than silently writing through a
        # broken page.
        code, output = run_cli("put", path, "999")
        assert code == 3
        assert "error" in output
