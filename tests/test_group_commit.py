"""Group commit: coalescing commands into one journaled transaction.

``JournaledDenseFile.transaction()`` defers the per-command commit so a
burst of mutations pays one journal write, one fsync and one write-back
of the *union* of the dirty page sets.  Atomicity widens to the group:
either every command in the block is on disk after the exit, or (on an
exception inside the block) none of them are.
"""

import pytest

from repro import JournaledDenseFile
from repro.core.errors import InvariantViolationError

GEOMETRY = dict(num_pages=32, d=8, D=40)


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "group.dsf")


def contents(dense):
    return [(r.key, r.value) for r in dense.range(float("-inf"), float("inf"))]


class TestFsyncCoalescing:
    def test_group_pays_one_fsync(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            for key in range(20):
                dense.insert(key)
        counters = dense.store_stats()
        assert counters["storage.wal.transactions"] == 1
        assert counters["storage.wal.fsyncs"] == 1
        dense.close()

    def test_per_command_pays_n_fsyncs(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        for key in range(20):
            dense.insert(key)
        counters = dense.store_stats()
        assert counters["storage.wal.transactions"] == 20
        assert counters["storage.wal.fsyncs"] == 20
        dense.close()

    def test_hot_page_journaled_once_per_group(self, path):
        """Commands hitting the same page coalesce to one journal entry."""
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            for key in range(10):
                dense.insert(key)  # clustered: few distinct pages
        grouped = dense.store_stats()["storage.wal.pages_journaled"]
        dense.close()

        reference = JournaledDenseFile.create(path + ".ref", **GEOMETRY)
        for key in range(10):
            reference.insert(key)
        per_command = reference.store_stats()["storage.wal.pages_journaled"]
        reference.close()
        assert grouped < per_command

    def test_batch_calls_allowed_inside_group(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            dense.insert_many(range(50))
            dense.delete_range(10, 19)
            dense.insert(100)
        assert dense.store_stats()["storage.wal.fsyncs"] == 1
        assert len(dense) == 41
        dense.close()


class TestGroupAtomicity:
    def test_clean_exit_is_durable(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            dense.insert_many(range(30))
            dense.delete_range(0, 9)
        # Abandon without close: the group already committed.
        with JournaledDenseFile.open(path) as reopened:
            assert [k for k, _ in contents(reopened)] == list(range(10, 30))

    def test_exception_rolls_back_whole_group(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        dense.insert_many(range(10))  # committed pre-state
        with pytest.raises(RuntimeError):
            with dense.transaction():
                dense.insert(100)
                dense.delete(3)
                raise RuntimeError("power cut")
        # Nothing inside the block reached disk.
        with JournaledDenseFile.open(path) as reopened:
            assert [k for k, _ in contents(reopened)] == list(range(10))
            reopened.validate()

    def test_nested_blocks_commit_once_at_outermost(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            dense.insert(1)
            with dense.transaction():
                dense.insert(2)
            # Inner exit must not have committed anything yet.
            assert dense.store_stats()["storage.wal.transactions"] == 0
            dense.insert(3)
        assert dense.store_stats()["storage.wal.transactions"] == 1
        dense.close()
        with JournaledDenseFile.open(path) as reopened:
            assert [k for k, _ in contents(reopened)] == [1, 2, 3]

    def test_close_inside_group_commits(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        group = dense.transaction()
        group.__enter__()
        dense.insert_many(range(5))
        dense.close()  # never exits the block; close flushes the group
        with JournaledDenseFile.open(path) as reopened:
            assert [k for k, _ in contents(reopened)] == list(range(5))

    def test_validate_refuses_mid_group(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            dense.insert(1)
            with pytest.raises(InvariantViolationError, match="uncommitted"):
                dense.validate()
        dense.validate()  # fine after the group lands
        dense.close()


class TestCounterPlumbing:
    def test_journal_counters_exposed(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        dense.insert_many(range(25))
        counters = dense.store_stats()
        assert {key for key in counters if key.startswith("storage.wal.")} == {
            "storage.wal.transactions",
            "storage.wal.pages_journaled",
            "storage.wal.bytes_journaled",
            "storage.wal.fsyncs",
            "storage.wal.sequence",
        }
        assert counters["storage.wal.transactions"] == 1
        assert counters["storage.wal.sequence"] == 1
        assert counters["storage.wal.pages_journaled"] >= 1
        assert counters["storage.wal.bytes_journaled"] > 0
        dense.close()

    def test_empty_group_writes_nothing(self, path):
        dense = JournaledDenseFile.create(path, **GEOMETRY)
        with dense.transaction():
            pass
        assert dense.store_stats()["storage.wal.transactions"] == 0
        dense.close()
