"""The durable files are dense files: one API, with guarded mutators.

:class:`PersistentDenseFile` and :class:`JournaledDenseFile` inherit
:class:`DenseSequentialFile`.  These tests pin the three halves of that
contract: every query answers exactly as on an in-memory file holding
the same records, every mutator refuses a read-only degraded file, and
no public dense-file method can reach the pages without passing the
write guard (and, on the journaled file, the commit).
"""

import os

import pytest

from repro import (
    DenseSequentialFile,
    JournaledDenseFile,
    PersistentDenseFile,
    ThreadSafeDenseFile,
)
from repro.core.errors import ReadOnlyError, ReproError, UsageError
from repro.records import Record
from repro.storage.ondisk import DiskPagedStore

GEOMETRY = dict(num_pages=64, d=8, D=40)
KEYS = range(0, 300, 3)
PROBES = [-5, 0, 1, 2, 3, 150, 151, 296, 297, 298, 1000]

#: Public members of DenseSequentialFile that never change the records.
QUERIES = {
    "search", "range", "scan", "rank", "count_range", "select",
    "min", "max", "successor", "predecessor", "keys", "items",
    "occupancies", "params", "stats", "store", "store_stats", "validate",
}
#: Construction and lifecycle: no record changes of their own
#: (``from_records`` loads through ``bulk_load``).
LIFECYCLE = {"from_records", "flush", "close", "closed"}
#: The mutators; each durable file must route them through its guard.
MUTATORS = {
    "insert", "delete", "update", "insert_many", "delete_range",
    "compact", "bulk_load",
}

DURABLE = [
    pytest.param(PersistentDenseFile, False, id="persistent"),
    pytest.param(PersistentDenseFile, True, id="persistent-threadsafe"),
    pytest.param(JournaledDenseFile, False, id="journaled"),
    pytest.param(JournaledDenseFile, True, id="journaled-threadsafe"),
]


def _create(cls, path, threadsafe):
    """A fresh durable file, behind the thread-safe front-end if asked."""
    durable = cls.create(path, **GEOMETRY)
    return ThreadSafeDenseFile(durable) if threadsafe else durable


def _reference(keys) -> DenseSequentialFile:
    reference = DenseSequentialFile(**GEOMETRY)
    reference.insert_many(Record(key, f"v{key}") for key in keys)
    return reference


@pytest.fixture
def path(tmp_path):
    return os.path.join(str(tmp_path), "facade.dsf")


class TestQueriesMatchTheInMemoryFile:
    @pytest.mark.parametrize("cls, threadsafe", DURABLE)
    def test_order_queries(self, path, cls, threadsafe):
        durable = _create(cls, path, threadsafe)
        reference = _reference(KEYS)
        try:
            durable.insert_many([Record(key, f"v{key}") for key in KEYS])
            assert durable.min() == reference.min() == Record(0, "v0")
            assert durable.max() == reference.max() == Record(297, "v297")
            for probe in PROBES:
                assert durable.successor(probe) == reference.successor(probe)
                assert (
                    durable.predecessor(probe)
                    == reference.predecessor(probe)
                )
        finally:
            durable.close()

    @pytest.mark.parametrize("cls, threadsafe", DURABLE)
    def test_empty_file_has_no_extremes(self, path, cls, threadsafe):
        durable = _create(cls, path, threadsafe)
        try:
            assert durable.min() is None and durable.max() is None
            assert durable.successor(0) is None
            assert durable.predecessor(0) is None
        finally:
            durable.close()

    @pytest.mark.parametrize("cls", [PersistentDenseFile, JournaledDenseFile])
    def test_iteration_survives_a_reopen(self, path, cls):
        reference = _reference(KEYS)
        with cls.create(path, **GEOMETRY) as durable:
            durable.insert_many([Record(key, f"v{key}") for key in KEYS])
            assert list(durable.keys()) == list(reference.keys())
            assert list(durable.items()) == list(reference.items())
            assert list(durable) == list(reference)
        with cls.open(path) as reopened:
            assert list(reopened.items()) == list(reference.items())
            assert reopened.dense is reopened


class TestDegradedFileRefusesEveryMutator:
    @staticmethod
    def _degraded(path) -> PersistentDenseFile:
        with PersistentDenseFile.create(path, **GEOMETRY) as durable:
            durable.insert_many(KEYS)
            victim = durable.engine.pagefile.nonempty_pages()[0]
        with DiskPagedStore.open(path) as raw:
            offset = raw._slot_offset(victim)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\xff\xff\xff\xff")
        degraded = PersistentDenseFile.open(path, on_corruption="degrade")
        assert degraded.read_only and degraded.quarantined == (victim,)
        return degraded

    @pytest.mark.parametrize("mutator, args", [
        ("insert", (10**6,)),
        ("delete", (297,)),
        ("update", (297, "new")),
        ("insert_many", ([10**6, 10**6 + 1],)),
        ("delete_range", (100, 200)),
        ("compact", ()),
        ("bulk_load", ([10**6],)),
    ])
    def test_mutator_raises_read_only(self, path, mutator, args):
        degraded = self._degraded(path)
        try:
            before = list(degraded.items())
            with pytest.raises(ReadOnlyError):
                getattr(degraded, mutator)(*args)
            assert list(degraded.items()) == before
            degraded.validate()
        finally:
            degraded.close()


class TestNoMutatorBypassesTheGuard:
    def test_every_public_member_is_classified(self):
        public = {
            name for name in vars(DenseSequentialFile)
            if not name.startswith("_")
        }
        unclassified = public - QUERIES - LIFECYCLE - MUTATORS
        assert not unclassified, (
            f"classify new DenseSequentialFile members {unclassified}: a "
            "mutator must be overridden by PersistentDenseFile"
        )
        assert MUTATORS <= public

    def test_persistent_file_overrides_every_mutator(self):
        own = vars(PersistentDenseFile)
        assert {name for name in MUTATORS if name not in own} == set()

    def test_journaled_file_commits_through_the_one_hook(self):
        own = vars(JournaledDenseFile)
        assert MUTATORS.isdisjoint(own)
        assert "_apply" in own

    @pytest.mark.parametrize("mutator, args", [
        ("insert", (1000, "x")),
        ("delete", (3,)),
        ("update", (6, "y")),
        ("insert_many", ([1001, 1002],)),
        ("delete_range", (9, 30)),
        ("compact", ()),
    ])
    def test_each_mutator_is_one_journaled_transaction(
        self, path, mutator, args
    ):
        with JournaledDenseFile.create(path, **GEOMETRY) as journaled:
            journaled.insert_many(KEYS)
            before = journaled.durable_sequence
            getattr(journaled, mutator)(*args)
            assert journaled.durable_sequence == before + 1
            assert not journaled._dirty
            journaled.validate()


class TestFromRecordsIsRefused:
    """``from_records`` has no path argument, so a durable file refuses it."""

    @pytest.mark.parametrize("cls", [PersistentDenseFile, JournaledDenseFile])
    def test_raises_typed_usage_error_naming_create(self, cls):
        named = r"create\(path, M, d, D\)"
        with pytest.raises(UsageError, match=named) as info:
            cls.from_records([(1, "a")], 8, 2, 12)
        assert isinstance(info.value, ReproError)
        assert "bulk_load" in str(info.value)
        assert cls.__name__ in str(info.value)

    @pytest.mark.parametrize("cls", [PersistentDenseFile, JournaledDenseFile])
    def test_create_then_bulk_load_is_the_named_route(self, path, cls):
        with cls.create(path, **GEOMETRY) as durable:
            durable.bulk_load([Record(key, f"v{key}") for key in KEYS])
            assert list(durable.items()) == list(_reference(KEYS).items())
