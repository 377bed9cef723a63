"""The page against a model, and the format-byte page images.

The one in-core :class:`~repro.storage.page.Page` keeps key and value
columns; the paper only asks that a page be a key-sorted run of
records.  These tests hold the page to that definition in three tiers:

* **page level** — Hypothesis-driven operation streams run against a
  sorted-list-of-``(key, value)`` model and demand identical return
  values, identical exceptions, and identical final record lists;
* **file level** — a stateful machine drives a ``DenseSequentialFile``
  against a dict oracle, with the paper's invariants validated after
  every command;
* **image level** — the format-byte classifier packs exactly the
  homogeneous pages it documents (int64 / float64 / short-str keys,
  bytes-or-None values) and demotes everything else to the generic
  object codec, with every image round-tripping exactly — including
  legacy version-1 files that predate the packed format.
"""

import io
import os
import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cli import main
from repro.core.dense_file import DenseSequentialFile
from repro.core.errors import DuplicateKeyError, RecordNotFoundError, UsageError
from repro.records import Record
from repro.storage.backend import DiskStore, move_between
from repro.storage.codec import CodecError
from repro.storage.packed import (
    PAGE_FORMAT_F64,
    PAGE_FORMAT_I64,
    PAGE_FORMAT_OBJECT,
    PAGE_FORMAT_STR,
    decode_page_image,
    encode_page_image,
    encode_records_image,
)
from repro.storage.page import Page

# ---------------------------------------------------------------------------
# page level: every operation, page vs model, identical outcomes
# ---------------------------------------------------------------------------


class PageModel:
    """The paper's page: a key-sorted list of ``(key, value)`` pairs."""

    def __init__(self, records=()):
        self.pairs = sorted(records, key=lambda record: record.key)

    def _find(self, key):
        return next((i for i, p in enumerate(self.pairs) if p[0] == key), None)

    def records(self):
        return [Record(*pair) for pair in self.pairs]

    def insert_kv(self, key, value=None):
        if self._find(key) is not None:
            raise DuplicateKeyError(key)
        index = sum(pair[0] < key for pair in self.pairs)
        self.pairs.insert(index, (key, value))
        return index

    def get(self, key):
        index = self._find(key)
        return None if index is None else Record(key, self.pairs[index][1])

    def remove(self, key):
        index = self._find(key)
        if index is None:
            raise RecordNotFoundError(key)
        return Record(key, self.pairs.pop(index)[1])

    def replace(self, record):
        old = self.remove(record.key)
        self.insert_kv(*record)
        return old

    def take_lowest(self, count):
        taken, self.pairs = self.pairs[:count], self.pairs[count:]
        return [Record(*pair) for pair in taken]

    def take_highest(self, count):
        split = max(0, len(self.pairs) - count)
        self.pairs, taken = self.pairs[:split], self.pairs[split:]
        return [Record(*pair) for pair in taken]


#: Heterogeneous keys on purpose: ints, floats, strings and Fractions
#: are mutually comparable only within a type, so each generated stream
#: sticks to one key strategy — but the *suite* exercises all of them.
KEY_STRATEGIES = {
    "int": st.integers(min_value=-(2**70), max_value=2**70),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=40),
    "fraction": st.fractions(max_denominator=50),
}

VALUES = st.one_of(
    st.none(),
    st.binary(max_size=12),
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)),
)


def _apply(page, op, args):
    """Run one operation; return ``("ok", result)`` or ``("err", type)``."""
    try:
        method = getattr(page, op)
        return "ok", method(*args)
    except (DuplicateKeyError, RecordNotFoundError, UsageError) as exc:
        return "err", type(exc).__name__


OPS = st.sampled_from(
    ["insert_kv", "remove", "get", "replace", "take_lowest", "take_highest"]
)


@st.composite
def operation_streams(draw):
    kind = draw(st.sampled_from(sorted(KEY_STRATEGIES)))
    # A small key pool, partly preloaded, makes removes, gets and
    # replaces hit records and inserts land deep inside a full page.
    pool = draw(st.lists(KEY_STRATEGIES[kind], min_size=8, max_size=32))
    keys = st.sampled_from(pool)
    preload = [
        Record(key, draw(VALUES)) for key in draw(st.lists(keys, unique=True))
    ]
    stream = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        op = draw(OPS)
        if op in ("take_lowest", "take_highest"):
            stream.append((op, (draw(st.integers(min_value=0, max_value=6)),)))
        elif op == "replace":
            stream.append((op, (Record(draw(keys), draw(VALUES)),)))
        elif op == "insert_kv":
            stream.append((op, (draw(keys), draw(VALUES))))
        else:  # remove / get
            stream.append((op, (draw(keys),)))
    return preload, stream


@given(operation_streams())
@settings(max_examples=120, deadline=None)
def test_operation_stream_parity(streams):
    preload, stream = streams
    page, model = Page(preload), PageModel(preload)
    for op, args in stream:
        assert _apply(page, op, args) == _apply(model, op, args)
        assert page.records() == model.records()
        assert len(page) == len(model.pairs)
        assert page.is_empty == (not model.pairs)
    assert list(page) == model.records()


@given(
    st.lists(st.integers(), unique=True, min_size=0, max_size=20),
    st.lists(st.integers(), unique=True, min_size=0, max_size=20),
    st.integers(min_value=0, max_value=25),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_slice_moves_match_record_moves(low_keys, high_keys, count, upward):
    """``take_*_into`` moves the nearest records or, when that would
    break key order, raises and leaves both pages untouched."""
    low_keys, high_keys = sorted(low_keys), sorted(high_keys)
    source_records = [Record(key, key % 5) for key in low_keys]
    dest_records = [Record(key, None) for key in high_keys]
    source, dest = Page(source_records), Page(dest_records)
    source_model, dest_model = PageModel(source_records), PageModel(dest_records)

    if upward:
        moved = source_model.take_lowest(count)
        in_order = not (moved and dest_records) or moved[0].key > high_keys[-1]
        expected_dest = dest_records + moved
        move = source.take_lowest_into
    else:
        moved = source_model.take_highest(count)
        in_order = not (moved and dest_records) or moved[-1].key < high_keys[0]
        expected_dest = moved + dest_records
        move = source.take_highest_into

    if in_order:
        assert move(dest, count) == len(moved)
        assert source.records() == source_model.records()
        assert dest.records() == expected_dest
    else:
        with pytest.raises(UsageError, match="would break key order"):
            move(dest, count)
        assert source.records() == source_records
        assert dest.records() == dest_records


def test_move_between_slides_the_nearest_records():
    low = Page([Record(k) for k in (1, 2, 3)])
    high = Page([Record(k) for k in (10, 11)])
    # dest above source: the highest records slide up.
    assert move_between(low, high, source=1, dest=2, count=2) == 2
    assert [r.key for r in low] == [1]
    assert [r.key for r in high] == [2, 3, 10, 11]
    # dest below source: the lowest records slide back down.
    assert move_between(high, low, source=2, dest=1, count=3) == 3
    assert [r.key for r in low] == [1, 2, 3, 10]
    assert [r.key for r in high] == [11]


# ---------------------------------------------------------------------------
# file level: a full stack against a dict oracle
# ---------------------------------------------------------------------------

M, LOW_D, HIGH_D = 16, 4, 24
FILE_KEYS = st.integers(min_value=0, max_value=10_000)


def _assert_matches_oracle(dense, oracle):
    assert len(dense) == len(oracle)
    assert list(dense.items()) == sorted(oracle.items())
    dense.validate()


class DenseFileModelMachine(RuleBasedStateMachine):
    """Every command on a dense file, mirrored into a dict oracle."""

    @initialize()
    def setup(self):
        self.dense = DenseSequentialFile(M, LOW_D, HIGH_D)
        self.oracle = {}

    @rule(key=FILE_KEYS)
    def insert(self, key):
        if key in self.oracle or len(self.oracle) >= LOW_D * M:
            return
        self.oracle[key] = f"v{key}"
        self.dense.insert(key, f"v{key}")

    @rule(key=FILE_KEYS)
    def delete(self, key):
        if key not in self.oracle:
            return
        assert self.dense.delete(key) == Record(key, self.oracle.pop(key))

    @rule(lo=FILE_KEYS, hi=FILE_KEYS)
    def scan(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        expected = sorted(k for k in self.oracle if lo <= k <= hi)
        assert [r.key for r in self.dense.range(lo, hi)] == expected

    @invariant()
    def file_matches_oracle(self):
        if hasattr(self, "dense"):
            _assert_matches_oracle(self.dense, self.oracle)


TestDenseFileModel = DenseFileModelMachine.TestCase
TestDenseFileModel.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


def test_heterogeneous_keys_in_one_file_stay_identical():
    """Columns accept any ordered key type, exactly as a dict would."""
    dense = DenseSequentialFile(M, LOW_D, HIGH_D)
    oracle = {}
    for key in (Fraction(1, 3), Fraction(2, 3), Fraction(7, 2), Fraction(9)):
        dense.insert(key, str(key))
        oracle[key] = str(key)
    assert dense.delete(Fraction(2, 3)) == Record(Fraction(2, 3), "2/3")
    del oracle[Fraction(2, 3)]
    _assert_matches_oracle(dense, oracle)


# ---------------------------------------------------------------------------
# image level: the format byte packs exactly what it documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "records, expected_format",
    [
        ([Record(k) for k in (1, 5, 9)], PAGE_FORMAT_I64),
        ([Record(float(k), None) for k in range(4)], PAGE_FORMAT_F64),
        ([Record("a"), Record("bc"), Record("já")], PAGE_FORMAT_STR),
        ([Record(2, b"x"), Record(4, None)], PAGE_FORMAT_I64),
        # int64 overflow, bool contamination, mixed numeric types, long
        # strings, exotic keys, non-bytes values: all demote to the
        # generic object codec (format byte 0).
        ([Record(2**63)], PAGE_FORMAT_OBJECT),
        ([Record(-(2**63) - 1)], PAGE_FORMAT_OBJECT),
        ([Record(False), Record(2)], PAGE_FORMAT_OBJECT),
        ([Record(1), Record(2.5)], PAGE_FORMAT_OBJECT),
        ([Record("x" * 256)], PAGE_FORMAT_OBJECT),
        ([Record(Fraction(1, 3))], PAGE_FORMAT_OBJECT),
        ([Record((1, 2)), Record((3, 4))], PAGE_FORMAT_OBJECT),
        ([Record(1, "not-bytes")], PAGE_FORMAT_OBJECT),
        ([Record(1, 99)], PAGE_FORMAT_OBJECT),
        ([], PAGE_FORMAT_OBJECT),
    ],
)
def test_format_byte_classification(records, expected_format):
    image = encode_records_image(records)
    assert image[0] == expected_format
    assert decode_page_image(image) == records


def _page_by_inserts(records):
    page = Page()
    for record in reversed(records):
        page.insert_kv(record.key, record.value)
    return page


#: The ids keep the names of the two in-core page layouts the repo once
#: had.  Both now build the one ``Page``: from a record list in a single
#: call ("PackedPage") or one ``insert_kv`` at a time ("Page").
PAGE_BUILDS = [
    pytest.param(Page, id="PackedPage"),
    pytest.param(_page_by_inserts, id="Page"),
]


@pytest.mark.parametrize("build", PAGE_BUILDS)
def test_image_round_trip_is_exact_for_both_classes(build):
    records = [Record(k, bytes([k % 251])) for k in range(0, 40, 3)]
    page = build(records)
    image = encode_page_image(page)
    assert image[0] == PAGE_FORMAT_I64
    assert decode_page_image(image) == records


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=300),
                st.fractions(max_denominator=40),
            ),
            st.one_of(st.none(), st.binary(max_size=20), st.integers()),
        ),
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_every_image_round_trips(pairs):
    """Whatever the classifier picks, decoding restores exact records."""
    seen = set()
    records = []
    for key, value in pairs:
        marker = (type(key).__name__, key)
        if marker in seen:
            continue
        seen.add(marker)
        records.append(Record(key, value))
    records.sort(key=lambda record: (type(record.key).__name__, record.key))
    image = encode_records_image(records)
    decoded = decode_page_image(image)
    assert decoded == records
    for original, roundtripped in zip(records, decoded):
        assert type(roundtripped.key) is type(original.key)
        assert type(roundtripped.value) is type(original.value)


def test_mid_stream_demotion_and_repromotion():
    """A Fraction key demotes the *write*, not the page; removing it
    restores the packed format on the next write."""
    page = Page([Record(k) for k in (10, 20, 30)])
    assert encode_page_image(page)[0] == PAGE_FORMAT_I64
    page.insert_kv(Fraction(25, 1))
    demoted = encode_page_image(page)
    assert demoted[0] == PAGE_FORMAT_OBJECT
    assert decode_page_image(demoted) == page.records()
    page.remove(Fraction(25, 1))
    assert encode_page_image(page)[0] == PAGE_FORMAT_I64


def test_corrupt_images_raise_codec_errors():
    image = encode_records_image([Record(k, b"pay") for k in (1, 2, 3)])
    with pytest.raises(CodecError):
        decode_page_image(b"")
    with pytest.raises(CodecError):
        decode_page_image(bytes([77]) + image[1:])  # unknown format byte
    with pytest.raises(CodecError):
        decode_page_image(image[:-2])  # truncated value bytes
    with pytest.raises(CodecError):
        decode_page_image(image + b"\x00")  # trailing garbage


# ---------------------------------------------------------------------------
# on-disk compatibility: version-1 files predate the packed format
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir():
    path = tempfile.mkdtemp(prefix="packed-parity-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _disk_file(workdir, name, version):
    store = DiskStore.create(
        os.path.join(workdir, name),
        num_pages=M,
        d=LOW_D,
        D=HIGH_D,
        version=version,
    )
    return DenseSequentialFile(M, LOW_D, HIGH_D, store=store)


#: The ids keep the names of the two in-core page layouts the repo once
#: had.  The axis is now the page image a v2 file writes: bytes values
#: pack into the int64 format ("PackedPage"), str values demote to the
#: generic object codec ("Page").  Version 1 files have no format byte.
PAGE_VALUES = [
    pytest.param(lambda key: f"value-{key}".encode(), id="PackedPage"),
    pytest.param(lambda key: f"value-{key}", id="Page"),
]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("value_of", PAGE_VALUES)
def test_old_and_new_files_reopen_under_either_page_class(
    workdir, version, value_of
):
    """Both on-disk versions round trip and verify, with packed and
    demoted page images — in particular, legacy v1 files stay readable."""
    kind = "bytes" if isinstance(value_of(0), bytes) else "str"
    name = f"v{version}-{kind}.dsf"
    path = os.path.join(workdir, name)
    dense = _disk_file(workdir, name, version)
    for key in range(0, 120, 2):
        dense.insert(key, value_of(key))
    for key in range(0, 120, 10):
        dense.delete(key)
    expected = list(dense.items())
    dense.close()

    store = DiskStore.open(path)
    assert store.raw.version == version
    reopened = DenseSequentialFile(M, LOW_D, HIGH_D, store=store)
    reopened.engine.restore_from_store()
    assert list(reopened.items()) == expected
    reopened.validate()
    reopened.close()
    assert main(["verify", path], out=io.StringIO()) == 0

    # Both format versions also pass the scrub ladder untouched.
    from repro.storage.scrub import scrub

    report = scrub(path)
    assert report.healthy, report.summary()
    assert not report.corrupt


def test_format_byte_round_trips_through_journal_replay(workdir):
    """Journaled payloads are format-byte images; replay restores both
    the packed pages and the demoted (object-codec) ones exactly."""
    from repro.persistent import JournaledDenseFile

    path = os.path.join(workdir, "journaled.dsf")
    dense = JournaledDenseFile.create(path, num_pages=16, d=8, D=28)
    for key in range(0, 30, 2):
        dense.insert(key, bytes([key]))  # packed int64 pages
    dense.insert(Fraction(7, 2), "demoted")  # object-codec page
    dense.insert(Fraction(31, 3), (1, "tuple-value"))
    expected = dense.scan(0, 100)
    dense.close()

    reopened = JournaledDenseFile.open(path)
    assert reopened.scan(0, 100) == expected
    assert reopened.search(Fraction(7, 2)).value == "demoted"
    reopened.validate()
    reopened.close()


def test_format_byte_round_trips_through_replication(workdir):
    """Shipped WAL records carry page images verbatim; a replica
    reconstructs packed and demoted pages bit-exactly."""
    from repro.persistent import JournaledDenseFile
    from repro.replication import Failover, QueueTransport, bootstrap_replica

    primary = JournaledDenseFile.create(
        os.path.join(workdir, "primary.dsf"), num_pages=16, d=8, D=28
    )
    primary.insert_many(range(0, 40, 2))
    replica = bootstrap_replica(
        primary, os.path.join(workdir, "replica.dsf")
    )
    pair = Failover(primary, replica, QueueTransport())
    primary.insert(101, b"packed-value")
    primary.insert(Fraction(5, 3), "demoted-value")
    pair.sync()
    assert replica.search(101).value == b"packed-value"
    assert replica.search(Fraction(5, 3)).value == "demoted-value"
    _, records = replica.snapshot()
    assert dict(records) == {r.key: r.value for r in primary.scan(0, 200)}
    replica.close()
    primary.close()


def test_v1_and_v2_files_hold_identical_logical_state(workdir):
    """The format version changes slot bytes, never logical contents."""
    v1 = _disk_file(workdir, "old.dsf", 1)
    v2 = _disk_file(workdir, "new.dsf", 2)
    for dense in (v1, v2):
        for key in range(60):
            dense.insert(key, bytes([key]))
        for key in range(0, 60, 7):
            dense.delete(key)
    assert list(v1.items()) == list(v2.items())
    assert v1.stats.reads == v2.stats.reads
    assert v1.stats.writes == v2.stats.writes
    v1.close()
    v2.close()
