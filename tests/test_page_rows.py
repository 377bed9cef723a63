"""The rows a page caches for scans, held to the columns they come from.

A page keeps an immutable tuple of its records once a range or counted
scan has read it (``Page.rows``), and every column mutation drops it.
These tests check that the cache never outlives a change:

* **page level** — Hypothesis streams run every ``Page`` mutator on
  two pages against a sorted-list model, interleaved with both reads
  (``rows``, ``records``); after each step a cached tuple must equal a
  fresh build from the columns;
* **file level** — engine commands (inserts and deletes with their
  SHIFT steps, batched writes, updates) interleaved with range and
  counted scans on the memory and buffered stacks;
* **rewrites beneath an open file** — ``DiskStore.reload``, a replica
  apply, a ``scrub`` heal and ``recover_file`` redo each rewrite a page
  whose rows a scan cached, and the next scan returns the new contents;
* **suspended scans** — a ``range`` generator paused across an insert,
  a delete or a SHIFT yields what the scan yielded before pages cached
  rows: each page's records as they stand when the scan reaches it;
* **shared readers** — four threads scan one memory file, whose readers
  share the lock, while a writer inserts and deletes; every result
  equals the file's contents when the lock admitted that read.
"""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile, JournaledDenseFile, PersistentDenseFile
from repro.concurrent.file import ThreadSafeDenseFile
from repro.core.errors import DuplicateKeyError, RecordNotFoundError, UsageError
from repro.records import Record
from repro.replication import Failover, QueueTransport, bootstrap_replica
from repro.storage.ondisk import DiskPagedStore
from repro.storage.packed import encode_records_image
from repro.storage.page import Page
from repro.storage.scrub import scrub
from repro.storage.wal import TransactionJournal, recover_file


def _fresh(page):
    """The page's records built straight from its columns."""
    return tuple(Record(k, v) for k, v in zip(page._keys, page._values))


def _assert_coherent(page):
    if page._rows is not None:
        assert page._rows == _fresh(page)


# ---------------------------------------------------------------------------
# page level: every mutator on two pages, every read in between
# ---------------------------------------------------------------------------

KEYS = st.integers(0, 40)
SIDE = st.integers(0, 1)

PAGE_STEPS = st.one_of(
    st.tuples(st.sampled_from(["insert_kv", "insert", "replace"]), SIDE,
              KEYS, st.integers()),
    st.tuples(st.just("remove"), SIDE, KEYS),
    st.tuples(st.sampled_from(["extend_high", "take_lowest_into",
                               "take_highest_into"]), SIDE, st.integers(0, 4)),
    st.tuples(st.sampled_from(["clear", "rows", "records"]), SIDE),
)


def _batch_above(top, count):
    return [Record(top + 1 + i, i) for i in range(count)]


def _on_page(pages, step):
    name, side = step[0], step[1]
    page, other = pages[side], pages[1 - side]
    if name in ("insert_kv", "remove"):
        return getattr(page, name)(*step[2:])
    if name in ("insert", "replace"):
        return getattr(page, name)(Record(*step[2:]))
    if name == "extend_high":
        return page.extend_high(
            _batch_above(page.max_key if len(page) else -1, step[2])
        )
    if name.startswith("take_"):
        return getattr(page, name)(other, step[2])
    return getattr(page, name)()  # clear, rows, records


def _on_model(models, step):
    """The same step on sorted ``(key, value)`` lists."""
    name, side = step[0], step[1]
    model, other = models[side], models[1 - side]
    records = lambda pairs: [Record(*pair) for pair in pairs]
    keys = [key for key, _ in model]
    if name in ("insert_kv", "insert"):
        if step[2] in keys:
            return "DuplicateKeyError"
        model.append(tuple(step[2:]))
        model.sort()
        return model.index(tuple(step[2:]))
    if name in ("remove", "replace"):
        if step[2] not in keys:
            return "RecordNotFoundError"
        index = keys.index(step[2])
        old = Record(*model[index])
        if name == "remove":
            del model[index]
        else:
            model[index] = tuple(step[2:])
        return old
    if name == "extend_high":
        model.extend(_batch_above(keys[-1] if keys else -1, step[2]))
        return None
    if name.startswith("take_"):
        count = min(step[2], len(model))
        if count == 0:
            return 0
        if name == "take_lowest_into":
            moved = model[:count]
            if other and moved[0][0] <= other[-1][0]:
                return "UsageError"
            del model[:count]
            other.extend(moved)
        else:
            moved = model[-count:]
            if other and moved[-1][0] >= other[0][0]:
                return "UsageError"
            del model[-count:]
            other[:0] = moved
        return count
    if name == "clear":
        taken = records(model)
        model.clear()
        return taken
    if name == "rows":
        return tuple(records(model))
    return records(model)  # records


@settings(max_examples=300, deadline=None)
@given(st.lists(KEYS, max_size=8), st.lists(PAGE_STEPS, max_size=50),
       st.booleans())
@example([1, 2, 3], [("rows", 0), ("replace", 0, 2, 9), ("rows", 0)], False)
@example([1, 2, 3], [("rows", 1), ("take_highest_into", 0, 1)], False)
def test_cached_rows_follow_every_mutation(preload, steps, warm):
    """``warm`` fills both caches after every step, so the next step's
    mutation always meets cached rows; otherwise only the stream's own
    reads fill them."""
    low = sorted(set(preload))
    pages = [Page([Record(k, k) for k in low]), Page()]
    models = [[(k, k) for k in low], []]
    for step in steps:
        try:
            got = _on_page(pages, step)
        except (DuplicateKeyError, RecordNotFoundError, UsageError) as exc:
            got = type(exc).__name__
        assert got == _on_model(models, step), step
        for page, model in zip(pages, models):
            _assert_coherent(page)
            assert page.records() == [Record(*pair) for pair in model]
            if warm:
                page.rows()


def test_scans_fill_the_cache_and_iteration_does_not():
    dense = DenseSequentialFile(8, 4, 16)
    dense.bulk_load(range(20))
    pagefile = dense.engine.pagefile
    pages = [pagefile.page(n) for n in pagefile.nonempty_pages()]
    assert all(page._rows is None for page in pages)
    assert list(dense.keys()) == list(range(20))
    pagefile.snapshot()
    assert all(page._rows is None for page in pages)
    assert [r.key for r in dense.range(3, 11)] == list(range(3, 12))
    filled = [page for page in pages if page._rows is not None]
    assert filled and len(filled) < len(pages)
    assert dense.scan(12, 8) == [Record(k, None) for k in range(12, 20)]
    assert pagefile.page(pagefile.nonempty_pages()[-1])._rows is not None
    # Public reads still hand out fresh lists.
    first = filled[0]
    assert isinstance(first.records(), list)
    assert first.records() is not first.records()


# ---------------------------------------------------------------------------
# file level: engine commands interleaved with scans
# ---------------------------------------------------------------------------

FILE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "delete", "update"]),
                  st.integers(0, 400)),
        st.tuples(st.just("insert_many"), st.integers(0, 400),
                  st.integers(1, 12)),
        st.tuples(st.just("delete_range"), st.integers(0, 400),
                  st.integers(0, 30)),
        st.tuples(st.just("range"), st.integers(-5, 405), st.integers(0, 120)),
        st.tuples(st.just("scan"), st.integers(-5, 405), st.integers(0, 40)),
    ),
    max_size=60,
)


@pytest.mark.parametrize("backend", ["memory", "buffered"])
@settings(max_examples=60, deadline=None)
@given(steps=FILE_STEPS)
def test_file_commands_keep_cached_rows_coherent(backend, steps):
    kwargs = {} if backend == "memory" else {
        "backend": "buffered", "cache_pages": 3, "readahead": 2,
    }
    dense = DenseSequentialFile(16, 4, 24, **kwargs)
    oracle = {key: key for key in range(0, 400, 7)}
    dense.bulk_load(Record(k, v) for k, v in oracle.items())
    pagefile = dense.engine.pagefile
    for step in steps:
        name, key = step[0], step[1]
        if name == "insert" and key not in oracle and len(oracle) < 60:
            dense.insert(key, -key)
            oracle[key] = -key
        elif name == "delete" and key in oracle:
            assert dense.delete(key) == Record(key, oracle.pop(key))
        elif name == "update" and key in oracle:
            dense.update(key, key + 1000)
            oracle[key] = key + 1000
        elif name == "insert_many":
            fresh = [k for k in range(key, key + step[2]) if k not in oracle]
            fresh = fresh[: max(0, 60 - len(oracle))]
            dense.insert_many(Record(k, 2 * k) for k in fresh)
            oracle.update((k, 2 * k) for k in fresh)
        elif name == "delete_range":
            dense.delete_range(key, key + step[2])
            for k in [k for k in oracle if key <= k <= key + step[2]]:
                del oracle[k]
        elif name == "range":
            lo, hi = key, key + step[2]
            assert list(dense.range(lo, hi)) == [
                Record(k, oracle[k]) for k in sorted(oracle) if lo <= k <= hi
            ]
        elif name == "scan":
            ordered = [k for k in sorted(oracle) if k >= key][: step[2]]
            assert dense.scan(key, step[2]) == [
                Record(k, oracle[k]) for k in ordered
            ]
        for page_number in range(1, pagefile.num_pages + 1):
            _assert_coherent(pagefile.page(page_number))
    assert list(dense.items()) == sorted(oracle.items())
    dense.validate()


# ---------------------------------------------------------------------------
# rewrites beneath an open file
# ---------------------------------------------------------------------------


def _everything(dense):
    return list(dense.range(-(10**9), 10**9))


def _corrupt_slot(path, page):
    with DiskPagedStore.open(path) as raw:
        offset = raw._slot_offset(page)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"\xff\xff\xff\xff")


class TestRewritesBeneathCachedRows:
    def test_disk_store_reload(self, tmp_path):
        path = str(tmp_path / "reload.dsf")
        with PersistentDenseFile.create(path, num_pages=16, d=4, D=24) as dense:
            dense.insert_many(Record(k, k) for k in range(60))
            page = dense.engine.pagefile.nonempty_pages()[1]
            before = _everything(dense)
            rows = dense.engine.pagefile.page(page).rows()
            assert dense.engine.pagefile.page(page)._rows is rows
            # Same keys, new values: the directory stays valid.
            rewritten = [Record(r.key, f"new{r.key}") for r in rows]
            dense._raw.write_page_payload(page, encode_records_image(rewritten))
            dense.reload_pages([page])
            after = _everything(dense)
        changed = {r.key for r in rewritten}
        assert after == [
            Record(r.key, f"new{r.key}") if r.key in changed else r
            for r in before
        ]

    def test_replica_apply(self, tmp_path):
        path = str(tmp_path / "primary.dsf")
        primary = JournaledDenseFile.create(path, 16, 4, 24, overwrite=True)
        primary.insert_many(Record(k, k) for k in range(0, 120, 2))
        replica = bootstrap_replica(primary, path + ".replica")
        pair = Failover(primary, replica, QueueTransport())
        try:
            pair.sync()
            assert replica.scan(-1, 100) == _everything(primary)
            primary.insert(31, "inserted")
            primary.update(40, "updated")
            primary.delete(50)
            pair.sync()
            expected = _everything(primary)
            assert Record(31, "inserted") in expected
            assert replica.scan(-1, 100) == expected
        finally:
            replica.close()
            primary.close()

    def test_scrub_heal(self, tmp_path):
        path = str(tmp_path / "heal.dsf")
        with JournaledDenseFile.create(path, num_pages=16, d=4, D=24) as dense:
            dense.insert_many(Record(k, k) for k in range(60))
        reader = PersistentDenseFile.open(path)
        try:
            _everything(reader)
            pagefile = reader.engine.pagefile
            page = pagefile.nonempty_pages()[0]
            key = pagefile.page(page).min_key
            assert pagefile.page(page)._rows is not None
            # The last transaction covers only ``page``; its applied
            # image is what scrub heals the corrupted slot from.
            with JournaledDenseFile.open(path) as writer:
                writer.update(key, "healed")
            _corrupt_slot(path, page)
            assert scrub(path).healed == (page,)
            reader.reload_pages([page])
            assert reader.search(key) == Record(key, "healed")
            assert _everything(reader)[0] == Record(key, "healed")
        finally:
            reader.close()
        with PersistentDenseFile.open(path) as reopened:
            assert _everything(reopened)[0] == Record(key, "healed")

    def test_recover_file_redo(self, tmp_path):
        path = str(tmp_path / "redo.dsf")
        with PersistentDenseFile.create(path, num_pages=16, d=4, D=24) as dense:
            dense.insert_many(Record(k, k) for k in range(60))
        reader = PersistentDenseFile.open(path)
        try:
            before = _everything(reader)
            pagefile = reader.engine.pagefile
            page = pagefile.nonempty_pages()[2]
            rows = pagefile.page(page).rows()
            redone = [Record(r.key, "redone") for r in rows]
            TransactionJournal.beside(path).write_transaction(
                {page: encode_records_image(redone)}
            )
            assert recover_file(path) is not None
            reader.reload_pages([page])
            keys = {r.key for r in rows}
            assert _everything(reader) == [
                Record(r.key, "redone") if r.key in keys else r
                for r in before
            ]
        finally:
            reader.close()


# ---------------------------------------------------------------------------
# suspended scans
# ---------------------------------------------------------------------------


def _scan_as_built_per_page(pagefile, lo, hi):
    """A range scan that builds each page's records when it reaches it.

    The run of pages is fixed when the scan starts; each page's records
    are read from its columns at the moment the scan moves onto it.
    """
    for page_number in pagefile.nonempty_in_range(lo, hi):
        yield from [
            record for record in pagefile.page(page_number).records()
            if lo <= record.key <= hi
        ]


MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 700)),
    st.tuples(st.just("shift"), st.integers(0, 15), st.booleans(),
              st.integers(1, 6)),
)


def _mutate(dense, keys, mutation):
    pagefile = dense.engine.pagefile
    if mutation[0] == "insert" and mutation[1] not in keys:
        dense.insert(mutation[1], "late")
        keys.add(mutation[1])
    elif mutation[0] == "delete" and mutation[1] in keys:
        dense.delete(mutation[1])
        keys.discard(mutation[1])
    elif mutation[0] == "shift":
        # One SHIFT step between a non-empty page and its neighbour,
        # with the rank counters kept in step as the engine keeps them.
        nonempty = pagefile.nonempty_pages()
        source = nonempty[mutation[1] % len(nonempty)]
        dest = source + (1 if mutation[2] else -1)
        if 1 <= dest <= pagefile.num_pages:
            try:
                moved = pagefile.move_records(source, dest, mutation[3])
            except UsageError:
                return
            dense.engine.calibrator.add(source, -moved)
            dense.engine.calibrator.add(dest, moved)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(-5, 700),
    width=st.integers(0, 400),
    pause=st.integers(0, 60),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
)
@example(lo=0, width=300, pause=8, mutations=[("insert", 91)])
@example(lo=0, width=300, pause=8, mutations=[("shift", 2, True, 3)])
def test_suspended_range_yields_what_it_did_before_rows_were_cached(
    lo, width, pause, mutations
):
    dense = DenseSequentialFile(16, 4, 24)
    keys = set(range(0, 640, 16))
    dense.bulk_load(sorted(keys))
    hi = lo + width
    # Warm every page's rows first: the stale cache is what could leak.
    _everything(dense)
    pagefile = dense.engine.pagefile
    scan = dense.range(lo, hi)
    reference = _scan_as_built_per_page(pagefile, lo, hi)
    head = [record for record, _ in zip(scan, range(pause))]
    assert head == [record for record, _ in zip(reference, range(pause))]
    for mutation in mutations:
        _mutate(dense, keys, mutation)
    assert list(scan) == list(reference)
    dense.validate()


def test_insert_into_the_next_page_of_a_paused_scan_is_seen():
    dense = DenseSequentialFile(16, 4, 24)
    dense.bulk_load(range(0, 640, 16))
    _everything(dense)
    pagefile = dense.engine.pagefile
    first, second = pagefile.nonempty_pages()[:2]
    on_first = len(pagefile.page(first))
    scan = dense.range(0, 10**6)
    head = [next(scan) for _ in range(on_first)]
    late = pagefile.page(second).min_key + 1
    dense.insert(late, "late")
    rest = list(scan)
    assert Record(late, "late") in rest
    assert [r.key for r in head + rest] == sorted(
        list(range(0, 640, 16)) + [late]
    )


# ---------------------------------------------------------------------------
# shared readers
# ---------------------------------------------------------------------------


def test_shared_readers_fill_rows_while_a_writer_mutates():
    dense = DenseSequentialFile(32, 8, 40)
    initial = {key: key for key in range(0, 300, 4)}
    dense.bulk_load(Record(k, v) for k, v in initial.items())
    front = ThreadSafeDenseFile(dense)
    assert front.shared_reads
    lock = front.lock

    # ``states[n]`` is the contents after the n-th write; the writer
    # appends while it still holds the exclusive lock, and each reader
    # notes the newest state once the lock has admitted it.
    states = [dict(initial)]
    model = dict(initial)
    admitted = threading.local()
    acquire_read, release_write = lock.acquire_read, lock.release_write

    def noting_acquire_read(*args, **kwargs):
        acquire_read(*args, **kwargs)
        admitted.state = len(states) - 1

    def publishing_release_write(*args, **kwargs):
        states.append(dict(model))
        release_write(*args, **kwargs)

    lock.acquire_read = noting_acquire_read
    lock.release_write = publishing_release_write

    failures = []

    def writer():
        rng = random.Random(1)
        for _ in range(400):
            key = rng.randrange(300)
            if key in model:
                del model[key]
                front.delete(key)
            else:
                model[key] = -key
                front.insert(key, -key)

    def reader(seed):
        rng = random.Random(seed)
        for _ in range(150):
            lo = rng.randrange(-10, 300)
            if rng.random() < 0.5:
                hi = lo + rng.randrange(80)
                got = front.range(lo, hi)
                state = states[admitted.state]
                expected = [Record(k, state[k]) for k in sorted(state)
                            if lo <= k <= hi]
            else:
                count = rng.randrange(40)
                got = front.scan(lo, count)
                state = states[admitted.state]
                expected = [Record(k, state[k]) for k in sorted(state)
                            if k >= lo][:count]
            if got != expected:
                failures.append((lo, admitted.state))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(seed,))
                    for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(states) == 401
    assert lock.stats()["readers_served"] == 600
    assert list(dense.items()) == sorted(model.items())
    pagefile = dense.engine.pagefile
    for page_number in range(1, pagefile.num_pages + 1):
        _assert_coherent(pagefile.page(page_number))
    dense.validate()
