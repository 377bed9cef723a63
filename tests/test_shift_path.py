"""The SHIFT path's shortcuts against the plain calls they replace.

Three shortcuts keep a SHIFT step and an update command cheap on the
buffered stack, and each is pinned here to the longer form it stands in
for:

* ``BufferedStore.get_page2`` makes one pool call for its two touches,
  and ``BufferedStore.move_records`` issues its three touches itself;
  the pool must end exactly as after the same touches issued as plain
  ``BufferPool.access`` calls (every ``PoolStats`` field, the frame
  order, the dirty bits and the unread prefetched set).
* ``PageFile.move_records`` patches the in-core directory after one
  bisect; it must equal what ``rebuild_directory`` builds from the
  pages.
* SHIFT reads the source page's length from its leaf's rank counter;
  ``validate()`` checks the counters against the pages after every
  command.
"""

from dataclasses import asdict
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    Control2Engine,
    DensityParams,
    MacroBlockControl2Engine,
)
from repro.storage.backend import BufferedStore, MemoryStore
from repro.storage.bufferpool import BufferPool
from repro.storage.tracing import READ, WRITE

PAGES = 8
READAHEAD = 3

PAGE = st.integers(1, PAGES)
STORE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get_page", "get_page2", "put_page"]), PAGE),
        st.tuples(st.just("move_records"), PAGE, PAGE).filter(
            lambda step: step[1] != step[2]
        ),
        st.tuples(st.just("prefetch"), st.lists(PAGE, max_size=5)),
    ),
    max_size=50,
)

#: At one frame, dest's fault evicts the source the move just read.
MOVE_EVICTS_SOURCE = (1, [("move_records", 2, 1), ("get_page2", 2)])
#: A fused read of a prefetched frame the scan has not read yet.
FUSED_READ_OF_PREFETCHED = (
    3,
    [("prefetch", [4, 5]), ("get_page2", 5), ("get_page2", 4)],
)
#: A window the pool declines at its third page (the LRU frame is the
#: unread first one), and a window whose second page evicts a dirty frame.
WINDOW_DECLINED_PARTWAY = (2, [("prefetch", [2, 3, 4])])
WINDOW_EVICTS_DIRTY_PARTWAY = (
    2,
    [("get_page", 1), ("put_page", 2), ("prefetch", [3, 4])],
)


def _reference_prefetch(pool, pages):
    """``BufferedStore.prefetch`` spelled as one-page pool windows."""
    for page in islice(pages, READAHEAD):
        if page in pool.frames or not 1 <= page <= PAGES:
            continue
        if not pool.prefetch([page]):
            break


def _drive_store(capacity, operations):
    """Run ``operations`` on a store and on a pool fed plain accesses."""
    store = BufferedStore(MemoryStore(PAGES), capacity=capacity,
                          readahead=READAHEAD)
    faults, writebacks = [], []
    pool = store.pool
    fault, writeback = pool.on_fault, pool.on_writeback

    def logged_fault(page):
        faults.append(page)
        fault(page)

    def logged_writeback(page):
        writebacks.append(page)
        writeback(page)

    pool.on_fault, pool.on_writeback = logged_fault, logged_writeback
    reference_faults, reference_writebacks = [], []
    reference = BufferPool(capacity, on_fault=reference_faults.append,
                           on_writeback=reference_writebacks.append)
    for operation in operations:
        name = operation[0]
        if name == "get_page":
            store.get_page(operation[1])
            reference.access(READ, operation[1])
        elif name == "get_page2":
            store.get_page2(operation[1])
            reference.access(READ, operation[1])
            reference.access(READ, operation[1])
        elif name == "put_page":
            store.put_page(operation[1])
            reference.access(WRITE, operation[1])
        elif name == "move_records":
            source, dest = operation[1], operation[2]
            store.move_records(source, dest, 1)
            reference.access(READ, source)
            reference.access(WRITE, dest)
            reference.access(WRITE, source)
        else:
            store.prefetch(operation[1])
            _reference_prefetch(reference, operation[1])
        assert asdict(pool.stats) == asdict(reference.stats), operation
        assert list(pool.frames.items()) == list(reference.frames.items())
        assert pool._prefetched == reference._prefetched
        assert faults == reference_faults
        assert writebacks == reference_writebacks
    inner = store.inner.stats()
    assert inner["gets"] == store.pool.stats.physical_reads
    assert inner["puts"] == store.pool.stats.physical_writes
    return store.pool.stats


class TestPoolTwinsReference:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 6), operations=STORE_OPERATIONS)
    @example(*MOVE_EVICTS_SOURCE)
    @example(*FUSED_READ_OF_PREFETCHED)
    @example(*WINDOW_DECLINED_PARTWAY)
    @example(*WINDOW_EVICTS_DIRTY_PARTWAY)
    def test_every_step_matches_plain_accesses(self, capacity, operations):
        _drive_store(capacity, operations)

    def test_pinned_sequences_reach_the_rare_cases(self):
        moved = _drive_store(*MOVE_EVICTS_SOURCE)
        # READ 2 faults, WRITE 1 evicts 2, WRITE 2 evicts dirty 1, and
        # the fused read then hits twice.
        assert (moved.misses, moved.evictions, moved.hits) == (3, 2, 2)
        assert moved.physical_writes == 1
        prefetched = _drive_store(*FUSED_READ_OF_PREFETCHED)
        assert prefetched.prefetches == 2
        assert prefetched.prefetch_hits == 2
        assert (prefetched.hits, prefetched.misses) == (4, 0)
        declined = _drive_store(*WINDOW_DECLINED_PARTWAY)
        assert (declined.prefetches, declined.evictions) == (2, 0)
        dirty = _drive_store(*WINDOW_EVICTS_DIRTY_PARTWAY)
        assert (dirty.prefetches, dirty.evictions) == (2, 2)
        assert dirty.physical_writes == 1


# ----------------------------------------------------------------------
# directory and counters under bursts
# ----------------------------------------------------------------------

GAP = 1000


#: Engine factories over M values including non-powers of two.
ENGINES = {
    "control2-m12": lambda: Control2Engine(
        DensityParams(num_pages=12, d=4, D=17)
    ),
    "control2-m7-j1": lambda: Control2Engine(
        DensityParams(num_pages=7, d=3, D=13, j=1)
    ),
    "control2-m16-buffered": lambda: Control2Engine(
        DensityParams(num_pages=16, d=4, D=17),
        store=BufferedStore(MemoryStore(16), capacity=2, readahead=2),
    ),
    "macroblock-m20": lambda: MacroBlockControl2Engine(
        num_pages=20, d=4, D=6
    ),
}

BURSTS = st.lists(
    st.tuples(
        st.sampled_from(["ascending", "descending", "delete"]),
        st.integers(0, 11),  # which preload gap (or delete seed)
        st.integers(1, 30),  # burst length
    ),
    min_size=1,
    max_size=6,
)


def _check_directory_and_counters(engine):
    pagefile = engine.pagefile
    nonempty, mins = list(pagefile._nonempty), list(pagefile._mins)
    pagefile.rebuild_directory()
    assert pagefile._nonempty == nonempty
    assert pagefile._mins == mins
    engine.validate()


def _run_bursts(engine, bursts):
    """Drive bursts into the gaps of a spaced preload; check each command."""
    capacity = engine.params.max_records
    if isinstance(engine, MacroBlockControl2Engine):
        capacity = engine.physical_max_records
    preload = [index * GAP for index in range(capacity // 3)]
    engine.bulk_load(preload)
    present = set(preload)
    for kind, where, length in bursts:
        if kind == "delete":
            victims = sorted(present)[where::2][:length]
            for key in victims:
                engine.delete(key)
                present.discard(key)
                _check_directory_and_counters(engine)
            continue
        base = (where % max(1, len(preload))) * GAP + 1
        keys = [key for key in range(base, base + length) if key not in present]
        if kind == "descending":
            keys.reverse()
        for key in keys[: capacity - len(present)]:
            engine.insert(key)
            present.add(key)
            _check_directory_and_counters(engine)
    assert sorted(record.key for record in engine.iter_records()) == sorted(
        present
    )


class TestDirectoryAndCounters:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(ENGINES)),
        bursts=BURSTS,
    )
    def test_bursts_keep_directory_and_counters_exact(self, name, bursts):
        _run_bursts(ENGINES[name](), bursts)

    def test_each_engine_shifts_both_ways(self):
        """The pinned bursts really run SHIFT, leftward and rightward."""
        for name, build in ENGINES.items():
            engine = build()
            directions = set()
            shift = engine._shift

            def spy(node, shift=shift, engine=engine):
                dest = engine.destinations[node]
                changed = shift(node)
                source = engine.sources.get(node)
                if changed and source is not None:
                    directions.add("left" if dest < source else "right")
                return changed

            engine._shift = spy
            _run_bursts(
                engine,
                [("ascending", 0, 30), ("descending", 6, 30),
                 ("delete", 0, 20), ("ascending", 5, 30)],
            )
            assert engine.stuck_shifts == 0, name
            assert directions == {"left", "right"}, name
