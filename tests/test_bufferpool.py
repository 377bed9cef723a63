"""Tests for the LRU buffer-pool simulator."""

from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import UsageError
from repro.storage.bufferpool import BufferPool, PoolStats, miss_curve, replay
from repro.storage.tracing import AccessEvent, READ, WRITE


def events(*pairs):
    return [AccessEvent(kind, page) for kind, page in pairs]


class TestBufferPool:
    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_first_touch_misses_then_hits(self):
        pool = BufferPool(2)
        assert not pool.access(READ, 1)
        assert pool.access(READ, 1)
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.access(READ, 1)
        pool.access(READ, 2)
        pool.access(READ, 1)  # 2 becomes LRU
        pool.access(READ, 3)  # evicts 2
        assert pool.resident_pages() == [1, 3]
        assert pool.stats.evictions == 1

    def test_clean_eviction_writes_nothing(self):
        pool = BufferPool(1)
        pool.access(READ, 1)
        pool.access(READ, 2)
        assert pool.stats.physical_writes == 0

    def test_dirty_eviction_writes_back(self):
        pool = BufferPool(1)
        pool.access(WRITE, 1)
        pool.access(READ, 2)
        assert pool.stats.physical_writes == 1

    def test_write_hit_marks_dirty(self):
        pool = BufferPool(2)
        pool.access(READ, 1)
        pool.access(WRITE, 1)
        pool.access(READ, 2)
        pool.access(READ, 3)  # evicts dirty 1
        assert pool.stats.physical_writes == 1

    def test_flush_writes_dirty_frames_once(self):
        pool = BufferPool(4)
        pool.access(WRITE, 1)
        pool.access(WRITE, 2)
        pool.access(READ, 3)
        assert pool.flush() == 2
        assert pool.flush() == 0  # now clean

    @pytest.mark.parametrize("touches", [0, -3])
    def test_touches_below_one_are_refused(self, touches):
        pool = BufferPool(2)
        with pytest.raises(UsageError, match="touches"):
            pool.access(READ, 1, touches)
        assert asdict(pool.stats) == asdict(PoolStats(capacity=2))
        assert pool.resident_pages() == []

    def test_every_miss_is_a_physical_read(self):
        pool = BufferPool(2)
        for page in (1, 2, 3, 1):
            pool.access(READ, page)
        assert pool.stats.physical_reads == pool.stats.misses


class HookFailure(Exception):
    """Raised by an armed :class:`Hooks` on its ``fail_at``-th call."""


class Hooks:
    """``on_fault``/``on_writeback`` that log every call in one ordered
    list and, while armed, raise :class:`HookFailure` on the
    ``fail_at``-th call (counting from 1)."""

    def __init__(self, fail_at=None):
        self.events = []
        self.fail_at = fail_at
        self.armed = True

    def fault(self, page):
        self._call("fault", page)

    def writeback(self, page):
        self._call("writeback", page)

    def _call(self, kind, page):
        self.events.append((kind, page))
        if self.armed and len(self.events) == self.fail_at:
            raise HookFailure(kind, page)


class ReferenceLRU:
    """A plain list-and-dict write-back LRU, the spec for :class:`BufferPool`.

    Every counter moves just before the hook call it meters, so a hook
    that raises leaves the counters as the events up to it left them.
    ``fired`` names the rarer rules a sequence exercised, so the tests
    can show that their sequences reach them.
    """

    def __init__(self, capacity, hooks):
        self.capacity = capacity
        self.order = []  # least recently used first
        self.dirty = {}
        self.unread = set()  # prefetched, not yet accessed
        self.stats = asdict(PoolStats(capacity=capacity))
        self.hooks = hooks
        self.fired = set()

    def _write_back(self, page):
        self.stats["physical_writes"] += 1
        self.hooks.writeback(page)

    def _bring_in(self, page, dirty):
        """Evict the LRU page of a full pool, then read ``page`` in;
        return whether the victim was written back."""
        evicted_dirty = False
        if len(self.order) == self.capacity:
            victim = self.order.pop(0)
            self.unread.discard(victim)
            self.stats["evictions"] += 1
            evicted_dirty = self.dirty.pop(victim)
            if evicted_dirty:
                self._write_back(victim)
        self.stats["physical_reads"] += 1
        self.hooks.fault(page)
        self.order.append(page)
        self.dirty[page] = dirty
        return evicted_dirty

    def access(self, write, page):
        if page in self.dirty:
            self.stats["hits"] += 1
            if page in self.unread:
                self.unread.remove(page)
                self.stats["prefetch_hits"] += 1
            self.order.remove(page)
            self.order.append(page)
            self.dirty[page] = self.dirty[page] or write
            return True
        self.stats["misses"] += 1
        self._bring_in(page, write)
        return False

    def prefetch(self, pages):
        """Admit each page of the window not yet resident, in order,
        until the first decline; return how many were admitted."""
        admitted = 0
        for page in pages:
            if page in self.dirty:
                continue
            if len(self.order) == self.capacity and self.order[0] in self.unread:
                self.fired.add("decline-partway" if admitted else "decline")
                break
            self.stats["prefetches"] += 1
            if self._bring_in(page, False):
                self.fired.add(
                    "writeback-partway" if admitted else "prefetch-writeback"
                )
            self.unread.add(page)
            admitted += 1
        return admitted

    def flush(self):
        """Write each dirty page back in LRU order, counting it and
        marking it clean once its hook returned."""
        written = [page for page in self.order if self.dirty[page]]
        for page in written:
            self.hooks.writeback(page)
            self.stats["physical_writes"] += 1
            self.dirty[page] = False
        return len(written)


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write"]), st.integers(1, 8)),
        st.tuples(
            st.just("prefetch"), st.lists(st.integers(1, 8), max_size=5)
        ),
        st.just(("flush", 0)),
    ),
    max_size=60,
)

#: Pinned sequences: a one-page window declined because the LRU frame
#: is an unread prefetched page, and a one-page window whose LRU victim
#: is dirty.
DECLINE = (2, [("prefetch", [1]), ("prefetch", [2]), ("prefetch", [3])])
PREFETCH_WRITEBACK = (2, [("write", 1), ("read", 2), ("prefetch", [3])])
#: Pinned windows: one that skips a resident page, admits two and is
#: declined at its fourth page; one whose second page evicts a dirty
#: frame.
DECLINE_PARTWAY = (2, [("read", 1), ("prefetch", [1, 2, 3, 4])])
WRITEBACK_PARTWAY = (2, [("read", 1), ("write", 2), ("prefetch", [3, 4])])
#: Pinned hook failures inside a window: the fault of its second page
#: (event 5: faults 1, 2, write-back 1, faults 3, 4), and the write-back
#: its second page forces (event 4: faults 1, 2, 3, write-back 2).
FAULT_RAISES_PARTWAY = (
    2, [("write", 1), ("read", 2), ("prefetch", [3, 4]), ("read", 3)], 5,
)
WRITEBACK_RAISES_PARTWAY = (
    2, [("read", 1), ("write", 2), ("prefetch", [3, 4]), ("read", 4)], 4,
)
#: A flush whose second write-back raises (event 5: faults 1, 2, 3,
#: then write-backs 2, 3): page 2 is written, counted and clean, page 3
#: stays dirty, and the flush after it writes page 3 alone.
FLUSH_RAISES_PARTWAY = (
    3, [("write", 1), ("write", 2), ("write", 3), ("read", 1),
        ("flush", 0), ("flush", 0)], 5,
)


def _step(target, kind, page):
    """Apply one operation; ``page`` is the window for a prefetch."""
    if kind == "flush":
        return target.flush()
    if kind == "prefetch":
        return target.prefetch(page)
    if isinstance(target, BufferPool):
        return target.access(WRITE if kind == "write" else READ, page)
    return target.access(kind == "write", page)


def _outcome(target, kind, page):
    try:
        return "returned", _step(target, kind, page)
    except HookFailure as failure:
        return "raised", failure.args


def _drive(capacity, operations, fail_at=None):
    """Run ``operations`` on a pool and the reference; compare each step.

    With ``fail_at``, the ``fail_at``-th hook call of an access, a
    prefetch or a flush raises on both sides, and the comparison goes
    on from the state the failure left.
    """
    hooks = Hooks(fail_at)
    pool = BufferPool(
        capacity, on_fault=hooks.fault, on_writeback=hooks.writeback
    )
    reference = ReferenceLRU(capacity, Hooks(fail_at))
    for kind, page in operations:
        before = pool.stats.prefetches, pool.stats.physical_writes
        outcome = _outcome(pool, kind, page)
        assert outcome == _outcome(reference, kind, page)
        if outcome[0] == "raised" and kind in ("prefetch", "flush"):
            counted = (
                pool.stats.prefetches - before[0] > 1
                if kind == "prefetch"
                else pool.stats.physical_writes > before[1]
            )
            reference.fired.add(
                f"{kind}-{outcome[1][0]}-raises" + ("-partway" if counted else "")
            )
        assert asdict(pool.stats) == reference.stats
        assert list(pool.frames.items()) == [
            (frame, reference.dirty[frame]) for frame in reference.order
        ]
        assert pool._prefetched == reference.unread
        # One ordered list of hook calls: faults and write-backs
        # interleave exactly as the reference issues them.
        assert hooks.events == reference.hooks.events
    return reference.fired


class TestAgainstReferenceLRU:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 6), operations=OPERATIONS)
    @example(*DECLINE)
    @example(*PREFETCH_WRITEBACK)
    @example(*DECLINE_PARTWAY)
    @example(*WRITEBACK_PARTWAY)
    def test_every_step_matches_the_reference(self, capacity, operations):
        _drive(capacity, operations)

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        operations=OPERATIONS,
        fail_at=st.integers(1, 40),
    )
    @example(*FAULT_RAISES_PARTWAY)
    @example(*WRITEBACK_RAISES_PARTWAY)
    @example(*FLUSH_RAISES_PARTWAY)
    def test_a_raising_hook_leaves_the_reference_state(
        self, capacity, operations, fail_at
    ):
        _drive(capacity, operations, fail_at)

    def test_pinned_sequences_reach_the_rare_rules(self):
        assert "decline" in _drive(*DECLINE)
        assert "prefetch-writeback" in _drive(*PREFETCH_WRITEBACK)
        assert "decline-partway" in _drive(*DECLINE_PARTWAY)
        assert "writeback-partway" in _drive(*WRITEBACK_PARTWAY)
        assert "prefetch-fault-raises-partway" in _drive(*FAULT_RAISES_PARTWAY)
        assert "prefetch-writeback-raises-partway" in _drive(
            *WRITEBACK_RAISES_PARTWAY
        )
        assert "flush-writeback-raises-partway" in _drive(*FLUSH_RAISES_PARTWAY)

    def test_pinned_windows_end_where_the_rules_say(self):
        faults, writebacks = [], []
        pool = BufferPool(2, on_fault=faults.append,
                          on_writeback=writebacks.append)
        pool.access(READ, 1)
        # 1 is resident, 2 fills the pool, 3 evicts 1, and 4 would
        # evict the unread 2: the window stops there.
        assert pool.prefetch([1, 2, 3, 4]) == 2
        assert pool.resident_pages() == [2, 3]
        assert faults == [1, 2, 3]
        pool = BufferPool(2, on_fault=faults.append,
                          on_writeback=writebacks.append)
        pool.access(READ, 1)
        pool.access(WRITE, 2)
        # 3 evicts the clean 1; 4 evicts the dirty 2 and writes it back.
        assert pool.prefetch([3, 4]) == 2
        assert writebacks == [2]
        assert pool.stats.prefetches == 2 and pool.stats.evictions == 2


class TestRangeScanStreamGolden:
    """A buffered range-scan stream whose windows are mostly cut short:
    six frames under a readahead of eight, with inserts dirtying pages
    between the scans.  Its pool counters and its ordered hook calls
    are pinned to the values the per-page readahead admission gave."""

    @staticmethod
    def _drive():
        import random

        from repro import DenseSequentialFile

        rng = random.Random(27)
        dense = DenseSequentialFile(
            256, 8, 48, backend="buffered", cache_pages=6, readahead=8
        )
        present = set(rng.sample(range(40000), 1200))
        dense.bulk_load((key, key) for key in sorted(present))
        pool = dense.store.pool
        events = []
        fault, writeback = pool.on_fault, pool.on_writeback
        pool.on_fault = lambda page: (events.append(("fault", page)),
                                      fault(page))
        pool.on_writeback = lambda page: (events.append(("writeback", page)),
                                          writeback(page))
        scanned = 0
        for _ in range(400):
            key = rng.randrange(40000)
            if rng.random() < 0.8:
                scanned += len(list(dense.range(key, key + 1500)))
            elif key not in present:
                dense.insert(key, key)
                present.add(key)
        dense.validate()
        return dense, events, scanned

    def test_pool_counters_and_hook_calls_match_the_golden_values(self):
        import hashlib

        dense, events, scanned = self._drive()
        assert scanned == 14669
        assert asdict(dense.store.pool.stats) == {
            "capacity": 6,
            "hits": 3157,
            "misses": 664,
            "physical_reads": 3704,
            "physical_writes": 319,
            "evictions": 3698,
            "prefetches": 3040,
            "prefetch_hits": 3021,
        }
        assert len(events) == 3517
        digest = hashlib.sha256(repr(events).encode()).hexdigest()
        assert digest[:16] == "38b7b37f0c98d5ef"


class TestReplay:
    def test_replay_counts_and_flushes(self):
        stats = replay(events((WRITE, 1), (READ, 1), (WRITE, 2)), capacity=4)
        assert stats.accesses == 3
        assert stats.hits == 1
        assert stats.physical_writes == 2  # final flush of pages 1 and 2

    def test_hit_rate_bounds(self):
        stats = replay(events((READ, 1)) * 0, capacity=2)
        assert stats.hit_rate == 0.0
        stats = replay(events((READ, 1), (READ, 1), (READ, 1)), capacity=2)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_miss_curve_is_monotone(self):
        trace = events(*[(READ, page % 8) for page in range(200)])
        curve = miss_curve(trace, [1, 2, 4, 8])
        rates = [stats.hit_rate for stats in curve]
        assert rates == sorted(rates)
        assert curve[-1].hit_rate > 0.9  # everything fits at 8 frames

    def test_sequential_sweep_needs_one_frame(self):
        trace = events(*[(READ, page) for page in range(1, 50)])
        stats = replay(trace, capacity=1)
        assert stats.hits == 0  # pure sweep: every page new
        assert stats.physical_reads == 49


class TestEngineLocality:
    def test_dense_updates_cache_better_than_btree(self):
        """The 'one fell swoop' claim, quantified at 8 frames."""
        from repro import Control2Engine, DensityParams
        from repro.baselines.btree import BPlusTree
        from repro.workloads import converging_inserts, run_workload

        dense = Control2Engine(DensityParams(num_pages=128, d=8, D=48))
        dense.disk.trace.enable()
        tree = BPlusTree(fanout=16, leaf_capacity=48)
        tree.disk.trace.enable()
        operations = converging_inserts(600)
        run_workload(dense, operations)
        run_workload(tree, operations)
        dense_stats = replay(list(dense.disk.trace), capacity=8)
        tree_stats = replay(list(tree.disk.trace), capacity=8)
        assert dense_stats.hit_rate > tree_stats.hit_rate


class TestClosedStoreLifetime:
    @pytest.mark.parametrize("backend", ["memory", "buffered"])
    def test_closed_store_dies_without_a_collection(self, backend):
        """The pool's hooks hold no reference back to the store, so a
        closed file's store is freed by reference counting alone."""
        import gc
        import weakref

        from repro import DenseSequentialFile

        dense = DenseSequentialFile(128, 8, 48, backend=backend)
        dense.insert_many(range(0, 600, 3))
        store = dense.store
        before = store.stats()
        dense.close()
        # The counters stay readable after close.
        assert store.stats().keys() == before.keys()
        ref = weakref.ref(store)
        gc.disable()
        try:
            del dense, store
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("journaled", [False, True])
    def test_snapshotted_stack_dies_without_a_collection(
        self, tmp_path, journaled
    ):
        """The counter registry refers to the stack's components and
        none of them refers back, so a file whose counters were read
        is freed by reference counting alone once it is closed."""
        import gc
        import weakref

        from repro import JournaledDenseFile, PersistentDenseFile

        path = str(tmp_path / "f.dsf")
        if journaled:
            dense = JournaledDenseFile.create(path, 64, 8, 40)
        else:
            PersistentDenseFile.create(path, 64, 8, 40).close()
            dense = PersistentDenseFile.open(path, cache_pages=4)
        dense.insert_many(range(0, 300, 3))
        assert dense.store_stats()["storage.disk.writes"] > 0
        dense.close()
        refs = [weakref.ref(part) for part in (dense, dense.metrics, dense.store)]
        gc.disable()
        try:
            del dense
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestPhysicalEventsReachTheInnerStoreOnce:
    """A buffered-over-disk file meters each fault and write-back once:
    in the pool's counters, and as one touch of the inner store."""

    @staticmethod
    def _drive(path):
        import random

        from repro import DenseSequentialFile

        rng = random.Random(24)
        dense = DenseSequentialFile(
            32, 8, 48, backend="buffered", path=path, cache_pages=4,
            readahead=2,
        )
        present = set(range(0, 4000, 20))
        dense.insert_many((key, key) for key in sorted(present))
        for _ in range(300):
            roll = rng.random()
            key = rng.randrange(4000)
            if roll < 0.5:
                list(dense.range(key, key + 800))
            elif roll < 0.8:
                if key not in present:
                    dense.insert(key, key)
                    present.add(key)
            else:
                victim = rng.choice(sorted(present))
                dense.delete(victim)
                present.discard(victim)
        dense.validate()
        return dense

    def test_pool_counters_match_the_golden_values(self, tmp_path):
        dense = self._drive(str(tmp_path / "scan.dsf"))
        try:
            assert asdict(dense.store.pool.stats) == {
                "capacity": 4,
                "hits": 693,
                "misses": 127,
                "evictions": 199,
                "prefetches": 76,
                "prefetch_hits": 76,
                "physical_reads": 203,
                "physical_writes": 115,
            }
        finally:
            dense.close()

    def test_every_physical_event_reaches_the_inner_store_once(self, tmp_path):
        dense = self._drive(str(tmp_path / "scan.dsf"))
        try:
            pool = dense.store.pool.stats
            inner = dense.store.inner.stats()
            assert inner["gets"] == pool.physical_reads
            assert inner["puts"] == inner["physical_writes"]
            assert inner["physical_writes"] == pool.physical_writes
        finally:
            dense.close()

    def test_stats_carry_no_second_physical_meter(self, tmp_path):
        dense = self._drive(str(tmp_path / "scan.dsf"))
        try:
            stats = dense.store.stats()
            assert "physical_cost" not in stats
            assert sorted(stats) == [
                "evictions", "hit_rate", "hits", "misses", "physical_reads",
                "physical_writes", "prefetch_hits", "prefetches",
            ]
        finally:
            dense.close()

    def test_close_fsyncs_once(self, tmp_path):
        import os
        from unittest import mock

        dense = self._drive(str(tmp_path / "scan.dsf"))
        dirty = sum(dense.store.pool.frames.values())
        assert dirty, "the stream should leave dirty frames to write back"
        writes = dense.store.pool.stats.physical_writes
        with mock.patch("os.fsync", wraps=os.fsync) as fsync:
            dense.close()
        assert fsync.call_count == 1
        assert dense.closed
        # Every dirty frame still went down before the one fsync.
        assert dense.store.pool.stats.physical_writes == writes + dirty
        assert dense.store.inner.stats()["physical_writes"] == writes + dirty
