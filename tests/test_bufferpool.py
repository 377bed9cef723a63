"""Tests for the LRU buffer-pool simulator."""

from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_every_miss_is_a_physical_read(self):
        pool = BufferPool(2)
        for page in (1, 2, 3, 1):
            pool.access(READ, page)
        assert pool.stats.physical_reads == pool.stats.misses


class ReferenceLRU:
    """A plain list-and-dict write-back LRU, the spec for :class:`BufferPool`.

    ``fired`` names the rarer rules a sequence exercised, so the tests
    can show that their sequences reach them.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []  # least recently used first
        self.dirty = {}
        self.unread = set()  # prefetched, not yet accessed
        self.stats = asdict(PoolStats(capacity=capacity))
        self.faults = []
        self.writebacks = []
        self.fired = set()

    def _write_back(self, page):
        self.stats["physical_writes"] += 1
        self.writebacks.append(page)

    def _bring_in(self, page, dirty):
        """Evict the LRU page of a full pool, then read ``page`` in."""
        evicted_dirty = False
        if len(self.order) == self.capacity:
            victim = self.order.pop(0)
            self.unread.discard(victim)
            self.stats["evictions"] += 1
            evicted_dirty = self.dirty.pop(victim)
            if evicted_dirty:
                self._write_back(victim)
        self.stats["physical_reads"] += 1
        self.faults.append(page)
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
        written = [page for page in self.order if self.dirty[page]]
        for page in written:
            self._write_back(page)
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


def _drive(capacity, operations):
    """Run ``operations`` on a pool and the reference; compare each step."""
    faults, writebacks = [], []
    pool = BufferPool(
        capacity, on_fault=faults.append, on_writeback=writebacks.append
    )
    reference = ReferenceLRU(capacity)
    for kind, page in operations:
        if kind == "flush":
            assert pool.flush() == reference.flush()
        elif kind == "prefetch":
            # ``page`` is the window here: a list of page numbers.
            assert pool.prefetch(page) == reference.prefetch(page)
        else:
            write = kind == "write"
            got = pool.access(WRITE if write else READ, page)
            assert got == reference.access(write, page)
        assert asdict(pool.stats) == reference.stats
        assert list(pool.frames.items()) == [
            (frame, reference.dirty[frame]) for frame in reference.order
        ]
        assert pool._prefetched == reference.unread
        assert faults == reference.faults
        assert writebacks == reference.writebacks
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

    def test_pinned_sequences_reach_the_rare_rules(self):
        assert "decline" in _drive(*DECLINE)
        assert "prefetch-writeback" in _drive(*PREFETCH_WRITEBACK)
        assert "decline-partway" in _drive(*DECLINE_PARTWAY)
        assert "writeback-partway" in _drive(*WRITEBACK_PARTWAY)

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
