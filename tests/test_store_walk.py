"""The buffered store's scan walk against the base walk it overrides.

``BufferedStore.walk`` inlines the pool's read-hit path and offers each
readahead window straight to ``pool.prefetch``; ``PageStore.walk`` is
the loop every other store (and every decorator) runs, touching each
page through ``get_page`` and offering windows through ``prefetch``.
Both must leave everything observable identical.  Each check runs twin
buffered stacks, one on the override and one on ``PageStore.walk``
called on the same class, and after every page either walk yields
compares:

* the pool's counters, its frame order and dirty bits, and its set of
  prefetched frames not yet read;
* the ordered log of the pool's fault and write-back hooks;
* the meter's ``reads``, ``cost`` and ``seeks`` and its access trace.

The generated runs interleave range, counted and full scans with
inserts, deletes and SHIFT bursts (consecutive keys into one gap), at 4
and 64 frames and readahead 0, 4 and 8; some leave a range scan
suspended across mutations.  Two pinned cases cover a suspended scan
and a fault hook that raises in the middle of a readahead window.
"""

from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile
from repro.storage.backend import BufferedStore, PageStore

#: Slack 20 > 3 * ceil(log2 32): plain CONTROL 2, at most d * M = 128
#: records.
M, LOW_D, HIGH_D = 32, 4, 24
#: Records the generated runs keep below, so every insert is legal.
MOST_RECORDS = 120
#: The preload: every hundredth key; a burst of a few dozen keys into
#: one gap overfills its page, so CONTROL 2 SHIFTs records away.
PRELOAD = range(0, 6000, 100)


class Twin:
    """One buffered stack whose walk logs the observable state after
    every page it yields."""

    def __init__(self, cache, window, base):
        self.dense = DenseSequentialFile(
            M, LOW_D, HIGH_D, backend="buffered", cache_pages=cache,
            readahead=window,
        )
        self.dense.bulk_load(PRELOAD)
        store = self.dense.store
        assert type(store) is BufferedStore
        self.pool = store.pool
        self.disk = self.dense.engine.disk
        self.disk.trace.enable()
        self.hooks = []
        fault, writeback = self.pool.on_fault, self.pool.on_writeback
        self.fail_on = None

        def on_fault(page):
            self.hooks.append(("fault", page))
            if page == self.fail_on:
                raise OSError(f"planted fault on page {page}")
            return fault(page)

        def on_writeback(page):
            self.hooks.append(("writeback", page))
            return writeback(page)

        self.pool.on_fault = on_fault
        self.pool.on_writeback = on_writeback
        walk = partial(PageStore.walk, store) if base else store.walk
        self.states = []

        def observed(pages, charge):
            for page in walk(pages, charge):
                self.states.append(self.state())
                yield page

        store.walk = observed

    def state(self):
        """Everything both walks must leave identical.  The hook log and
        the trace only grow, so their lengths here and their whole
        contents at each comparison pin every prefix."""
        stats = self.disk.stats
        return (
            asdict(self.pool.stats),
            list(self.pool.frames.items()),
            sorted(self.pool.unread),
            len(self.hooks),
            (stats.reads, stats.cost, stats.seeks),
            len(self.disk.trace),
        )

    def everything(self):
        return (
            self.state(), self.states, self.hooks, list(self.disk.trace),
        )


def _twins(cache, window):
    return Twin(cache, window, base=False), Twin(cache, window, base=True)


def _same(twins):
    override, base = twins
    assert override.everything() == base.everything()


def _apply(twin, op, present):
    """Run one generated operation; returns what a scan yielded."""
    dense = twin.dense
    kind, a, b = op
    if kind == "range":
        return [record.key for record in dense.range(a, a + b)]
    if kind == "count":
        return [record.key for record in dense.scan(a, b)]
    if kind == "iter":
        return list(dense)
    if kind == "insert":
        dense.insert(a)
    elif kind == "delete":
        dense.delete(a)
    return None


def _plan(draws, present):
    """Turn drawn operations into legal ones against the key set
    ``present`` (updated in place); the same plan drives both twins."""
    plan = []
    for kind, a, b in draws:
        if kind in ("insert", "burst"):
            # An insert lands ``b`` above a preloaded key; a burst fills
            # the gap above ``a * 100`` one key at a time.
            if kind == "insert":
                keys = [a * 100 + b]
            else:
                keys = [a * 100 + step for step in range(1, b + 1)]
            for key in keys:
                if key not in present and len(present) < MOST_RECORDS:
                    present.add(key)
                    plan.append(("insert", key, None))
        elif kind == "delete":
            if present:
                key = sorted(present)[a % len(present)]
                present.discard(key)
                plan.append(("delete", key, None))
        else:
            plan.append((kind, a, b))
    return plan


SCANS = st.one_of(
    st.tuples(st.just("range"), st.integers(-200, 6200), st.integers(0, 4000)),
    st.tuples(st.just("count"), st.integers(-200, 6200), st.integers(0, 90)),
    st.tuples(st.just("iter"), st.none(), st.none()),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 62), st.integers(1, 99)),
    st.tuples(st.just("delete"), st.integers(0, 200), st.none()),
    st.tuples(st.just("burst"), st.integers(0, 62), st.integers(2, 40)),
)
#: ``("suspend", (lo, width, taken), mutations)``: read ``taken`` records
#: of a range scan, mutate, then read the rest.
SUSPENDS = st.tuples(
    st.just("suspend"),
    st.tuples(st.integers(0, 5000), st.integers(500, 4000), st.integers(1, 30)),
    st.lists(MUTATIONS, min_size=1, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(
    cache=st.sampled_from((4, 64)),
    window=st.sampled_from((0, 4, 8)),
    ops=st.lists(st.one_of(SCANS, MUTATIONS, SUSPENDS), min_size=1, max_size=14),
)
@example(
    cache=4,
    window=4,
    ops=[
        ("range", 0, 6000),
        ("burst", 20, 30),
        ("suspend", (1000, 3000, 6), [("burst", 25, 30), ("delete", 3, None)]),
        ("count", 1500, 40),
        ("iter", None, None),
    ],
)
def test_buffered_walk_matches_the_base_walk(cache, window, ops):
    twins = _twins(cache, window)
    present = set(PRELOAD)
    for op in ops:
        if op[0] == "suspend":
            (lo, width, taken), mutations = op[1], op[2]
            plan = _plan(mutations, present)
            scans = [iter(twin.dense.range(lo, lo + width)) for twin in twins]
            heads = [
                [record.key for _, record in zip(range(taken), scan)]
                for scan in scans
            ]
            assert heads[0] == heads[1]
            _same(twins)
            for step in plan:
                for twin in twins:
                    _apply(twin, step, present)
                _same(twins)
            tails = [[record.key for record in scan] for scan in scans]
            assert tails[0] == tails[1]
            _same(twins)
            continue
        for step in _plan([op], present):
            results = [_apply(twin, step, present) for twin in twins]
            assert results[0] == results[1]
            if results[0] is not None and step[0] == "iter":
                assert results[0] == sorted(present)
            _same(twins)
    for twin in twins:
        twin.dense.validate()


def test_scan_suspended_across_shifts_stays_identical():
    """A range scan left open while bursts SHIFT records through the
    pages it planned to read, then read to its end."""
    twins = _twins(4, 4)
    scans = [iter(twin.dense.range(1000, 5000)) for twin in twins]
    for scan in scans:
        assert next(scan).key == 1000
    _same(twins)
    moved = [twin.dense.engine.records_moved_total for twin in twins]
    for gap in (15, 30):
        for key in range(gap * 100 + 1, gap * 100 + 31):
            for twin in twins:
                twin.dense.insert(key)
            _same(twins)
    assert all(
        twin.dense.engine.records_moved_total > before
        for twin, before in zip(twins, moved)
    )
    tails = [[record.key for record in scan] for scan in scans]
    assert tails[0] == tails[1]
    assert all(1000 <= key <= 5000 for key in tails[0])
    _same(twins)


@pytest.mark.parametrize("window", [4, 8])
def test_fault_hook_raising_mid_window_leaves_identical_state(window):
    """The second page of a readahead window fails to fault in: both
    walks raise at the same hook call and leave the same pool, and the
    next scan carries on identically."""
    twins = _twins(4, window)
    run = twins[0].dense.engine.pagefile.nonempty_in_range(2000, 5900)
    for twin in twins:
        twin.fail_on = run[2]
    for twin in twins:
        prefetches = twin.pool.stats.prefetches
        with pytest.raises(OSError, match="planted fault"):
            list(twin.dense.range(2000, 5900))
        # The window's first page came in; the raise was on its second.
        assert twin.pool.stats.prefetches == prefetches + 2
        faults = [hook for hook in twin.hooks if hook[0] == "fault"]
        assert faults[-2:] == [("fault", run[1]), ("fault", run[2])]
    _same(twins)
    for twin in twins:
        twin.fail_on = None
    results = [[record.key for record in twin.dense.range(2000, 5900)]
               for twin in twins]
    assert results[0] == results[1] == list(range(2000, 5901, 100))
    _same(twins)
