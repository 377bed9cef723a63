"""Scan readahead: the prefetch window in the buffered stack.

Readahead is purely physical: on a stream scan the buffer pool pulls
the next ``K`` nonempty pages into cache ahead of the cursor, so by
the time the scan reaches them they are hits instead of misses.  The
logical accounting — the paper's metered quantity — must not move by
a single access, and ``replay()`` semantics are untouched because
prefetched frames enter the pool clean.
"""

import math
import os
import random

import pytest

from repro import DenseSequentialFile, PersistentDenseFile
from repro.core.errors import ConfigurationError
from repro.storage.backend import (
    DEFAULT_CACHE_PAGES,
    BufferedStore,
    MemoryStore,
    make_store,
)

GEOMETRY = dict(num_pages=64, d=8, D=40)


def _loaded(readahead, cache_pages=8):
    dense = DenseSequentialFile(
        backend="buffered",
        cache_pages=cache_pages,
        readahead=readahead,
        **GEOMETRY,
    )
    dense.bulk_load(range(500))
    dense.flush()
    return dense


def _hit_rate(stats):
    served = stats["hits"] + stats["prefetch_hits"]
    demand = served + stats["misses"]
    return served / demand if demand else 0.0


class TestStreamScanHitRate:
    def test_readahead_beats_cold_scan(self):
        """Acceptance: higher buffer hit rate on the stream scenario."""
        rates = {}
        for window in (0, 8):
            dense = _loaded(window)
            before = dense.store.stats()
            assert sum(1 for _ in dense.range(0, 499)) == 500
            after = dense.store.stats()
            rates[window] = _hit_rate(
                {
                    key: after[key] - before[key]
                    for key in ("hits", "misses", "prefetch_hits")
                }
            )
            dense.close()
        assert rates[8] > rates[0]
        # With the cursor always one window behind the prefetcher, the
        # scan itself should be nearly all hits.
        assert rates[8] > 0.9

    def test_prefetch_hits_counted(self):
        dense = _loaded(4)
        list(dense.range(0, 499))
        stats = dense.store.stats()
        assert dense.store.readahead == 4
        assert stats["prefetches"] > 0
        assert stats["prefetch_hits"] > 0
        dense.close()

    def test_no_readahead_no_prefetch_counters_move(self):
        dense = _loaded(0)
        list(dense.range(0, 499))
        stats = dense.store.stats()
        assert dense.store.readahead == 0
        assert stats["prefetches"] == 0
        assert stats["prefetch_hits"] == 0
        dense.close()


def _scan(dense, entry, lo, width):
    """One scan through a public entry point (``iter`` reads every page)."""
    if entry == "range":
        return list(dense.range(lo, lo + width - 1))
    if entry == "scan":
        return dense.scan(lo, width)
    return list(dense.items())


def _counting_pool_prefetch(dense):
    """Wrap the pool's ``prefetch``; log the pages of every window.

    The buffered store's scan walk offers each window straight to the
    pool, so this is where every offer shows.
    """
    pool = dense.engine.pagefile.store.pool
    calls = []
    original = pool.prefetch

    def prefetch(window):
        window = list(window)
        calls.append(window)
        return original(window)

    pool.prefetch = prefetch
    return calls


class TestWindowStopsAtLastPage:
    """The window ends at the scan's last page; nothing is read twice."""

    @pytest.mark.parametrize("entry", ["range", "scan", "iter"])
    def test_scan_prefetches_only_its_own_pages(self, entry):
        dense = DenseSequentialFile(
            num_pages=128, d=8, D=40, backend="buffered",
            cache_pages=64, readahead=8,
        )
        dense.bulk_load(range(1000))
        dense.flush()
        calls = _counting_pool_prefetch(dense)
        before = dense.store.stats()
        dense.stats.checkpoint("scan")
        assert _scan(dense, entry, 400, 80)
        pages = dense.stats.delta("scan").page_accesses
        after = dense.store.stats()
        prefetches = after["prefetches"] - before["prefetches"]
        assert pages > 8
        assert prefetches <= pages - 1
        assert after["prefetch_hits"] - before["prefetch_hits"] == prefetches
        # One pool call per window the walk offers, never one per page.
        assert len(calls) <= pages - 1
        assert sum(map(len, calls)) >= prefetches
        dense.close()

    @pytest.mark.parametrize("entry", ["range", "scan"])
    def test_scattered_short_scans_leave_no_unread_frames(self, entry):
        dense = _loaded(4, cache_pages=16)
        rng = random.Random(11)
        for number in range(60):
            before = dense.store.stats()
            _scan(dense, entry, rng.randrange(460), 30)
            after = dense.store.stats()
            # Every prefetched frame was read by the scan that asked.
            assert after["prefetches"] == after["prefetch_hits"]
            if number:
                assert after["misses"] - before["misses"] <= 1
        before = dense.store.stats()
        assert len(list(dense.items())) == 500
        after = dense.store.stats()
        assert after["prefetches"] == after["prefetch_hits"]
        assert after["misses"] - before["misses"] <= 1
        dense.close()


class TestOncePerWindow:
    """The walk offers a window only after reading the last one through."""

    @pytest.mark.parametrize("entry", ["range", "scan", "iter"])
    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_undisturbed_scan_offers_each_window_once(self, entry, window):
        dense = DenseSequentialFile(
            num_pages=128, d=8, D=40, backend="buffered",
            cache_pages=32, readahead=window,
        )
        dense.bulk_load(range(1000))
        dense.flush()
        # Bulk loading leaves the highest pages resident; the scan
        # starts low, so none of its pages is cached when it begins.
        offers = _counting_pool_prefetch(dense)
        before = dense.store.stats()
        dense.stats.checkpoint("scan")
        assert _scan(dense, entry, 0, 160)
        pages = dense.stats.delta("scan").page_accesses
        after = dense.store.stats()
        assert pages > 2 * window
        assert len(offers) <= math.ceil((pages - 1) / window)
        assert all(len(offer) <= window for offer in offers)
        prefetches = after["prefetches"] - before["prefetches"]
        assert prefetches == pages - 1
        assert after["prefetch_hits"] - before["prefetch_hits"] == prefetches
        assert after["misses"] - before["misses"] == 1
        dense.close()

    def test_resident_page_in_window_falls_back_to_per_page_offers(self):
        dense = _loaded(4, cache_pages=32)
        pagefile = dense.engine.pagefile
        run = pagefile.nonempty_in_range(0, 100)
        dense.search(pagefile.page(run[2]).min_key)  # one page is cached
        offers = _counting_pool_prefetch(dense)
        list(dense.range(0, 100))
        # The first window held the resident page: it is offered again,
        # slid by one, after the next read.
        assert offers[0] == run[1:5]
        assert offers[1] == run[2:6]
        stats = dense.store.stats()
        assert stats["prefetches"] == stats["prefetch_hits"]
        dense.close()


class TestSuspendedRangeScan:
    def test_keys_stay_in_bounds_across_shift_moves(self):
        """Pages the scan planned may fill with foreign keys meanwhile."""
        lo, hi = 1000, 2000
        dense = DenseSequentialFile(
            num_pages=64, d=8, D=40, backend="buffered",
            cache_pages=8, readahead=4,
        )
        dense.bulk_load(range(0, 3000, 10))
        pagefile = dense.engine.pagefile
        planned = pagefile.nonempty_in_range(lo, hi)
        scan = dense.range(lo, hi)
        assert next(scan).key == lo  # the first page is read
        moved = dense.engine.records_moved_total
        for key in range(lo + 10, hi + 1, 20):
            dense.delete(key)
        rng = random.Random(5)
        above = [key for key in range(hi + 1, hi + 3000) if key % 10]
        for key in rng.sample(above, 250):
            dense.insert(key)
        dense.validate()
        assert dense.engine.records_moved_total > moved
        # SHIFT moved keys above ``hi`` into pages strictly inside the
        # planned run, so only the per-page bounds check keeps them out.
        assert any(
            key > hi
            for page in planned[1:-1]
            for key in pagefile.page(page)._keys
        )
        rest = [record.key for record in scan]
        assert rest
        assert all(lo <= key <= hi for key in rest)
        assert rest == sorted(rest)
        dense.close()


class TestLogicalAccountingUnchanged:
    @pytest.mark.parametrize("scan", ["range", "scan", "iter"])
    def test_page_accesses_identical(self, scan):
        """Readahead must not change the paper's logical meter at all."""
        meters = {}
        for window in (0, 8):
            dense = _loaded(window)
            dense.stats.checkpoint("scan")
            if scan == "range":
                list(dense.range(100, 400))
            elif scan == "scan":
                dense.scan(0, 250)
            else:
                list(dense)
            meters[window] = dense.stats.delta("scan").page_accesses
            dense.close()
        assert meters[0] == meters[8]

    def test_mixed_workload_state_identical(self):
        images = {}
        for window in (0, 4):
            dense = _loaded(window, cache_pages=6)
            dense.delete_range(200, 260)
            dense.insert_many(range(1000, 1050))
            list(dense.range(0, 2000))
            dense.validate()
            images[window] = (dense.occupancies(), len(dense))
            dense.close()
        assert images[0] == images[4]


class TestWindowMechanics:
    def test_prefetch_clamps_to_file_bounds(self):
        store = BufferedStore(MemoryStore(8), capacity=4, readahead=16)
        # Out-of-range page numbers are dropped, not faulted.
        assert store.prefetch([6, 7, 8, 9, 200, 0, -3]) <= 4
        assert store.stats()["prefetches"] <= 4

    def test_prefetch_skips_resident_pages(self):
        store = BufferedStore(MemoryStore(8), capacity=4, readahead=4)
        store.get_page(3)
        faulted = store.prefetch([3, 4])
        assert faulted == 1  # page 3 already resident

    def test_negative_readahead_rejected(self):
        with pytest.raises(ValueError):
            BufferedStore(MemoryStore(8), capacity=4, readahead=-1)

    def test_base_store_prefetch_is_noop(self):
        store = MemoryStore(8)
        assert store.readahead == 0
        assert store.prefetch([1, 2, 3]) == 0


class TestPersistentWiring:
    def test_readahead_requires_cache(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache_pages"):
            PersistentDenseFile.create(
                str(tmp_path / "ra.dsf"), readahead=4, **GEOMETRY
            )

    def test_readahead_survives_reopen(self, tmp_path):
        path = str(tmp_path / "ra2.dsf")
        with PersistentDenseFile.create(
            path, cache_pages=8, readahead=4, **GEOMETRY
        ) as dense:
            dense.insert_many(range(200))
        with PersistentDenseFile.open(
            path, cache_pages=8, readahead=4
        ) as dense:
            list(dense.range(0, 199))
            stats = dense.store.stats()
            assert dense.store.readahead == 4
            assert stats["prefetch_hits"] > 0


class TestStoreConfiguration:
    """``cache_pages=None`` means the default pool; any other value is the
    pool size, so one below 1 meets the pool's refusal; readahead needs
    a cache to prefetch into."""

    def test_none_means_the_default_pool(self):
        store = make_store("buffered", 16, cache_pages=None)
        assert store.pool.capacity == DEFAULT_CACHE_PAGES
        dense = DenseSequentialFile(backend="buffered", **GEOMETRY)
        assert dense.store.pool.capacity == DEFAULT_CACHE_PAGES

    @pytest.mark.parametrize("cache_pages", [0, -2])
    def test_make_store_refuses_an_empty_pool(self, cache_pages):
        with pytest.raises(ConfigurationError, match="at least one frame"):
            make_store("buffered", 16, cache_pages=cache_pages)

    def test_dense_file_refuses_an_empty_pool(self):
        with pytest.raises(ConfigurationError, match="at least one frame"):
            DenseSequentialFile(backend="buffered", cache_pages=0, **GEOMETRY)

    def test_buffered_disk_refusal_closes_the_file_it_created(self, tmp_path):
        # Both cache refusals come before the file is made: none is
        # left behind, and the same call with a good cache succeeds.
        path = str(tmp_path / "refused.dsf")
        refusals = [
            ({"cache_pages": 0}, "at least one frame"),
            ({"cache_pages": 4, "readahead": -1}, "readahead must be >= 0"),
        ]
        for options, message in refusals:
            with pytest.raises(ConfigurationError, match=message):
                make_store("buffered", 16, d=8, D=40, path=path, **options)
            with pytest.raises(ConfigurationError, match=message):
                PersistentDenseFile.create(path, 64, 8, 40, **options)
            assert not os.path.exists(path)
        with PersistentDenseFile.create(path, 64, 8, 40, cache_pages=4) as dense:
            dense.insert(1, "v")
        with PersistentDenseFile.open(path, cache_pages=4) as dense:
            assert dense.search(1).value == "v"

    def test_readahead_without_a_cache_is_refused(self):
        with pytest.raises(ConfigurationError, match="readahead"):
            DenseSequentialFile(16, 2, 8, readahead=8)
        with pytest.raises(ConfigurationError, match="readahead"):
            make_store("memory", 16, readahead=4)

    def test_disk_readahead_is_refused_before_the_file_exists(self, tmp_path):
        path = tmp_path / "no-cache.dsf"
        with pytest.raises(ConfigurationError, match="readahead"):
            make_store("disk", 16, d=8, D=40, path=str(path), readahead=4)
        assert not path.exists()

    @pytest.mark.parametrize("backend", ["memory", "disk", "buffered"])
    def test_cache_pages_is_accepted_by_every_backend(self, backend, tmp_path):
        # The stress harness passes cache_pages=8 whatever the stack.
        path = str(tmp_path / "any.dsf") if backend == "disk" else None
        store = make_store(backend, 16, d=8, D=40, path=path, cache_pages=8)
        try:
            assert store.readahead == 0
            if backend == "buffered":
                assert store.pool.capacity == 8
        finally:
            store.close()


class TestReadyMadeStoreConflicts:
    """A ready-made ``store=`` plus an option that contradicts it is
    refused; options that describe the store, or are left at their
    defaults, are accepted."""

    @pytest.mark.parametrize(
        "option",
        [
            {"readahead": 8},
            {"cache_pages": 4},
            {"path": "elsewhere.dsf"},
            {"backend": "disk"},
            {"overwrite": True},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_a_contradicting_option_is_refused(self, option):
        with pytest.raises(ConfigurationError, match=next(iter(option))):
            DenseSequentialFile(store=MemoryStore(64), **option, **GEOMETRY)

    def test_options_that_describe_the_store_are_accepted(self, tmp_path):
        store = BufferedStore(MemoryStore(64), capacity=4, readahead=8)
        dense = DenseSequentialFile(
            store=store, backend="buffered", cache_pages=4, readahead=8,
            **GEOMETRY,
        )
        assert dense.store is store and dense.store.readahead == 8
        path = str(tmp_path / "ready.dsf")
        disk = make_store("buffered", 64, d=8, D=40, path=path, cache_pages=4)
        try:
            dense = DenseSequentialFile(store=disk, path=path, **GEOMETRY)
            assert dense.store is disk
        finally:
            disk.close()

    def test_defaults_ask_for_nothing(self):
        store = BufferedStore(MemoryStore(64), capacity=4, readahead=8)
        assert DenseSequentialFile(store=store, **GEOMETRY).store is store


CLI_GEOMETRY = ["--pages", "16", "--low-density", "8", "--capacity", "40"]


class TestCliRefusesReadaheadWithoutACache:
    @pytest.mark.parametrize(
        "argv",
        [
            ["create", "{path}", *CLI_GEOMETRY, "--readahead", "4"],
            ["create", "{path}", *CLI_GEOMETRY, "--backend", "disk",
             "--readahead", "4"],
            ["info", "{path}", "--backend", "disk", "--readahead", "4"],
            ["verify", "{path}", "--readahead", "4"],
        ],
        ids=["create-journaled", "create-disk", "info-disk", "verify-journaled"],
    )
    def test_readahead_off_the_buffered_backend_is_exit_1(self, tmp_path, argv):
        import io

        from repro.cli import EXIT_ERROR, main

        path = str(tmp_path / "cli.dsf")
        if argv[0] != "create":
            assert main(["create", path, *CLI_GEOMETRY], out=io.StringIO()) == 0
        out = io.StringIO()
        argv = [part.format(path=path) for part in argv]
        assert main(argv, out=out) == EXIT_ERROR
        assert "--readahead prefetches into a page cache" in out.getvalue()

    def test_buffered_backend_takes_the_window(self, tmp_path):
        import io

        from repro.cli import main

        path = str(tmp_path / "cli.dsf")
        assert main(["create", path, *CLI_GEOMETRY], out=io.StringIO()) == 0
        out = io.StringIO()
        assert main(["info", path, "--backend", "buffered", "--cache-pages",
                     "4", "--readahead", "4"], out=out) == 0
        assert "readahead: window 4" in out.getvalue()
