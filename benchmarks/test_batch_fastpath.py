"""Microbenchmarks: the batched write fast paths vs. per-record loops.

Wall-clock companion to ``tests/test_batch_operations.py``'s I/O-count
assertions — the grouped ``insert_many`` touches each destination page
once per run of same-page records, so both the physical work and the
Python overhead drop.  The per-record rows run the loop the bulk call
replaces: one ``insert`` per sorted key, one ``delete`` per key in the
range.  Run with ``pytest benchmarks/ --benchmark-only``.
"""

import pytest

from repro import Control2Engine, DensityParams

from bench_helpers import banner, emit, once


def _params(num_pages=1024):
    return DensityParams(num_pages=num_pages, d=8, D=48)


def _insert(engine, keys, batch):
    if batch:
        return engine.insert_many(keys)
    for key in sorted(keys):
        engine.insert(key)


def _delete(engine, lo, hi, batch):
    if batch:
        return engine.delete_range(lo, hi)
    for key in range(lo, hi + 1):
        engine.delete(key)


@pytest.mark.parametrize("batch", [True, False],
                         ids=["batched", "per-record"])
def test_sorted_burst(benchmark, batch):
    """10k-record sorted burst through both insert paths."""
    engine = Control2Engine(_params(2048))
    keys = list(range(10_000))

    once(benchmark, lambda: _insert(engine, keys, batch))
    engine.validate()
    store = engine.store.stats()
    emit(
        banner(f"sorted burst, batch={batch}"),
        f"logical page accesses: {engine.stats.page_accesses}",
        f"physical gets+puts:    {store['gets'] + store['puts']}",
    )


@pytest.mark.parametrize("batch", [True, False],
                         ids=["batched", "per-record"])
def test_clustered_burst_into_loaded_file(benchmark, batch):
    """2k inserts landing between existing records (the hinted path)."""
    engine = Control2Engine(_params())
    engine.bulk_load(range(0, 8_000, 4))
    burst = [k + 1 for k in range(0, 8_000, 4)]

    once(benchmark, lambda: _insert(engine, burst, batch))
    engine.validate()


@pytest.mark.parametrize("batch", [True, False],
                         ids=["batched", "per-record"])
def test_range_delete(benchmark, batch):
    """Bulk delete of the middle half of a loaded file."""
    engine = Control2Engine(_params())
    engine.bulk_load(range(8_000))

    once(benchmark, lambda: _delete(engine, 2_000, 5_999, batch))
    engine.validate()


def test_readahead_stream_scan(benchmark):
    """Stream scan with the prefetch window on the buffered stack."""
    from repro import DenseSequentialFile

    dense = DenseSequentialFile(
        num_pages=1024, d=8, D=48,
        backend="buffered", cache_pages=64, readahead=8,
    )
    dense.bulk_load(range(6_000))
    dense.flush()

    total = once(benchmark, lambda: sum(1 for _ in dense.range(0, 6_000)))
    assert total == 6_000
    stats = dense.store.stats()
    emit(
        banner("stream scan with readahead=8"),
        f"prefetches: {stats['prefetches']}, "
        f"prefetch hits: {stats['prefetch_hits']}, "
        f"demand misses: {stats['misses']}",
    )
