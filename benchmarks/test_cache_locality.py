"""EXP-A7 — ablation: update locality under a buffer pool.

Willard's aside that CONTROL 2 "can be programmed to access consecutive
pages in one fell swoop" implies its update traffic should cache far
better than a B-tree's: the SHIFT sweeps touch runs of adjacent pages,
while B-tree updates hop root-to-leaf across scattered node pages.

We record the full page-access trace of the same adversarial update
workload on both structures and replay it through write-back LRU pools
of increasing size, reporting hit rate and effective physical I/O.

The replay methodology itself is validated live: the second experiment
runs the identical workload through a :class:`BufferedStore` — the same
``BufferPool`` promoted into the hot path — and asserts the in-line
counters agree field for field with a replay of the recorded trace.
"""

from bench_helpers import banner, emit, once

from repro import Control2Engine, DensityParams
from repro.analysis import render_table
from repro.baselines.btree import BPlusTree
from repro.storage.backend import BufferedStore, MemoryStore
from repro.storage.bufferpool import miss_curve, replay
from repro.workloads import converging_inserts, run_workload

POOL_SIZES = [2, 4, 8, 16, 32]
OPERATIONS = 1200


def record_traces():
    dense = Control2Engine(DensityParams(num_pages=256, d=8, D=48))
    dense.disk.trace.enable()
    tree = BPlusTree(fanout=16, leaf_capacity=48)
    tree.disk.trace.enable()
    operations = converging_inserts(OPERATIONS)
    run_workload(dense, operations)
    run_workload(tree, operations)
    dense.validate()
    return list(dense.disk.trace), list(tree.disk.trace)


def test_update_cache_locality(benchmark):
    def run():
        dense_trace, tree_trace = record_traces()
        return (
            miss_curve(dense_trace, POOL_SIZES),
            miss_curve(tree_trace, POOL_SIZES),
            len(dense_trace),
            len(tree_trace),
        )

    dense_curve, tree_curve, dense_len, tree_len = once(benchmark, run)
    rows = []
    for size, dense_stats, tree_stats in zip(
        POOL_SIZES, dense_curve, tree_curve
    ):
        rows.append(
            [
                size,
                f"{dense_stats.hit_rate:.3f}",
                f"{tree_stats.hit_rate:.3f}",
                dense_stats.physical_io,
                tree_stats.physical_io,
            ]
        )
    emit(
        banner(
            f"EXP-A7: LRU replay of {OPERATIONS} adversarial updates "
            f"(dense trace {dense_len} accesses, B+-tree {tree_len})"
        ),
        render_table(
            [
                "pool frames",
                "dense hit rate",
                "btree hit rate",
                "dense phys I/O",
                "btree phys I/O",
            ],
            rows,
        ),
    )
    # The fell-swoop effect lives in the minimal-cache regime: with just
    # two frames the dense file's sequential sweeps already hit >90%,
    # while the B+-tree still faults on most leaf hops.
    assert dense_curve[0].hit_rate > 0.9
    assert dense_curve[0].hit_rate > tree_curve[0].hit_rate + 0.2
    assert dense_curve[0].physical_io * 4 < tree_curve[0].physical_io
    # With a handful of frames this adversary lets both structures cache
    # their hot path; the honest observation is that the dense file
    # needs almost no cache at all to get there.
    assert all(stats.hit_rate > 0.9 for stats in dense_curve)
    # Hit rates improve monotonically with pool size for both.
    for curve in (dense_curve, tree_curve):
        rates = [stats.hit_rate for stats in curve]
        assert rates == sorted(rates)


def test_live_cache_agrees_with_replay(benchmark):
    """The live BufferedStore and the trace replay are the same model.

    One run, two meters: the engine executes on a live write-back cache
    while its logical trace is recorded; replaying that trace through a
    fresh pool of the same capacity must land on identical counters.
    Any drift would mean the replay curves above are fiction.
    """

    def run():
        results = []
        for capacity in POOL_SIZES:
            store = BufferedStore(MemoryStore(256), capacity=capacity)
            dense = Control2Engine(
                DensityParams(num_pages=256, d=8, D=48), store=store
            )
            dense.disk.trace.enable()
            run_workload(dense, converging_inserts(OPERATIONS))
            dense.validate()
            store.flush()  # replay() ends with a flush; match it
            replayed = replay(list(dense.disk.trace), capacity)
            results.append((capacity, store.pool.stats, replayed))
        return results

    results = once(benchmark, run)
    rows = []
    for capacity, live, replayed in results:
        for field in (
            "hits", "misses", "evictions", "physical_reads",
            "physical_writes",
        ):
            assert getattr(live, field) == getattr(replayed, field), (
                f"{capacity} frames: live {field}={getattr(live, field)} "
                f"!= replayed {getattr(replayed, field)}"
            )
        rows.append(
            [
                capacity,
                f"{live.hit_rate:.3f}",
                live.physical_io,
                replayed.physical_io,
            ]
        )
    emit(
        banner(
            f"EXP-A7b: live BufferedStore vs trace replay, "
            f"{OPERATIONS} adversarial updates"
        ),
        render_table(
            ["pool frames", "hit rate", "live phys I/O", "replay phys I/O"],
            rows,
        ),
    )
