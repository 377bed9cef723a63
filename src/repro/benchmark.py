"""Wall-clock benchmark harness with machine-readable regression tracking.

The paper's argument is throughput under streams: bounded page accesses
per command keep insertion bursts and stream retrievals disk-arm
friendly.  The logical access counters prove the *bounds*; this module
measures what they buy in *wall-clock* terms, so every PR inherits a
performance trajectory (``BENCH_PR4.json`` and successors) instead of
hoping nothing got slower.

Four named scenarios run over interchangeable backends:

``bulk_load``
    Uniformly load ``ops`` sorted records into an empty file (the
    Theorem 5.5 initial state), timed in chunks.
``insert_burst``
    Preload half, then drive a sorted insertion burst through the
    batched ``insert_many`` fast path in chunks.
``mixed``
    Preload half, then a seeded 50/50 insert/delete mix timed per
    operation (the steady-state update workload).
``stream_scan``
    Preload, then stream every record through ``range`` — plus the same
    retrieval on the :class:`~repro.baselines.btree.BPlusTree` baseline
    for the paper's dense-file-vs-B-tree contrast (reported under
    ``extra.baseline``).

Each (scenario, backend) cell reports ops/sec, **logical** page
accesses (the paper's metered quantity, identical on every backend),
p50/p99 per-operation latency, and the flattened physical counters of
the backend stack (cache hits, prefetches, journal fsyncs ... via
:func:`repro.analysis.stats.flatten_counters`).

:func:`compare_reports` implements the regression gate: given a
baseline report it flags cells whose throughput dropped by more than a
threshold (wall clock is noisy — CI treats this as informational; the
deterministic logical counters are compared with a tight threshold).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis.stats import flatten_counters, percentile
from .baselines.btree import BPlusTree
from .core.dense_file import DenseSequentialFile
from .core.errors import ConfigurationError
from .workloads.generators import DELETE, INSERT, mixed_workload

SCHEMA = "repro-bench/1"

SCENARIOS = ("bulk_load", "insert_burst", "mixed", "stream_scan")
#: ``cluster`` runs the workload through a real TCP round trip per
#: operation against a loopback :class:`~repro.cluster.server.ClusterServer`
#: over a 4-shard store — the networked cost of the same algorithms.
BACKENDS = ("memory", "buffered", "disk", "cluster")

#: Default knobs; ``quick`` mode shrinks ops for CI smoke jobs.
DEFAULT_OPS = 4000
QUICK_OPS = 600
DEFAULT_CACHE_PAGES = 64
DEFAULT_READAHEAD = 8
_CHUNK = 64

#: Wall-clock throughput may jitter this much (percent) before the
#: comparison flags it; logical page accesses are deterministic and get
#: the tight bound.
DEFAULT_MAX_REGRESSION = 30.0
ACCESS_REGRESSION = 2.0

#: Retained per-operation latency samples per cell.  Collection is a
#: plain append in the timed loop; runs longer than the cap are
#: down-sampled afterwards by a seeded reservoir, so the stored sample
#: is an unbiased, deterministic draw from every observed operation.
LATENCY_RESERVOIR = 2048


def _reservoir(latencies: List[float], seed: int) -> List[float]:
    """Deterministically down-sample to ``LATENCY_RESERVOIR`` entries.

    Classic reservoir sampling (Algorithm R) over the full observation
    list, seeded so two runs of the same workload keep the same sample
    positions.  Runs at or under the cap are returned unchanged.
    """
    if len(latencies) <= LATENCY_RESERVOIR:
        return latencies
    rng = random.Random(seed ^ 0x5EED)
    sample = latencies[:LATENCY_RESERVOIR]
    for index in range(LATENCY_RESERVOIR, len(latencies)):
        slot = rng.randint(0, index)
        if slot < LATENCY_RESERVOIR:
            sample[slot] = latencies[index]
    return sample


#: What one latency observation means, per scenario, for the local
#: backends (the cluster runner labels its cells separately because its
#: bulk_load is chunked and its stream_scan is a single round trip).
_LATENCY_SOURCES = {
    "bulk_load": "aggregate",
    "insert_burst": "per_chunk_mean",
    "mixed": "per_op",
    "stream_scan": "per_chunk_mean",
}


def _geometry(ops: int) -> Dict[str, int]:
    """Pick a (M, d, D) with room for ~2*ops records at average density.

    D - d = 40 keeps the slack condition satisfied up to M = 8192
    (3 * 13 = 39 < 40), which caps ops at ~32k records.
    """
    need = max(256, (2 * ops) // 8 + 1)
    num_pages = 1 << (need - 1).bit_length()
    if num_pages > 8192:
        raise ConfigurationError("ops too large for the benchmark geometry (max ~32000)")
    return {"num_pages": num_pages, "d": 8, "D": 48}


def _make_file(
    backend: str,
    geometry: Dict[str, int],
    tmpdir: Optional[str],
    cache_pages: int,
    readahead: int,
) -> DenseSequentialFile:
    if backend == "memory":
        return DenseSequentialFile(**geometry)
    if backend == "buffered":
        return DenseSequentialFile(
            **geometry,
            backend="buffered",
            cache_pages=cache_pages,
            readahead=readahead,
        )
    if backend == "disk":
        import os

        if tmpdir is None:
            raise ConfigurationError("disk backend needs a tmpdir")
        path = os.path.join(tmpdir, f"bench-{backend}.dsf")
        return DenseSequentialFile(
            **geometry,
            backend="disk",
            path=path,
            overwrite=True,
        )
    raise ConfigurationError(f"unknown backend {backend!r}; pick one of {BACKENDS}")


def _chunks(values: Sequence, size: int) -> List[Sequence]:
    return [values[i : i + size] for i in range(0, len(values), size)]


def _result(
    scenario: str,
    backend: str,
    ops: int,
    elapsed: float,
    latencies: List[float],
    accesses: int,
    counters: Dict[str, float],
    extra: Optional[dict] = None,
    latency_source: str = "per_op",
    seed: int = 0,
) -> dict:
    # ``latency_source`` records what one latency sample *is* so the
    # percentiles can be read honestly: "per_op" samples time a single
    # command; "per_chunk_mean" (the batched scenarios) average a chunk,
    # so their p99 understates tail latency by construction; "aggregate"
    # is one whole-phase measurement.  This is an additive repro-bench/1
    # schema extension — older reports simply lack the two fields.
    sample = _reservoir(latencies, seed)
    ordered = sorted(sample)
    return {
        "scenario": scenario,
        "backend": backend,
        "ops": ops,
        "elapsed_s": elapsed,
        "ops_per_sec": (ops / elapsed) if elapsed > 0 else 0.0,
        "page_accesses": accesses,
        "latency_p50_us": percentile(ordered, 0.50) * 1e6,
        "latency_p99_us": percentile(ordered, 0.99) * 1e6,
        "latency_source": latency_source,
        "latency_samples": len(ordered),
        "counters": counters,
        "extra": extra or {},
    }


def _run_scenario(
    scenario: str,
    backend: str,
    ops: int,
    seed: int,
    tmpdir: Optional[str],
    cache_pages: int,
    readahead: int,
) -> dict:
    if backend == "cluster":
        return _run_cluster_scenario(scenario, ops, seed)
    geometry = _geometry(ops)
    dense = _make_file(backend, geometry, tmpdir, cache_pages, readahead)
    clock = time.perf_counter
    latencies: List[float] = []
    executed = 0
    try:
        if scenario == "bulk_load":
            keys = list(range(0, 2 * ops, 2))
            before = dense.stats.page_accesses
            start = clock()
            dense.bulk_load(keys)
            elapsed = clock() - start
            executed = len(keys)
            latencies.append(elapsed / executed)
        elif scenario == "insert_burst":
            dense.bulk_load(list(range(0, 2 * ops, 4)))
            burst = [key for key in range(0, 2 * ops, 4)]
            burst = [key + 1 for key in burst][: ops - len(dense)]
            before = dense.stats.page_accesses
            start = clock()
            for chunk in _chunks(burst, _CHUNK):
                t0 = clock()
                dense.insert_many(chunk)
                latencies.append((clock() - t0) / len(chunk))
                executed += len(chunk)
            elapsed = clock() - start
        elif scenario == "mixed":
            preload = list(range(0, ops, 2))
            dense.bulk_load(preload)
            # Materialize and pre-dispatch the stream before timing:
            # the workload generator (and the kind test per operation)
            # is harness, not the measured structure, and consuming it
            # inside the loop used to charge its cost to every
            # operation.
            calls = [
                (dense.insert, (operation.key, operation.value))
                if operation.kind == INSERT
                else (dense.delete, (operation.key,))
                for operation in mixed_workload(
                    ops // 2,
                    insert_ratio=0.5,
                    key_space=4 * ops,
                    seed=seed,
                    preloaded=preload,
                )
            ]
            append = latencies.append
            before = dense.stats.page_accesses
            # Chained timestamps: one clock read per operation (the end
            # of op N is the start of op N+1), so the per-op meter costs
            # half of the naive two-reads-per-op pattern.  The loop's
            # own unpack/append overhead (~50ns) rides inside each
            # sample; the timer read it replaces cost more.
            start = t0 = clock()
            for call, args in calls:
                call(*args)
                t1 = clock()
                append(t1 - t0)
                t0 = t1
            elapsed = t0 - start
            executed = len(calls)
        elif scenario == "stream_scan":
            keys = list(range(ops))
            dense.bulk_load(keys)
            before = dense.stats.page_accesses
            start = clock()
            t0 = clock()
            for record in dense.range(keys[0], keys[-1]):
                executed += 1
                if executed % 256 == 0:
                    latencies.append((clock() - t0) / 256)
                    t0 = clock()
            elapsed = clock() - start
            if not latencies:
                latencies.append(elapsed / max(1, executed))
        else:
            raise ConfigurationError(
                f"unknown scenario {scenario!r}; pick one of {SCENARIOS}"
            )
        accesses = dense.stats.page_accesses - before
        counters = flatten_counters(dense.store_stats())
        extra = None
        if scenario == "stream_scan":
            extra = {"baseline": _btree_scan(geometry, ops)}
        return _result(
            scenario, backend, executed, elapsed, latencies, accesses,
            counters, extra,
            latency_source=_LATENCY_SOURCES[scenario], seed=seed,
        )
    finally:
        dense.close()


def _btree_scan(geometry: Dict[str, int], ops: int) -> dict:
    """The same stream retrieval on a bulk-loaded B+-tree baseline."""
    tree = BPlusTree(
        fanout=16, leaf_capacity=geometry["D"], cache_internal_nodes=True
    )
    keys = list(range(ops))
    tree.bulk_load(keys)
    before = tree.stats.page_accesses
    start = time.perf_counter()
    scanned = sum(1 for _ in tree.range_scan(keys[0], keys[-1]))
    elapsed = time.perf_counter() - start
    return {
        "structure": "B+-tree",
        "ops": scanned,
        "ops_per_sec": (scanned / elapsed) if elapsed > 0 else 0.0,
        "page_accesses": tree.stats.page_accesses - before,
    }


def _run_cluster_scenario(scenario: str, ops: int, seed: int) -> dict:
    """One scenario through the sharded cluster over loopback TCP.

    Every timed operation is a full client round trip — framing, CRC,
    socket write, server dispatch, shard update, response — so this
    cell prices the *network* layer the other backends omit.  Preloads
    happen server-side (untimed); page accesses are summed across the
    shards' logical counters, which stay deterministic because loopback
    TCP injects no faults and therefore no retries.
    """
    from .cluster import ClusterClient, ClusterServer, ShardedDenseFile

    key_space = 4 * ops
    store = ShardedDenseFile.build(
        num_shards=4, key_space=key_space, capacity_hint=ops
    )
    server = ClusterServer(store)
    host, port = server.start()
    clock = time.perf_counter
    latencies: List[float] = []
    executed = 0

    def accesses_now() -> int:
        return sum(shard.stats.page_accesses for shard in store.shards)

    try:
        with ClusterClient.connect(host, port) as client:
            if scenario == "bulk_load":
                keys = list(range(0, 2 * ops, 2))
                before = accesses_now()
                start = clock()
                for chunk in _chunks(keys, _CHUNK):
                    t0 = clock()
                    for key in chunk:
                        client.insert(key)
                    latencies.append((clock() - t0) / len(chunk))
                    executed += len(chunk)
                elapsed = clock() - start
            elif scenario == "insert_burst":
                for key in range(0, 2 * ops, 4):
                    store.insert(key)
                burst = [key + 1 for key in range(0, 2 * ops, 4)]
                burst = burst[: ops - len(store)]
                before = accesses_now()
                start = clock()
                for chunk in _chunks(burst, _CHUNK):
                    t0 = clock()
                    for key in chunk:
                        client.insert(key)
                    latencies.append((clock() - t0) / len(chunk))
                    executed += len(chunk)
                elapsed = clock() - start
            elif scenario == "mixed":
                preload = list(range(0, ops, 2))
                for key in preload:
                    store.insert(key)
                # Same fix as the local runner: generate the stream
                # before timing so generator cost is not billed to the
                # per-operation round trips.
                operations = list(
                    mixed_workload(
                        ops // 2,
                        insert_ratio=0.5,
                        key_space=key_space,
                        seed=seed,
                        preloaded=preload,
                    )
                )
                before = accesses_now()
                start = clock()
                for operation in operations:
                    t0 = clock()
                    if operation.kind == INSERT:
                        client.insert(operation.key, operation.value)
                    elif operation.kind == DELETE:
                        client.delete(operation.key)
                    latencies.append(clock() - t0)
                    executed += 1
                elapsed = clock() - start
            elif scenario == "stream_scan":
                keys = list(range(ops))
                for key in keys:
                    store.insert(key)
                before = accesses_now()
                start = clock()
                result = client.range(keys[0], keys[-1])
                elapsed = clock() - start
                executed = len(result)
                latencies.append(elapsed / max(1, executed))
            else:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; pick one of {SCENARIOS}"
                )
            accesses = accesses_now() - before
            retries = client.client_stats()["retries"]
    finally:
        server.stop()
        store.close()
    counters: Dict[str, float] = {
        "num_shards": float(store.shard_map.num_shards),
        "requests": float(server.requests),
        "errors": float(server.errors),
        "dedup_replays": float(server.dedup_replays),
        "client_retries": float(retries),
    }
    cluster_sources = {
        "bulk_load": "per_chunk_mean",
        "insert_burst": "per_chunk_mean",
        "mixed": "per_op",
        "stream_scan": "aggregate",
    }
    return _result(
        scenario, "cluster", executed, elapsed, latencies, accesses, counters,
        latency_source=cluster_sources[scenario], seed=seed,
    )


def run_bench(
    scenarios: Sequence[str] = SCENARIOS,
    backends: Sequence[str] = ("memory", "buffered"),
    ops: int = DEFAULT_OPS,
    seed: int = 0,
    quick: bool = False,
    cache_pages: int = DEFAULT_CACHE_PAGES,
    readahead: int = DEFAULT_READAHEAD,
) -> dict:
    """Run the scenario x backend matrix; returns the report dict."""
    import tempfile

    if quick:
        ops = min(ops, QUICK_OPS)
    for scenario in scenarios:
        if scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {scenario!r}; pick from {SCENARIOS}"
            )
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        for scenario in scenarios:
            for backend in backends:
                results.append(
                    _run_scenario(
                        scenario, backend, ops, seed, tmpdir,
                        cache_pages, readahead,
                    )
                )
    return {
        "schema": SCHEMA,
        "quick": quick,
        "seed": seed,
        "ops": ops,
        "geometry": _geometry(ops),
        "results": results,
    }


def run_bench_profiled(profile_top: int = 25, **kwargs) -> "Tuple[dict, str]":
    """:func:`run_bench` under cProfile; returns ``(report, table)``.

    ``table`` is the ``pstats`` rendering of the ``profile_top`` hottest
    functions by cumulative time.  The report's wall-clock figures
    include profiler overhead — use a profiled run to find hot spots,
    never to record a baseline.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = run_bench(**kwargs)
    finally:
        profiler.disable()
    table = io.StringIO()
    stats = pstats.Stats(profiler, stream=table)
    stats.sort_stats("cumulative").print_stats(max(1, profile_top))
    return report, table.getvalue()


# ----------------------------------------------------------------------
# report validation and comparison
# ----------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "scenario", "backend", "ops", "elapsed_s", "ops_per_sec",
    "page_accesses", "latency_p50_us", "latency_p99_us", "counters",
)


def validate_report(report: dict) -> List[str]:
    """Schema-check a report dict; returns problems (empty == valid)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    if report.get("schema") != SCHEMA:
        problems.append(
            f"schema is {report.get('schema')!r}, expected {SCHEMA!r}"
        )
    results = report.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems
    for index, cell in enumerate(results):
        if not isinstance(cell, dict):
            problems.append(f"results[{index}] is not an object")
            continue
        for fieldname in _REQUIRED_FIELDS:
            if fieldname not in cell:
                problems.append(f"results[{index}] missing {fieldname!r}")
        for numeric in (
            "ops", "elapsed_s", "ops_per_sec", "page_accesses",
            "latency_p50_us", "latency_p99_us", "latency_samples",
        ):
            value = cell.get(numeric)
            if value is not None and not isinstance(value, (int, float)):
                problems.append(
                    f"results[{index}].{numeric} is not numeric"
                )
        # Optional fields (added after the first reports were recorded;
        # absent in e.g. BENCH_PR4.json, so absence is not a problem).
        source = cell.get("latency_source")
        if source is not None and not isinstance(source, str):
            problems.append(f"results[{index}].latency_source is not a string")
        if "counters" in cell and not isinstance(cell["counters"], dict):
            problems.append(f"results[{index}].counters is not an object")
    return problems


def compare_reports(
    baseline: dict,
    current: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    access_regression: float = ACCESS_REGRESSION,
) -> List[str]:
    """Flag (scenario, backend) cells that regressed vs ``baseline``.

    Throughput (``ops_per_sec``) may drop up to ``max_regression``
    percent before it is flagged — wall clock is noisy.  Logical
    ``page_accesses`` are deterministic, so any growth beyond
    ``access_regression`` percent is flagged.  Cells present in only
    one report are ignored.  Returns human-readable regression lines
    (empty == no regression).
    """
    regressions: List[str] = []
    current_cells = {
        (cell["scenario"], cell["backend"]): cell
        for cell in current.get("results", [])
    }
    for cell in baseline.get("results", []):
        key = (cell["scenario"], cell["backend"])
        now = current_cells.get(key)
        if now is None:
            continue
        base_ops = cell.get("ops_per_sec") or 0.0
        now_ops = now.get("ops_per_sec") or 0.0
        if base_ops > 0 and now_ops < base_ops * (1 - max_regression / 100):
            drop = 100 * (1 - now_ops / base_ops)
            regressions.append(
                f"{key[0]}/{key[1]}: throughput {now_ops:,.0f} ops/s is "
                f"{drop:.1f}% below baseline {base_ops:,.0f} ops/s "
                f"(limit {max_regression:.0f}%)"
            )
        base_acc = cell.get("page_accesses") or 0
        now_acc = now.get("page_accesses") or 0
        if base_acc > 0 and now_acc > base_acc * (1 + access_regression / 100):
            growth = 100 * (now_acc / base_acc - 1)
            regressions.append(
                f"{key[0]}/{key[1]}: logical page accesses {now_acc} grew "
                f"{growth:.1f}% over baseline {base_acc} "
                f"(limit {access_regression:.0f}%)"
            )
    return regressions


def render_report(report: dict) -> str:
    """One-line-per-cell text rendering for terminals and CI logs."""
    lines = [
        f"repro bench  (schema {report.get('schema')}, "
        f"ops={report.get('ops')}, quick={report.get('quick')})"
    ]
    for cell in report.get("results", []):
        line = (
            f"  {cell['scenario']:<13} {cell['backend']:<9} "
            f"{cell['ops_per_sec']:>12,.0f} ops/s  "
            f"{cell['page_accesses']:>8} accesses  "
            f"p50 {cell['latency_p50_us']:>8.1f}us  "
            f"p99 {cell['latency_p99_us']:>8.1f}us"
        )
        baseline = (cell.get("extra") or {}).get("baseline")
        if baseline:
            line += (
                f"  [vs {baseline['structure']}: "
                f"{baseline['ops_per_sec']:,.0f} ops/s, "
                f"{baseline['page_accesses']} accesses]"
            )
        lines.append(line)
    return "\n".join(lines)
