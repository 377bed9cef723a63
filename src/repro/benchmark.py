"""Wall-clock benchmark harness with machine-readable regression tracking.

The paper's argument is throughput under streams: bounded page accesses
per command keep insertion bursts and stream retrievals disk-arm
friendly.  The logical access counters prove the *bounds*; this module
measures what they buy in *wall-clock* terms, so every PR inherits a
performance trajectory (``BENCH_PR4.json`` and successors) instead of
hoping nothing got slower.

Four named scenarios run over interchangeable backends, one scenario
loop for all of them: ``memory``, ``buffered`` and ``disk`` files, and
``cluster``, a 4-shard store behind a loopback server that the loop
drives through the client's own dense-file verbs (so every timed
command is a TCP round trip).

``bulk_load``
    Uniformly load ``ops`` sorted records into an empty file (the
    Theorem 5.5 initial state): one ``bulk_load`` call on a local file,
    chunks of client inserts on the cluster.
``insert_burst``
    Preload half (untimed; server-side on the cluster), then drive a
    sorted insertion burst through ``insert_many`` in chunks.
``mixed``
    Preload half, then a seeded 50/50 insert/delete mix timed per
    operation (the steady-state update workload).
``stream_scan``
    Preload, then stream every record through ``range``,
    ``SCAN_REPEATS`` times back to back; ``ops`` counts the records of
    every scan and ``page_accesses`` those of one — plus the same
    retrieval on the :class:`~repro.baselines.btree.BPlusTree` baseline
    for the paper's dense-file-vs-B-tree contrast (reported under
    ``extra.baseline`` on the local backends).

Each (scenario, backend) cell reports ops/sec, **logical** page
accesses (the paper's metered quantity, identical on every backend),
p50/p99 per-operation latency, the worst single command's page accesses
(``max_accesses_per_command``, on the per-operation ``mixed`` cells
only; a local one also carries the Theorem 5.5 ceiling
``worst_case_bound``, which :func:`validate_report` enforces), and a
snapshot of the stack's counter registry (:mod:`repro.obs`: cache hits,
prefetches, BALANCE headroom ... keyed ``"layer.counter"``).

:func:`compare_reports` implements the regression gate: given a
baseline report it flags cells whose throughput dropped by more than a
threshold (wall clock is noisy — CI treats this as informational; the
deterministic logical counters are compared with a tight threshold, and
the worst command with none).
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .analysis.stats import percentile
from .baselines.btree import BPlusTree
from .core.dense_file import DenseSequentialFile
from .core.errors import ConfigurationError
from .workloads.generators import INSERT, mixed_workload

SCHEMA = "repro-bench/1"
#: The fixed-schema ``measurement`` block ``tools/abtest.py --out``
#: writes: one A/B run of the repository benchmark, every run kept.
MEASUREMENT_SCHEMA = "repro-measurement/1"

SCENARIOS = ("bulk_load", "insert_burst", "mixed", "stream_scan")
BACKENDS = ("memory", "buffered", "disk", "cluster")

#: Default knobs; ``quick`` mode shrinks ops for CI smoke jobs.
DEFAULT_OPS = 4000
QUICK_OPS = 600
DEFAULT_CACHE_PAGES = 64
DEFAULT_READAHEAD = 8
_CHUNK = 64
#: Back-to-back full scans one ``stream_scan`` cell times.  One scan of
#: ``DEFAULT_OPS`` records takes a few milliseconds, too short to tell
#: two revisions apart.
SCAN_REPEATS = 20

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
    ops: int,
    tmpdir: Optional[str],
    cache_pages: int,
    readahead: int,
) -> "Union[DenseSequentialFile, _ClusterFile]":
    """The file one cell drives: a local file or the loopback cluster."""
    if backend == "cluster":
        return _ClusterFile(ops)
    options: Dict[str, object] = {}
    if backend == "buffered":
        options = dict(backend=backend, cache_pages=cache_pages, readahead=readahead)
    elif backend == "disk":
        if tmpdir is None:
            raise ConfigurationError("disk backend needs a tmpdir")
        path = os.path.join(tmpdir, f"bench-{backend}.dsf")
        options = dict(backend=backend, path=path, overwrite=True)
    elif backend != "memory":
        raise ConfigurationError(f"unknown backend {backend!r}; pick one of {BACKENDS}")
    return DenseSequentialFile(**_geometry(ops), **options)


class _ShardMeters:
    """The shards' access meters, summed without taking the shard locks:
    the scenario loop is the only client, and a locked read would charge
    a lock round trip per shard to every timed command."""

    __slots__ = ("_meters",)

    def __init__(self, meters: list) -> None:
        self._meters = meters

    @property
    def page_accesses(self) -> int:
        return sum(meter.page_accesses for meter in self._meters)


class _ClusterFile:
    """A 4-shard store behind a loopback server, driven like a local file.

    ``insert``, ``delete`` and ``range`` are the client's own verbs, so
    every timed command is a full round trip (framing, CRC, socket
    write, server dispatch, shard update, response): these cells price
    the network layer the local backends omit.  ``bulk_load`` is an
    untimed server-side preload; ``insert_many`` is one client insert
    per key.  The summed shard meters stay deterministic because
    loopback TCP injects no faults and therefore no retries.
    """

    def __init__(self, ops: int) -> None:
        from .cluster import ClusterClient, ClusterServer, ShardedDenseFile

        store = self._store = ShardedDenseFile.build(
            num_shards=4, key_space=4 * ops, capacity_hint=ops
        )
        server = self._server = ClusterServer(store)
        try:
            client = self._client = ClusterClient.connect(*server.start())
        except BaseException:
            server.stop()
            store.close()
            raise
        self.insert, self.delete = client.insert, client.delete
        self.range = client.range
        self.stats = _ShardMeters([shard.inner.stats for shard in store.shards])

    def bulk_load(self, keys: Sequence[int]) -> None:
        for key in keys:
            self._store.insert(key)

    def insert_many(self, keys: Sequence[int]) -> None:
        insert = self._client.insert
        for key in keys:
            insert(key)

    def snapshot(self) -> Dict[str, float]:
        """The server's and the client's counter snapshots, merged."""
        return {**self._server.metrics.snapshot(), **self._client.client_stats()}

    def close(self) -> None:
        try:
            self._client.close()
        finally:
            self._server.stop()
            self._store.close()


def _time_chunks(
    step: Callable[[Sequence[int]], object],
    keys: Sequence[int],
    size: int,
    latencies: List[float],
) -> float:
    """Feed ``keys`` to ``step`` ``size`` at a time; returns the elapsed
    time and appends each chunk's mean time per key to ``latencies``."""
    chunks = [keys[i : i + size] for i in range(0, len(keys), size)]
    clock = time.perf_counter
    start = t0 = clock()
    for chunk in chunks:
        step(chunk)
        t1 = clock()  # chained: the end of one chunk starts the next
        latencies.append((t1 - t0) / len(chunk))
        t0 = t1
    return t0 - start


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
    max_accesses: Optional[int] = None,
) -> dict:
    # ``latency_source`` records what one latency sample *is* so the
    # percentiles can be read honestly: "per_op" samples time a single
    # command; "per_chunk_mean" (the batched scenarios) average a chunk,
    # so their p99 understates tail latency by construction; "aggregate"
    # is one whole-phase measurement.  This is an additive repro-bench/1
    # schema extension — older reports simply lack the two fields.
    sample = _reservoir(latencies, seed)
    ordered = sorted(sample)
    cell = {
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
    if max_accesses is not None:
        # The worst single command's page accesses; only the per-op
        # ``mixed`` cells time (and so meter) one command at a time.
        cell["max_accesses_per_command"] = max_accesses
    return cell


def _run_scenario(
    scenario: str,
    backend: str,
    ops: int,
    seed: int,
    tmpdir: Optional[str],
    cache_pages: int,
    readahead: int,
) -> dict:
    dense = _make_file(backend, ops, tmpdir, cache_pages, readahead)
    meter = dense.stats
    clock = time.perf_counter
    latencies: List[float] = []
    source = "per_chunk_mean"
    worst: Optional[int] = None
    bound: Optional[int] = None
    extra = None
    try:
        if scenario == "bulk_load":
            keys = list(range(0, 2 * ops, 2))
            # A local file loads in one call; the cluster's bulk_load is
            # server-side, so its timed load is client inserts.
            if backend == "cluster":
                step, size = dense.insert_many, _CHUNK
            else:
                step, size, source = dense.bulk_load, len(keys), "aggregate"
            before = meter.page_accesses
            elapsed = _time_chunks(step, keys, size, latencies)
            executed = len(keys)
        elif scenario == "insert_burst":
            preload = list(range(0, 2 * ops, 4))
            dense.bulk_load(preload)
            burst = [key + 1 for key in preload][: ops - len(preload)]
            before = meter.page_accesses
            elapsed = _time_chunks(dense.insert_many, burst, _CHUNK, latencies)
            executed = len(burst)
        elif scenario == "mixed":
            preload = list(range(0, ops, 2))
            dense.bulk_load(preload)
            # Materialize and pre-dispatch the stream before timing:
            # the workload generator (and the kind test per operation)
            # is harness, not the measured structure.
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
            source = "per_op"
            before = a0 = meter.page_accesses
            worst = 0
            if backend != "cluster":
                bound = dense.engine.params.worst_case_bound
            # Chained timestamps: one clock read per operation (the end
            # of op N is the start of op N+1), so the per-op meter costs
            # half of the naive two-reads-per-op pattern.  The access
            # meter is chained the same way: one read per operation
            # gives the worst single command, the quantity Theorem 5.5
            # bounds.
            start = t0 = clock()
            for call, args in calls:
                call(*args)
                t1 = clock()
                a1 = meter.page_accesses
                append(t1 - t0)
                if a1 - a0 > worst:
                    worst = a1 - a0
                t0 = t1
                a0 = a1
            elapsed = t0 - start
            executed = len(calls)
        else:  # stream_scan; run_bench rejects unknown scenarios
            keys = list(range(ops))
            dense.bulk_load(keys)
            executed = 0
            before = meter.page_accesses
            start = t0 = clock()
            for _ in range(SCAN_REPEATS):
                scanned = len(list(dense.range(keys[0], keys[-1])))
                t1 = clock()
                latencies.append((t1 - t0) / max(1, scanned))
                executed += scanned
                t0 = t1
            elapsed = t0 - start
            # Every scan reads the same pages: report one scan's charge.
            before += (meter.page_accesses - before) * (
                SCAN_REPEATS - 1
            ) // SCAN_REPEATS
            if backend != "cluster":
                extra = {"baseline": _btree_scan(_geometry(ops), ops)}
        accesses = meter.page_accesses - before
        counters = (
            dense.snapshot() if backend == "cluster" else dense.store_stats()
        )
    finally:
        dense.close()
    cell = _result(
        scenario, backend, executed, elapsed, latencies, accesses,
        counters, extra, latency_source=source, seed=seed,
        max_accesses=worst,
    )
    if bound is not None:
        cell["worst_case_bound"] = bound
    return cell


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
    functions by cumulative time, merged over the calling thread and
    every thread started during the run (a cluster cell's server
    threads, whose work the client only sees as socket waits).  The
    report's wall-clock figures include profiler overhead — use a
    profiled run to find hot spots, never to record a baseline.
    """
    import cProfile
    import io
    import pstats

    profilers = [cProfile.Profile()]
    # From 3.12 cProfile sits on sys.monitoring, which sees every
    # thread; before that a profiler sees only the thread enabling it,
    # so each new thread gets its own.
    per_thread = sys.version_info < (3, 12)

    def profile_new_thread(*_event: object) -> None:
        # Runs once, as the first profile event of a new thread:
        # enabling the thread's own profiler replaces this hook.
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()

    if per_thread:
        threading.setprofile(profile_new_thread)
    profilers[0].enable()
    try:
        report = run_bench(**kwargs)
    finally:
        profilers[0].disable()
        if per_thread:
            threading.setprofile(None)
    table = io.StringIO()
    stats = pstats.Stats(profilers[0], stream=table)
    for profiler in profilers[1:]:
        profiler.create_stats()
        if profiler.stats:
            stats.add(profiler)
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
    """Schema-check a report dict; returns problems (empty == valid).

    A report is a ``repro bench`` run (:data:`SCHEMA`), or an A/B
    measurement alone: ``{"measurement": {...}}`` as ``tools/abtest.py
    --out`` writes it.  A ``measurement`` block that names
    :data:`MEASUREMENT_SCHEMA` is checked by :func:`validate_measurement`;
    older reports carry free-form blocks, which are not.
    """
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    measurement = report.get("measurement")
    if isinstance(measurement, dict) and (
        "schema" in measurement or "results" not in report
    ):
        problems = validate_measurement(measurement)
        if "results" not in report:
            return problems
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
            "max_accesses_per_command", "worst_case_bound",
        ):
            value = cell.get(numeric)
            if value is not None and not isinstance(value, (int, float)):
                problems.append(
                    f"results[{index}].{numeric} is not numeric"
                )
        # Theorem 5.5 at the cell's geometry: no command may cost more.
        worst = cell.get("max_accesses_per_command")
        bound = cell.get("worst_case_bound")
        if (
            isinstance(worst, (int, float))
            and isinstance(bound, (int, float))
            and worst > bound
        ):
            problems.append(
                f"results[{index}]: worst command {worst} page accesses "
                f"exceeds the Theorem 5.5 bound {bound}"
            )
        # Optional fields (added after the first reports were recorded;
        # absent in e.g. BENCH_PR4.json, so absence is not a problem).
        source = cell.get("latency_source")
        if source is not None and not isinstance(source, str):
            problems.append(f"results[{index}].latency_source is not a string")
        if "counters" in cell and not isinstance(cell["counters"], dict):
            problems.append(f"results[{index}].counters is not an object")
    return problems


def _iqr(values: Sequence[float]) -> float:
    """Upper minus lower inclusive quartile (0 for fewer than two)."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return upper - lower


def _numbers(value: object, count: int) -> bool:
    return (
        isinstance(value, list) and len(value) == count
        and all(isinstance(item, (int, float)) for item in value)
    )


def validate_measurement(block: dict) -> List[str]:
    """Check one :data:`MEASUREMENT_SCHEMA` block; returns problems.

    Beyond the fields' types, every derived figure must follow from
    the runs it summarizes: each median, base IQR, change in percent
    and win count, and each ``claim`` verdict by the gain rule (the
    change wins all pairs but at most one, beats the base median by
    more than the base IQR, and the exact counts are identical).
    """
    problems: List[str] = []
    if block.get("schema") != MEASUREMENT_SCHEMA:
        return [
            f"measurement schema is {block.get('schema')!r}, expected "
            f"{MEASUREMENT_SCHEMA!r}"
        ]
    for name in ("command", "base", "change"):
        if not isinstance(block.get(name), str):
            problems.append(f"measurement.{name} is not a string")
    pairs = block.get("pairs")
    if not isinstance(pairs, int) or pairs < 1:
        return problems + ["measurement.pairs is not a positive integer"]
    if not isinstance(block.get("seed"), int):
        problems.append("measurement.seed is not an integer")
    claim = block.get("claim")
    if claim is not None and not isinstance(claim, str):
        problems.append("measurement.claim is not a metric name")
    bounds = block.get("bounds")
    if bounds is not None and not (
        isinstance(bounds, str) and bounds.startswith("bounds: ")
    ):
        problems.append("measurement.bounds is not a bounds verdict")
    workloads = block.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["measurement.workloads must be a non-empty object"]
    for label, workload in workloads.items():
        where = f"measurement.workloads[{label!r}]"
        if not isinstance(workload, dict):
            problems.append(f"{where} is not an object")
            continue
        exact = workload.get("exact")
        if not (
            isinstance(exact, dict)
            and isinstance(exact.get("identical"), bool)
            and isinstance(exact.get("values"), dict)
        ):
            problems.append(f"{where}.exact needs identical and values")
            continue
        metrics = workload.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}.metrics must be a non-empty object")
            continue
        for name, row in metrics.items():
            problems.extend(
                _check_row(f"{where}.metrics[{name!r}]", row, pairs)
            )
        verdict = workload.get("claim")
        if claim is None:
            if verdict is not None:
                problems.append(f"{where}.claim is set but nothing is claimed")
            continue
        row = metrics.get(claim)
        if not isinstance(row, dict) or verdict not in ("gain", "no gain"):
            problems.append(f"{where}.claim needs a verdict on {claim!r}")
            continue
        if _check_row("", row, pairs):
            continue
        sign = 1 if row["better"] == "higher" else -1
        held = (
            exact["identical"]
            and row["wins"] >= pairs - 1
            and sign * (row["change_median"] - row["base_median"])
            > row["base_iqr"]
        )
        if verdict != ("gain" if held else "no gain"):
            problems.append(
                f"{where}.claim says {verdict!r}, but the runs say "
                f"{'gain' if held else 'no gain'!r}"
            )
    return problems


def _check_row(where: str, row: object, pairs: int) -> List[str]:
    """Problems with one metric's row of a measurement block."""
    if not isinstance(row, dict):
        return [f"{where} is not an object"]
    if row.get("better") not in ("higher", "lower"):
        return [f"{where}.better is not 'higher' or 'lower'"]
    base: Any = row.get("base")
    change: Any = row.get("change")
    if not _numbers(base, pairs) or not _numbers(change, pairs):
        return [f"{where} needs {pairs} base and {pairs} change runs"]
    sign = 1 if row["better"] == "higher" else -1
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    expected = {
        "base_median": base_median,
        "change_median": change_median,
        "base_iqr": _iqr(base),
        "delta_pct": 100.0 * (change_median - base_median) / base_median
        if base_median else 0.0,
        "wins": sum(sign * (new - old) > 0 for old, new in zip(base, change)),
    }
    problems = []
    for name, value in expected.items():
        found = row.get(name)
        if not isinstance(found, (int, float)) or not math.isclose(
            found, value, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(
                f"{where}.{name} is {found!r}; its runs give {value!r}"
            )
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
    ``access_regression`` percent is flagged, and so is any growth at
    all of ``max_accesses_per_command`` (the worst single command, the
    quantity Theorem 5.5 bounds) when both cells carry it.  Cells
    present in only one report are ignored.  Returns human-readable
    regression lines (empty == no regression).
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
        base_worst = cell.get("max_accesses_per_command")
        now_worst = now.get("max_accesses_per_command")
        if base_worst is not None and now_worst is not None and (
            now_worst > base_worst
        ):
            regressions.append(
                f"{key[0]}/{key[1]}: worst command {now_worst} page accesses "
                f"exceeds baseline {base_worst} (deterministic; no tolerance)"
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
        if "max_accesses_per_command" in cell:
            line += f"  worst {cell['max_accesses_per_command']}"
        baseline = (cell.get("extra") or {}).get("baseline")
        if baseline:
            line += (
                f"  [vs {baseline['structure']}: "
                f"{baseline['ops_per_sec']:,.0f} ops/s, "
                f"{baseline['page_accesses']} accesses]"
            )
        lines.append(line)
    return "\n".join(lines)
