"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one of these per workload, so each workload gets a
fresh interpreter and its own peak RSS::

    python3 bench/worker.py WORKLOAD --seed 0 --seconds 20 [--scale 1] [--trace 0|1]

A round builds the stack on a fresh file, preloads it, then runs one
command stream, block by block, with one clock read per command, and
checks every outcome against the oracle.  An untraced run makes one
round per :data:`ROUND_S` of ``--seconds`` (at least
:data:`MIN_ROUNDS`), each from its own seed derived from ``--seed``.
A traced run makes one untraced round (the overhead baseline) and one
traced round of the same commands.

Timings are scaled to a host of fixed speed.  On a shared VM the speed
of a vCPU swings by half within a tenth of a second as other tenants
come and go, and the vCPU is taken away for milliseconds at a time.  So
a fixed pure-Python loop (:func:`reference_loop`) runs before the set-up
and after every segment of about 10 ms of commands, and the process's
CPU time in each interval is scaled by :data:`REFERENCE_S` over the
loop's CPU time around it (:func:`scaled`).  The scaled times repeat
where the raw ones do not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Model, Workload, blocks, check  # noqa: E402

#: Nominal seconds of one round (set-up, commands, checks) at ``--scale 1``.
ROUND_S = 5.0
MIN_ROUNDS = 4
#: Iterations of :func:`reference_loop`, and the seconds it is scaled to.
REFERENCE_LOOPS = 2500
REFERENCE_S = 0.5e-3

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "cmd/s",
    "latency_p50_us": "us",
    "accesses_per_cmd": "pages",
    "max_accesses_per_cmd": "pages",
    "peak_rss_mb": "MB",
}

#: Per-layer extras of a traced run: name -> unit.
LAYER_EXTRAS = {
    "core.records_moved_per_cmd": "records/cmd",
    "storage.backend.peek_calls": "count",
    "storage.bufferpool.hit_rate": "ratio",
    "storage.bufferpool.evictions": "count",
    "storage.bufferpool.writebacks": "count",
    "storage.bufferpool.prefetch_useful_frac": "ratio",
    "storage.codec.bytes_encoded": "B",
    "storage.ondisk.bytes_written": "B",
    "storage.ondisk.fsyncs": "count",
    "storage.wal.fsyncs_per_cmd": "1/cmd",
    "storage.wal.bytes_per_cmd": "B/cmd",
    "concurrent.lock_wait_s": "s",
    "concurrent.lock_acquires": "count",
    "cluster.client.retries": "count",
    "cluster.wire.bytes": "B",
    "cluster.server.errors": "count",
    "cluster.server.dedup_replays": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports: name -> unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reference_loop() -> float:
    """CPU seconds a fixed dict-and-integer loop takes now: the host's speed."""
    start = time.process_time()
    table: Dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return time.process_time() - start


def scaled(wall: float, cpu: float, before: float, after: float,
           waits: bool) -> Tuple[float, float]:
    """An interval as it would read where the loop takes REFERENCE_S.

    ``wall`` and ``cpu`` are the interval's wall-clock and process CPU
    seconds; ``before`` and ``after`` the loop's CPU seconds around it.
    The CPU time is scaled.  Wall time off the CPU is kept as measured
    when the workload ``waits`` on a device (fsync); otherwise it was
    taken by other tenants and is dropped.  Returns (scaled seconds,
    the factor that scales a wall-clock latency of the interval).
    """
    speed = 2 * REFERENCE_S / (before + after)
    cpu = min(cpu, wall)
    if waits:
        seconds = cpu * speed + (wall - cpu)
        return seconds, seconds / wall
    # A command that lost the CPU keeps that time in its latency, in
    # the tail, where the median does not see it.
    return cpu * speed, speed


def time_block(calls: List[Tuple[Callable[..., Any], tuple]],
               meter: Callable[[], int], latencies: array, segment: int,
               waits: bool, reference: float,
               clock: Callable[[], float] = time.perf_counter
               ) -> Tuple[float, float, List[Any], int, float]:
    """Run one block of commands, appending their scaled latencies.

    Chained timestamps: the end of command N is the start of command
    N+1, so each command costs one clock read.  The access meter is read
    after the clock, so its own cost rides in the next command's time.
    After every ``segment`` commands the reference loop runs, outside
    the timed window, and those commands are scaled by the loop's times
    on either side (:func:`scaled`); ``reference`` is the time of the
    loop run last.
    Returns (seconds, scaled seconds, outcomes, max accesses, the last
    loop time).
    """
    outcomes: List[Any] = []
    keep = outcomes.append
    worst = 0
    seconds = scaled_seconds = 0.0
    for first in range(0, len(calls), segment):
        raw = array("d")
        record = raw.append
        cpu = time.process_time()
        start = t0 = clock()
        a0 = meter()
        for fn, args in calls[first:first + segment]:
            try:
                out = fn(*args)
            except Exception as error:  # a failed command is an outcome
                out = error
            t1 = clock()
            a1 = meter()
            record(t1 - t0)
            keep(out)
            if a1 - a0 > worst:
                worst = a1 - a0
            t0 = t1
            a0 = a1
        wall, cpu = t0 - start, time.process_time() - cpu
        after = reference_loop()
        busy, factor = scaled(wall, cpu, reference, after, waits)
        reference = after
        latencies.extend(array("d", (latency * factor for latency in raw)))
        seconds += wall
        scaled_seconds += busy
    return seconds, scaled_seconds, outcomes, worst, reference


def _begin(tracer: Tracer, index: int,
           fn: Callable[..., Any]) -> Callable[..., Any]:
    def call(*args: Any) -> Any:
        tracer.begin_command(index)
        return fn(*args)

    return call


def run_round(workload: Workload, seed: int, number: int, scale: float,
              tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Build, preload and drive one fresh stack; check it against the oracle.

    Round ``number`` of a run draws its preload and commands from its own
    seed derived from ``seed``, so a run averages over several streams.
    """
    rng = random.Random(f"{seed}/{number}")
    records = workload.preload(rng)
    model = Model(records, ordered=workload.ordered)
    total = max(1, round(workload.commands * scale))
    workdir = OUT / f"tmp-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        before = reference_loop()
        start, cpu = time.perf_counter(), time.process_time()
        stack = workload.build(records, str(workdir))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        setup_s, _ = scaled(wall, cpu, before, reference_loop(), workload.waits)
        try:
            restore = stack.instrument(tracer) if tracer else (lambda: None)
            try:
                result = _drive(workload, stack, rng, model, total, tracer)
            finally:
                restore()
            result["setup_s"] = setup_s
            result["problems"] = stack.final_check(model)
        finally:
            stack.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _drive(workload: Workload, stack: Any, rng: random.Random, model: Model,
           total: int, tracer: Optional[Tracer]) -> Dict[str, Any]:
    ops = stack.ops()
    meter = stack.meter()
    latencies = array("d")  # scaled, every command
    timed: List[Tuple[float, float]] = []  # scaled (rate, median) per block
    before = stack.counters()
    accesses_before = meter()
    elapsed = 0.0  # as measured
    worst = 0
    mismatches = 0
    index = 0
    reference = reference_loop()
    for block in blocks(workload.stream(rng, model), total, workload.block):
        calls = [(ops[op], args) for op, args, _ in block]
        if tracer is not None:
            calls = [(_begin(tracer, index + i, fn), args)
                     for i, (fn, args) in enumerate(calls)]
        block_latencies = array("d")
        # Objects alive before the block are frozen out of the cyclic
        # collector until it ends, so a collection inside the block walks
        # only what the block made.  Otherwise every collection also walks
        # the harness's objects (this block's commands, the oracle), and
        # where the collections fall moves with how many there are: with
        # 64 blocks a round scan_mixed read 7% faster than with 40 or 72.
        gc.freeze()
        try:
            seconds, scaled_seconds, outcomes, block_worst, reference = time_block(
                calls, meter, block_latencies, workload.segment, workload.waits,
                reference)
        finally:
            gc.unfreeze()
        timed.append((len(block) / scaled_seconds,
                      percentile(sorted(block_latencies), 0.50)))
        latencies.extend(block_latencies)
        elapsed += seconds
        worst = max(worst, block_worst)
        index += len(block)
        for (op, args, expected), out in zip(block, outcomes):
            if not check(op, args, expected, out):
                mismatches += 1
    accesses = meter() - accesses_before
    after = stack.counters()
    layers = tracer.snapshot() if tracer is not None else None
    delta = {name: after[name] - before[name] for name in after}
    return {
        "commands": index,
        "elapsed": elapsed,
        "latencies": latencies,
        "blocks": timed,
        "mismatches": mismatches,
        "accesses": accesses,
        "max_accesses": worst,
        "delta": delta,
        "layers": layers,
    }


def exact_counts(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """The counts that depend only on the seed and the code."""
    commands = sum(r["commands"] for r in rounds)
    return {
        "accesses_per_cmd": sum(r["accesses"] for r in rounds) / commands,
        "max_accesses_per_cmd": max(r["max_accesses"] for r in rounds),
        "write_bytes_per_cmd":
            sum(r["delta"]["write_bytes"] for r in rounds) / commands,
        "records_moved_per_cmd":
            sum(r["delta"]["records_moved"] for r in rounds) / commands,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def timing(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """The gated timings of some rounds, all scaled: medians.

    Each block gives its commands per second and its median command
    latency; ``ops_per_s`` and ``latency_p50_us`` are the medians of
    those over every block of the rounds, and ``setup_s`` the median
    over the rounds.  A block stalled by something outside the program
    moves a median no more than any other block does.
    """
    return {
        "ops_per_s": statistics.median(
            rate for result in rounds for rate, _ in result["blocks"]),
        "latency_p50_us": statistics.median(
            median for result in rounds for _, median in result["blocks"]) * 1e6,
        "setup_s": statistics.median(result["setup_s"] for result in rounds),
    }


def untraced(workload: Workload, seed: int, seconds: float,
             scale: float) -> Dict[str, Any]:
    """One round per :data:`ROUND_S` of ``seconds``, then the metrics.

    The number of rounds follows from ``seconds`` alone, never from a
    measured time, so the exact counts are a function of the arguments.
    The even and the odd rounds also give two independent timings
    ("halves"), whose difference is the run's own noise.
    """
    count = max(MIN_ROUNDS, round(seconds / ROUND_S))
    rounds = [run_round(workload, seed, number, scale) for number in range(count)]
    exact = exact_counts(rounds)
    problems = [p for r in rounds for p in r["problems"]]
    attempted = sum(r["commands"] for r in rounds)
    failed = sum(r["mismatches"] for r in rounds) + len(problems)
    metrics = timing(rounds)
    metrics.update(
        accesses_per_cmd=exact["accesses_per_cmd"],
        max_accesses_per_cmd=exact["max_accesses_per_cmd"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    halves = [timing(rounds[parity::2]) for parity in (0, 1)]
    pooled = array("d")
    for result in rounds:
        pooled.extend(result["latencies"])
    samples = len(pooled)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": {name: _metric(metrics[name], unit)
                    for name, unit in END_TO_END.items()},
        "exact": exact,
        "diagnostics": {
            "failed_frac": failed / attempted,
            # Reported, not gated: see bench/README.md for their spread.
            "latency_p99_us": percentile(sorted(pooled), 0.99) * 1e6,
            "ops_per_s_unscaled": attempted / sum(r["elapsed"] for r in rounds),
            "latency_samples": samples,
            "samples_beyond_p99": samples - int(0.99 * samples),
            "rounds": len(rounds),
            "blocks": sum(len(r["blocks"]) for r in rounds),
            "timed_s": sum(r["elapsed"] for r in rounds),
        },
        "exact_by_round": [exact_counts([r]) for r in rounds],
        "halves": {name: [half[name] for half in halves]
                   for name in ("setup_s", "ops_per_s", "latency_p50_us")},
    }


def traced(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    """One untraced and one traced round over the same commands."""
    baseline = run_round(workload, seed, 0, scale)
    tracer = Tracer()
    measured = run_round(workload, seed, 0, scale, tracer)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(str(OUT / f"{workload.name}.trace.json"))
    problems = baseline["problems"] + measured["problems"]
    if exact_counts([measured]) != exact_counts([baseline]):
        problems.append("tracing changed the exact counters")
    attempted = baseline["commands"] + measured["commands"]
    failed = baseline["mismatches"] + measured["mismatches"] + len(problems)
    commands = measured["commands"]
    delta = measured["delta"]
    layers = measured["layers"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = layers[layer]["calls"]
        values[f"{layer}.self_s"] = layers[layer]["self_s"]
    values["harness.calls"] = commands
    values["harness.self_s"] = measured["elapsed"] - layers["top_s"]

    def extra(layer: str, name: str) -> float:
        return layers[layer]["extra"].get(name, 0)

    def ratio(numerator: str, denominator: str) -> float:
        total = delta.get(denominator, 0)
        return delta.get(numerator, 0) / total if total else 0.0

    hits, misses = delta.get("hits", 0), delta.get("misses", 0)
    values.update({
        "core.records_moved_per_cmd": delta["records_moved"] / commands,
        "storage.backend.peek_calls": extra("storage.backend", "peek_calls"),
        "storage.bufferpool.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "storage.bufferpool.evictions": delta.get("evictions", 0),
        "storage.bufferpool.writebacks": delta.get("writebacks", 0),
        "storage.bufferpool.prefetch_useful_frac": ratio("prefetch_hits", "prefetches"),
        "storage.codec.bytes_encoded": extra("storage.codec", "bytes_encoded"),
        "storage.ondisk.bytes_written": extra("storage.ondisk", "bytes_written"),
        "storage.ondisk.fsyncs": extra("storage.ondisk", "fsyncs"),
        "storage.wal.fsyncs_per_cmd": delta.get("journal_fsyncs", 0) / commands,
        "storage.wal.bytes_per_cmd": delta.get("journal_bytes", 0) / commands,
        "concurrent.lock_wait_s": extra("concurrent", "lock_wait_s"),
        "concurrent.lock_acquires": extra("concurrent", "lock_acquires"),
        "cluster.client.retries": delta.get("retries", 0),
        "cluster.wire.bytes": extra("cluster.wire", "bytes"),
        "cluster.server.errors": delta.get("server_errors", 0),
        "cluster.server.dedup_replays": delta.get("dedup_replays", 0),
        "trace.overhead_frac": 1 - (
            sum(baseline["latencies"]) / sum(measured["latencies"])
        ),
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": {name: _metric(values[name], unit)
                    for name, unit in per_layer_units().items()},
        "exact": exact_counts([measured]),
        "diagnostics": {"failed_frac": failed / attempted,
                        "trace_events": len(tracer.events)},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # One CPU for the whole process, server thread included: on a small
    # shared VM, cross-CPU wake-ups and migrations are the largest
    # source of run-to-run noise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        result = traced(workload, args.seed, args.scale)
    else:
        result = untraced(workload, args.seed, args.seconds, args.scale)
    result.update(workload=workload.name, seed=args.seed, scale=args.scale,
                  trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
