"""EXP-R1 — the disabled fault layer is free.

The robustness PR wraps every production stack in
``RetryingStore(FaultyStore(inner))``.  That is only acceptable if a
*disabled* fault plan is invisible: the logical page-access counters
the paper bounds must be byte-identical to the bare backend's, and the
wall-clock overhead of the two pass-through decorators must stay in
the noise next to the engine work itself.

Two meters, one workload: the same adversarial insert/delete mix runs
on a bare :class:`MemoryStore` and on the decorated stack, and every
counter the engine exposes is compared field for field.
"""

import time

from bench_helpers import banner, emit, once

from repro import Control2Engine, DensityParams
from repro.analysis import render_table
from repro.obs import Metrics
from repro.storage.backend import MemoryStore, register_store
from repro.storage.faults import FaultPlan, fault_tolerant_stack
from repro.workloads import converging_inserts, run_workload

NUM_PAGES = 256
OPERATIONS = 1500
PARAMS = dict(num_pages=NUM_PAGES, d=8, D=48)


def run_stack(decorated: bool):
    """Drive the workload; returns (engine stats, seconds, store stats)."""
    inner = MemoryStore(NUM_PAGES)
    if decorated:
        store = fault_tolerant_stack(inner, FaultPlan(seed=0))
        assert not store.inner.plan.enabled
    else:
        store = inner
    engine = Control2Engine(DensityParams(**PARAMS), store=store)
    started = time.perf_counter()
    run_workload(engine, converging_inserts(OPERATIONS))
    elapsed = time.perf_counter() - started
    engine.validate()
    metrics = Metrics()
    register_store(metrics, store)
    return engine.stats, elapsed, metrics.snapshot()


def test_disabled_fault_layer_is_free(benchmark):
    def run():
        return run_stack(decorated=False), run_stack(decorated=True)

    (bare, bare_s, bare_stats), (deco, deco_s, deco_stats) = once(
        benchmark, run
    )
    # The logical counters the paper bounds: identical, not merely close.
    for field in ("reads", "writes", "seeks"):
        assert getattr(bare, field) == getattr(deco, field), (
            f"disabled fault layer changed logical {field}: "
            f"{getattr(bare, field)} vs {getattr(deco, field)}"
        )
    # The retrying layer absorbed nothing because nothing was injected.
    assert deco_stats["storage.faults.retries"] == 0
    assert deco_stats["storage.faults.giveups"] == 0
    assert deco_stats["storage.faults.transients_injected"] == 0
    emit(
        banner(
            f"EXP-R1: disabled FaultyStore+RetryingStore overhead, "
            f"{OPERATIONS} adversarial updates on {NUM_PAGES} pages"
        ),
        render_table(
            ["stack", "reads", "writes", "seconds"],
            [
                ["bare MemoryStore", bare.reads, bare.writes,
                 f"{bare_s:.3f}"],
                ["retrying(faulty(memory))", deco.reads, deco.writes,
                 f"{deco_s:.3f}"],
                ["overhead", 0, 0, f"{deco_s - bare_s:+.3f}"],
            ],
        ),
    )
    # Two Python method hops per access: generous ceiling, loud failure.
    assert deco_s < bare_s * 4 + 0.25, (
        f"pass-through overhead blew up: {bare_s:.3f}s -> {deco_s:.3f}s"
    )
