"""EXP-S1 — the disabled sanitizer is free, the enabled one is honest.

The sanitizer PR adds an instrumentation seam to the stress harness:
with ``sanitize=True`` the stack is rebuilt around
:class:`~repro.sanitizer.SanitizedStore` / ``SanitizedRWLock``; with
``sanitize=False`` (the default) the harness constructs the exact
plain stack it always did — different *objects*, not a flag checked
per access.  That zero-cost-when-off claim is gated three ways:

* **by construction** — the off-mode stack contains no ``Sanitized*``
  wrapper anywhere in the store chain and no sanitizer counters in
  the report;
* **bit-identical logic** — schedule digest and logical operation
  counters match between off and on runs of the same seed, so the
  instrumentation observes the run without steering it;
* **wall-clock** — the off run stays inside the repo's standing 30%
  regression gate (:data:`repro.benchmark.DEFAULT_MAX_REGRESSION`)
  against an identically configured baseline run, which is exactly
  the gate a future hot-path ``if sanitize:`` conditional would trip.
"""

import time

from bench_helpers import banner, emit, once

from repro.analysis import render_table
from repro.benchmark import DEFAULT_MAX_REGRESSION
from repro.concurrent.harness import StressConfig, build_file, run_stress

SEED = 5
TOTAL_OPS = 160


def timed_run(sanitize: bool):
    config = StressConfig(seed=SEED, total_ops=TOTAL_OPS, sanitize=sanitize)
    started = time.perf_counter()
    report = run_stress(config)
    return report, time.perf_counter() - started


def test_off_mode_builds_the_plain_stack():
    # No-op by construction: with no runtime the builder returns the
    # bare stack — there is no disabled wrapper left in the chain to
    # pay for, and nothing sanitizer-shaped in the report.
    dense = build_file(StressConfig(seed=SEED, total_ops=TOTAL_OPS))
    chain = []
    store = getattr(dense.engine, "store", None)
    while store is not None:
        chain.append(type(store).__name__)
        store = getattr(store, "inner", None)
    assert all("Sanitized" not in name for name in chain), chain
    report = run_stress(StressConfig(seed=SEED, total_ops=40))
    assert report.sanitizer_counters is None


def test_sanitizer_off_overhead_within_gate(benchmark):
    def run():
        baseline = timed_run(sanitize=False)
        off = timed_run(sanitize=False)
        on = timed_run(sanitize=True)
        return baseline, off, on

    (base, base_s), (off, off_s), (on, on_s) = once(benchmark, run)
    # The logical run is the same run, bit for bit, in all three modes.
    for other in (off, on):
        assert other.schedule_digest == base.schedule_digest
        assert other.ops_executed == base.ops_executed
        assert other.batches == base.batches
    assert base.ok and off.ok and on.ok
    assert on.sanitizer_counters is not None
    assert on.sanitizer_counters["findings"] == 0
    emit(
        banner(
            f"EXP-S1: sanitizer overhead, {TOTAL_OPS} torture ops, "
            f"seed {SEED}"
        ),
        render_table(
            ["mode", "ops", "seconds"],
            [
                ["plain (baseline)", base.ops_executed, f"{base_s:.3f}"],
                ["sanitize=False", off.ops_executed, f"{off_s:.3f}"],
                ["sanitize=True", on.ops_executed, f"{on_s:.3f}"],
            ],
        ),
    )
    # The standing bench gate: 30% (plus a constant-time floor so a
    # sub-second run's scheduler jitter cannot flake the assertion).
    ceiling = base_s * (1.0 + DEFAULT_MAX_REGRESSION / 100.0) + 0.25
    assert off_s < ceiling, (
        f"sanitizer-off run regressed past the {DEFAULT_MAX_REGRESSION:.0f}% "
        f"gate: {base_s:.3f}s -> {off_s:.3f}s"
    )
