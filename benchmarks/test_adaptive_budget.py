"""EXP-A6 — extension ablation: the adaptive shift budget.

Not in the paper: :class:`~repro.core.adaptive.AdaptiveControl2Engine`
spends a small base budget per command and escalates to the full paper
budget only while some warning node sits in the upper half of its
``[g(v, 2/3), g(v, 1)]`` corridor.  This benchmark runs a surge-then-calm
session and compares, against fixed budgets:

* safety — BALANCE violations (must stay 0);
* mean per-command cost in the calm phase (the drain after the surge is
  where the fixed budget over-pays);
* worst per-command cost (the adaptive engine keeps the paper ceiling).
"""

from bench_helpers import banner, emit, once

from repro import AdaptiveControl2Engine, Control2Engine, DensityParams
from repro.analysis import render_table
from repro.core.invariants import balance_violations
from repro.workloads import converging_inserts, uniform_random_inserts

PARAMS = DensityParams(num_pages=256, d=8, D=48)
SURGE = 800
CALM = 800


def run_session(engine):
    log = engine.enable_operation_log()
    violations = 0
    for operation in converging_inserts(SURGE):
        engine.insert(operation.key)
        if balance_violations(engine.calibrator, PARAMS):
            violations += 1
    surge_end = len(log)
    for operation in uniform_random_inserts(CALM, seed=2):
        engine.insert(float(operation.key) + 0.3)
        if balance_violations(engine.calibrator, PARAMS):
            violations += 1
    calm_costs = log.page_accesses[surge_end:]
    return {
        "violations": violations,
        "surge_mean": sum(log.page_accesses[:surge_end]) / surge_end,
        "calm_mean": sum(calm_costs) / len(calm_costs),
        "worst": log.worst_case_accesses,
    }


def test_adaptive_budget(benchmark):
    def sweep():
        contenders = {
            f"fixed J={PARAMS.shift_budget} (paper default)": Control2Engine(
                PARAMS
            ),
            "adaptive (base 1)": AdaptiveControl2Engine(PARAMS, base_budget=1),
            "adaptive (base 2)": AdaptiveControl2Engine(PARAMS, base_budget=2),
        }
        return {name: run_session(engine) for name, engine in contenders.items()}

    results = once(benchmark, sweep)
    rows = [
        [
            name,
            outcome["violations"],
            f"{outcome['surge_mean']:.2f}",
            f"{outcome['calm_mean']:.2f}",
            outcome["worst"],
        ]
        for name, outcome in results.items()
    ]
    emit(
        banner(
            f"EXP-A6 (extension): adaptive vs fixed shift budget "
            f"(M=256, d=8, D=48, {SURGE} surge + {CALM} calm inserts)"
        ),
        render_table(
            ["engine", "violations", "surge mean", "calm mean", "worst"],
            rows,
        ),
    )
    fixed = results[f"fixed J={PARAMS.shift_budget} (paper default)"]
    adaptive = results["adaptive (base 1)"]
    # Everybody stays safe.
    assert all(outcome["violations"] == 0 for outcome in results.values())
    # The adaptive engine is cheaper in the calm/drain phase...
    assert adaptive["calm_mean"] <= fixed["calm_mean"]
    # ...and never exceeds the paper's per-command ceiling.
    bound = PARAMS.worst_case_bound
    assert adaptive["worst"] <= bound
