"""Tests for the adaptive shift-budget extension."""

import pytest

from repro import AdaptiveControl2Engine, Control2Engine, DensityParams
from repro.core.errors import ConfigurationError
from repro.workloads import (
    converging_inserts,
    mixed_workload,
    run_workload,
    uniform_random_inserts,
)


@pytest.fixture
def params():
    return DensityParams(num_pages=64, d=8, D=40)


class TestConstruction:
    def test_base_budget_validated(self, params):
        with pytest.raises(ConfigurationError):
            AdaptiveControl2Engine(params, base_budget=0)

    def test_base_budget_capped_at_full_budget(self, params):
        engine = AdaptiveControl2Engine(params, base_budget=10**6)
        assert engine.base_budget == params.shift_budget

    def test_algorithm_name(self, params):
        assert "adaptive" in AdaptiveControl2Engine(params).algorithm_name


class TestDangerZone:
    def test_danger_predicate_midpoint_exact(self, params):
        """The integer predicate matches the float midpoint formula."""
        engine = AdaptiveControl2Engine(params)
        tree = engine.calibrator
        for node in (tree.leaf_of_page[1], tree.right[tree.root]):
            pages = tree.pages_in(node)
            depth = tree.depth[node]
            midpoint = (
                params.g_value(depth, 2) + params.g_value(depth, 3)
            ) / 2
            for count in range(0, params.D * pages + 1):
                tree.count[node] = count
                expected = count / pages >= midpoint - 1e-9
                assert engine._in_danger_zone(node) == expected
            tree.count[node] = 0

    def test_no_escalation_when_calm(self, params):
        engine = AdaptiveControl2Engine(params)
        run_workload(engine, uniform_random_inserts(300, seed=1))
        assert engine.escalations == 0

    def test_escalation_under_a_surge(self):
        # Tight slack so the danger zone is actually reachable.
        params = DensityParams(num_pages=64, d=8, D=28)
        engine = AdaptiveControl2Engine(params, base_budget=1)
        for operation in converging_inserts(400):
            engine.insert(operation.key)
        engine.validate()
        assert engine.escalations > 0


class TestCorrectness:
    def test_invariants_hold_under_adversary(self, params):
        engine = AdaptiveControl2Engine(params, base_budget=1)
        result = run_workload(
            engine, converging_inserts(500), validate_every=50
        )
        assert result.validations > 0
        assert engine.stuck_shifts == 0

    def test_invariants_hold_under_mixed_workload(self, params):
        engine = AdaptiveControl2Engine(params, base_budget=2)
        run_workload(engine, mixed_workload(500, seed=9), validate_every=100)

    def test_same_contents_as_fixed_budget_engine(self, params):
        """Budgets change *when* records move, never *which* records live."""
        adaptive = AdaptiveControl2Engine(params, base_budget=1)
        fixed = Control2Engine(params)
        for operation in mixed_workload(400, seed=11):
            for engine in (adaptive, fixed):
                if operation.kind == "insert":
                    engine.insert(operation.key)
                else:
                    engine.delete(operation.key)
        adaptive_keys = [r.key for r in adaptive.pagefile.iter_all()]
        fixed_keys = [r.key for r in fixed.pagefile.iter_all()]
        assert adaptive_keys == fixed_keys

    def test_worst_case_never_exceeds_full_budget_bound(self, params):
        engine = AdaptiveControl2Engine(params, base_budget=1)
        log = engine.enable_operation_log()
        for operation in converging_inserts(500):
            engine.insert(operation.key)
        bound = params.worst_case_bound
        assert log.worst_case_accesses <= bound


class TestCostProfile:
    def test_calmer_commands_cost_less_than_fixed_budget(self):
        """After a surge, the drain phase is cheaper per command."""
        params = DensityParams(num_pages=256, d=8, D=48)
        surge = converging_inserts(600)
        calm = uniform_random_inserts(600, seed=2)

        def run(engine):
            log = engine.enable_operation_log()
            for operation in surge:
                engine.insert(operation.key)
            start = len(log)
            for operation in calm:
                engine.insert(float(operation.key) + 0.3)
            tail = log.page_accesses[start:]
            return sum(tail) / len(tail)

        adaptive_mean = run(AdaptiveControl2Engine(params, base_budget=1))
        fixed_mean = run(Control2Engine(params))
        assert adaptive_mean <= fixed_mean
