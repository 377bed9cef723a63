"""Tests for the macro-block extension (Theorem 5.7)."""

import pytest

from repro import (
    ConfigurationError,
    DensityParams,
    MacroBlockControl2Engine,
    macro_block_factor,
    macro_params,
)
from repro.workloads import converging_inserts, mixed_workload, run_workload


class TestFactorAndParams:
    def test_factor_is_least_sufficient(self):
        # M=64 -> 3*logM = 18; slack 4 -> K = 5 (5*4=20 > 18, 4*4=16 <= 18).
        assert macro_block_factor(64, 8, 12) == 5

    def test_factor_one_when_slack_already_large(self):
        assert macro_block_factor(64, 8, 40) == 1

    def test_macro_params_geometry(self):
        params = macro_params(64, 8, 12)
        # K=5 -> 13 macro blocks of capacity 5*12, density 5*8.
        assert params.num_pages == 13
        assert params.d == 40
        assert params.D == 60

    def test_macro_params_satisfy_slack_condition(self):
        params = macro_params(64, 8, 12)
        assert params.satisfies_slack_condition

    def test_too_small_file_rejected(self):
        with pytest.raises(ConfigurationError):
            macro_params(4, 8, 9)  # K big, < 2 macro blocks

    def test_invalid_slack_rejected(self):
        with pytest.raises(ConfigurationError):
            macro_block_factor(64, 10, 10)


class TestMacroEngine:
    @pytest.fixture
    def engine(self):
        return MacroBlockControl2Engine(num_pages=64, d=8, D=12)

    def test_cap_is_physical_not_macro(self, engine):
        assert engine.physical_max_records == 8 * 64
        assert engine.params.max_records >= engine.physical_max_records

    def test_insert_beyond_physical_cap_raises(self):
        from repro.core.errors import FileFullError

        engine = MacroBlockControl2Engine(num_pages=64, d=2, D=3)
        for key in range(engine.physical_max_records):
            engine.insert(key)
        with pytest.raises(FileFullError):
            engine.insert(10**9)

    def test_macro_accesses_cost_k_physical_units(self, engine):
        engine.insert(1)
        stats = engine.stats
        assert stats.cost == pytest.approx(
            stats.page_accesses * engine.block_factor
        )
        assert engine.physical_page_accesses() == (
            stats.page_accesses * engine.block_factor
        )

    def test_maintenance_under_adversary(self, engine):
        result = run_workload(
            engine, converging_inserts(400), validate_every=50
        )
        assert result.validations > 0
        assert engine.stuck_shifts == 0

    def test_maintenance_under_mixed_workload(self, engine):
        run_workload(engine, mixed_workload(400, seed=7), validate_every=50)

    def test_search_and_scan_work(self, engine):
        for key in range(100):
            engine.insert(key, key * 3)
        assert engine.search(40).value == 120
        assert [r.key for r in engine.range_scan(10, 14)] == [10, 11, 12, 13, 14]

    def test_worst_case_cost_bounded(self, engine):
        result = run_workload(engine, converging_inserts(300))
        params = engine.params
        bound = engine.block_factor * params.worst_case_bound
        assert result.log.worst_case_accesses * engine.block_factor <= bound


class TestEquivalenceWithPlainControl2:
    def test_same_record_set_maintained(self):
        plain_params = DensityParams(num_pages=64, d=8, D=40)
        from repro import Control2Engine

        plain = Control2Engine(plain_params)
        macro = MacroBlockControl2Engine(num_pages=64, d=8, D=12)
        for op in mixed_workload(300, seed=9):
            for engine in (plain, macro):
                if op.kind == "insert":
                    engine.insert(op.key)
                else:
                    engine.delete(op.key)
        plain_keys = [r.key for r in plain.pagefile.iter_all()]
        macro_keys = [r.key for r in macro.pagefile.iter_all()]
        assert plain_keys == macro_keys
