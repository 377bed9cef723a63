"""Unit tests for the access-cost model and counters."""

import random

import pytest

from repro.storage.cost import (
    AccessStats,
    CostModel,
    DISK_ARM_MODEL,
    PAGE_ACCESS_MODEL,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.tracing import READ, AccessTrace


class TestCostModel:
    def test_page_access_model_charges_flat_units(self):
        assert PAGE_ACCESS_MODEL.access_cost(1, 500) == 1.0
        assert PAGE_ACCESS_MODEL.access_cost(500, 501) == 1.0

    def test_contiguous_access_pays_no_seek(self):
        model = CostModel(seek_base=10.0, seek_per_page=1.0)
        assert model.access_cost(7, 8) == 1.0
        assert model.access_cost(8, 8) == 1.0
        assert model.access_cost(8, 7) == 1.0

    def test_distant_access_pays_base_plus_distance(self):
        model = CostModel(seek_base=10.0, seek_per_page=0.5)
        assert model.access_cost(0, 100) == 1.0 + 10.0 + 50.0

    def test_seek_cost_is_capped(self):
        model = CostModel(seek_base=10.0, seek_per_page=1.0, seek_max=15.0)
        assert model.seek_cost(1000) == 15.0

    def test_zero_cap_means_uncapped(self):
        model = CostModel(seek_base=1.0, seek_per_page=1.0, seek_max=0.0)
        assert model.seek_cost(1000) == 1001.0

    def test_cold_arm_pays_base_seek_only(self):
        model = CostModel(seek_base=10.0, seek_per_page=1.0)
        assert model.access_cost(-1, 500) == 11.0

    def test_wider_contiguous_window(self):
        model = CostModel(seek_base=10.0, contiguous_window=4)
        assert model.access_cost(10, 14) == 1.0
        assert model.access_cost(10, 15) == 11.0

    def test_disk_arm_model_prefers_sequential(self):
        sequential = DISK_ARM_MODEL.access_cost(10, 11)
        random_probe = DISK_ARM_MODEL.access_cost(10, 5000)
        assert random_probe > 5 * sequential


class TestAccessStats:
    def test_counts_reads_and_writes_separately(self):
        disk = SimulatedDisk(100)
        disk.read(5)  # cold arm: one seek
        disk.write(6)
        disk.write(6)
        stats = disk.stats
        assert stats.reads == 1
        assert stats.writes == 2
        assert stats.page_accesses == 3
        assert stats.seeks == 1

    def test_cost_accumulates(self):
        disk = SimulatedDisk(100, CostModel(seek_base=2.0, seek_per_page=0.5))
        disk.read(10)  # cold arm: 1 + 2
        disk.write(20)  # 1 + 2 + 0.5 * 10
        assert disk.stats.cost == 11.0

    def test_checkpoint_delta_isolates_an_operation(self):
        disk = SimulatedDisk(100, CostModel(seek_base=2.0))
        disk.read(1)
        disk.stats.checkpoint("op")
        disk.write(50)
        delta = disk.stats.delta("op")
        assert delta.reads == 0
        assert delta.writes == 1
        assert delta.cost == 3.0
        assert delta.seeks == 1

    def test_delta_without_checkpoint_measures_from_zero(self):
        disk = SimulatedDisk(100)
        disk.read(1)
        assert disk.stats.delta("never-set").reads == 1

    def test_named_checkpoints_are_independent(self):
        disk = SimulatedDisk(100)
        stats = disk.stats
        stats.checkpoint("a")
        disk.read(1)
        stats.checkpoint("b")
        disk.read(1)
        assert stats.delta("a").reads == 2
        assert stats.delta("b").reads == 1

    def test_reset_clears_everything(self):
        disk = SimulatedDisk(100)
        disk.read(1)
        stats = disk.stats
        stats.checkpoint("x")
        stats.reset()
        assert stats.page_accesses == 0
        assert stats.cost == 0.0
        assert stats.delta("x").reads == 0


def _macro_scaled(model: CostModel, factor: int) -> CostModel:
    """``model`` priced per macro-block, as the macro-block engine builds it."""
    return CostModel(
        transfer_cost=model.transfer_cost * factor,
        seek_base=model.seek_base,
        seek_per_page=model.seek_per_page * factor,
        seek_max=model.seek_max,
        contiguous_window=model.contiguous_window,
    )


def _replay(model: CostModel, trace) -> tuple:
    """Reads, writes, seeks, cost and arm of a trace priced by ``model``."""
    reads = writes = seeks = 0
    cost = 0.0
    arm = -1
    for event in trace:
        if event.kind == READ:
            reads += 1
        else:
            writes += 1
        if arm < 0 or abs(event.page - arm) > model.contiguous_window:
            seeks += 1
        cost += model.access_cost(arm, event.page)
        arm = event.page
    return reads, writes, seeks, cost, arm


def _meter(disk: SimulatedDisk) -> tuple:
    stats = disk.stats
    return stats.reads, stats.writes, stats.seeks, stats.cost, disk.arm_position


class TestMeterReference:
    """The fused meters against the separate calls and ``access_cost``."""

    PAGES = 600

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "model",
        [DISK_ARM_MODEL, _macro_scaled(DISK_ARM_MODEL, 4)],
        ids=["disk-arm", "macro-scaled"],
    )
    def test_fused_meters_equal_separate_calls_and_replay(self, model, seed):
        rng = random.Random(seed)
        fused = SimulatedDisk(self.PAGES, model, AccessTrace(enabled=True))
        plain = SimulatedDisk(self.PAGES, model, AccessTrace(enabled=True))
        page = rng.randint(1, self.PAGES)
        for _ in range(400):
            # Half the steps stay near the arm (inside and just past the
            # contiguous window); the rest jump anywhere.
            if rng.random() < 0.5:
                page = min(max(page + rng.randint(-3, 3), 1), self.PAGES)
            else:
                page = rng.randint(1, self.PAGES)
            other = min(max(page + rng.choice([-40, -2, -1, 1, 2, 40]), 1),
                        self.PAGES)
            kind = rng.choice(["read", "write", "read2", "move_charge"])
            if kind == "read":
                fused.read(page)
                plain.read(page)
            elif kind == "write":
                fused.write(page)
                plain.write(page)
            elif kind == "read2":
                fused.read2(page)
                plain.read(page)
                plain.read(page)
            else:
                fused.move_charge(page, other)
                plain.read(page)
                plain.write(other)
                plain.write(page)
            assert _meter(fused) == _meter(plain), kind
        assert list(fused.trace) == list(plain.trace)
        assert _replay(model, fused.trace) == _meter(fused)
        assert fused.stats.seeks > 0
