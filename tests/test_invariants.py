"""Unit tests for the invariant checkers (including failure detection)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Control2Engine, DenseSequentialFile, DensityParams
from repro.core.errors import InvariantViolationError
from repro.core.invariants import (
    balance_violations,
    check_balance,
    check_counters,
    check_density,
    check_directory,
    check_engine,
    check_sequential_order,
    check_warning_flags,
)
from repro.records import Record
from repro.storage.pagefile import PageFile


@pytest.fixture
def params():
    return DensityParams(num_pages=8, d=9, D=18, j=3)


class TestSequentialOrder:
    def test_accepts_ordered_file(self):
        pf = PageFile(4)
        pf.load_page(1, [Record(1), Record(2)])
        pf.load_page(3, [Record(5)])
        check_sequential_order(pf)

    def test_detects_cross_page_inversion(self):
        pf = PageFile(4)
        pf.load_page(1, [Record(10)])
        pf.load_page(3, [Record(5)])
        with pytest.raises(InvariantViolationError, match="sequential order"):
            check_sequential_order(pf)

    def test_detects_duplicate_keys_across_pages(self):
        pf = PageFile(4)
        pf.load_page(1, [Record(5)])
        pf.load_page(2, [Record(5)])
        with pytest.raises(InvariantViolationError):
            check_sequential_order(pf)

    def test_empty_file_is_ordered(self):
        check_sequential_order(PageFile(4))


class TestDensity:
    def test_accepts_within_bounds(self, params):
        pf = PageFile(8)
        pf.load_page(1, [Record(k) for k in range(18)])
        check_density(pf, params)

    def test_detects_page_over_capacity(self, params):
        pf = PageFile(8)
        pf.load_page(1, [Record(k) for k in range(19)])
        with pytest.raises(InvariantViolationError, match="exceeding D"):
            check_density(pf, params)

    def test_detects_total_over_cap(self):
        params = DensityParams(num_pages=2, d=1, D=5)
        pf = PageFile(2)
        pf.load_page(1, [Record(1), Record(2)])
        pf.load_page(2, [Record(3)])
        with pytest.raises(InvariantViolationError, match="d\\*M"):
            check_density(pf, params)


class TestBalance:
    def test_accepts_balanced_tree(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([9] * 8)
        check_balance(engine.calibrator, params)

    def test_detects_leaf_violation(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([9] * 8)
        # Force a leaf counter over g(leaf, 1) = D = 18 behind the
        # algorithm's back.
        engine.calibrator.add(1, 10)
        violations = balance_violations(engine.calibrator, params)
        assert violations
        with pytest.raises(InvariantViolationError, match="BALANCE"):
            check_balance(engine.calibrator, params)

    def test_figure_1_example_is_balanced(self):
        """The paper's Figure 1: 4 pages, d=2, D=3, counts [3,2,1,2]."""
        params = DensityParams(num_pages=4, d=2, D=3, j=1)
        from repro.core.calibrator import CalibratorTree

        tree = CalibratorTree(4)
        for page, count in enumerate([3, 2, 1, 2], start=1):
            tree.add(page, count)
        assert balance_violations(tree, params) == []


def brute_force_headroom(calibrator, params):
    """min over nodes of ``⌊g(v, 1) · M_v⌋ − N_v``, in exact fractions,
    with ``g(v, 1) = d + Depth(v) · (D − d) / ⌈log₂ M⌉``."""
    return min(
        math.floor(
            (params.d + Fraction(calibrator.depth[node] * params.slack,
                                 params.log_m))
            * calibrator.pages_in(node)
        )
        - calibrator.count[node]
        for node in calibrator.iter_nodes()
    )


class TestBalanceHeadroom:
    @given(
        algorithm=st.sampled_from(["control1", "control2"]),
        num_pages=st.integers(2, 64),
        d=st.integers(1, 8),
        extra=st.integers(1, 12),
        j=st.sampled_from([1, 2, None]),
        script=st.lists(st.tuples(st.booleans(), st.integers(0, 5000)),
                        max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_gauge_is_the_least_room_and_negative_iff_unbalanced(
        self, algorithm, num_pages, d, extra, j, script
    ):
        # Slack just past 3⌈log₂M⌉, so CONTROL 2 runs on plain pages.
        slack = 3 * DensityParams(num_pages, 1, 2).log_m + extra
        dense = DenseSequentialFile(num_pages, d, d + slack,
                                    algorithm=algorithm, j=j)
        engine = dense.engine
        tree, params = engine.calibrator, engine.params
        present = set()
        for insert, key in script:
            if insert and key not in present and len(present) < params.max_records:
                dense.insert(key)
                present.add(key)
            elif not insert and present:
                victim = sorted(present)[key % len(present)]
                dense.delete(victim)
                present.discard(victim)
            headroom = dense.store_stats()["core.balance_headroom"]
            assert headroom == brute_force_headroom(tree, params)
            assert (headroom < 0) == bool(balance_violations(tree, params))
            assert balance_violations(tree, params) == [
                node for node in tree.iter_nodes()
                if params.density_exceeds(
                    tree.count[node], tree.pages_in(node), tree.depth[node], 3
                )
            ]

    def test_hand_raised_counters_pin_a_negative_value(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([9] * 8)
        assert engine.balance_headroom == 0  # the root holds d*M = 72
        # Ten records over page 1's counters: the leaf holds 19 > D = 18
        # and the root 82 > d*M = 72, the tightest node.
        engine.calibrator.add(1, 10)
        assert engine.balance_headroom == -10
        assert brute_force_headroom(engine.calibrator, params) == -10
        assert balance_violations(engine.calibrator, params)


class TestCounters:
    def test_detects_desync(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([9] * 8)
        engine.calibrator.count[engine.calibrator.root] += 1
        with pytest.raises(InvariantViolationError, match="rank counter"):
            check_counters(engine.pagefile, engine.calibrator)


class TestDirectory:
    def test_detects_stale_directory(self):
        pf = PageFile(4)
        pf.load_page(2, [Record(1)])
        pf._nonempty.append(4)  # sabotage
        pf._mins.append(99)
        with pytest.raises(InvariantViolationError, match="directory"):
            check_directory(pf)


class TestWarningFlags:
    def test_fact_51a_detected(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([2] * 8)
        leaf = engine.calibrator.leaf_of_page[1]
        engine.calibrator.set_flag(leaf, True)
        engine.destinations[leaf] = 2
        with pytest.raises(InvariantViolationError, match="5.1\\(a\\)"):
            check_warning_flags(engine)

    def test_fact_51b_detected(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([17, 0, 0, 0, 0, 0, 0, 0])
        # p(L1) = 17 >= g(L1, 2/3) = 17 but no warning raised.
        with pytest.raises(InvariantViolationError, match="5.1\\(b\\)"):
            check_warning_flags(engine)

    def test_warning_without_dest_detected(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([17, 0, 0, 0, 0, 0, 0, 0])
        leaf = engine.calibrator.leaf_of_page[1]
        engine.calibrator.set_flag(leaf, True)
        with pytest.raises(InvariantViolationError, match="DEST"):
            check_warning_flags(engine)

    def test_dest_outside_father_range_detected(self, params):
        engine = Control2Engine(params)
        engine.load_occupancies([17, 0, 0, 0, 0, 0, 0, 0])
        leaf = engine.calibrator.leaf_of_page[1]
        engine.calibrator.set_flag(leaf, True)
        engine.destinations[leaf] = 7  # f(L1) = [1,2]
        with pytest.raises(InvariantViolationError, match="outside RANGE"):
            check_warning_flags(engine)


class TestCheckEngine:
    def test_accepts_a_live_engine(self, params):
        engine = Control2Engine(params)
        for key in range(40):
            engine.insert(key)
        check_engine(engine)

    def test_detects_size_desync(self, params):
        engine = Control2Engine(params)
        engine.insert(1)
        engine.size += 1
        with pytest.raises(InvariantViolationError, match="size"):
            check_engine(engine)
