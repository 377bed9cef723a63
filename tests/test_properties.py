"""Property-based tests (hypothesis) on the core data structures.

These tests drive randomly generated command sequences through the
structures and assert the paper's invariants plus set-semantics
equivalence with a trivial model.  They are the strongest correctness
evidence in the suite: any divergence between CONTROL 2 and a sorted
set, any BALANCE violation, or any counter desync on *any* reachable
state shrinks to a minimal reproducing command list.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro import Control1Engine, Control2Engine, DensityParams
from repro.baselines.btree import BPlusTree
from repro.baselines.pma import PackedMemoryArray
from repro.core.errors import FileFullError
from repro.records import Record
from repro.storage.page import Page
from repro.storage.pagefile import PageFile

KEYS = st.integers(min_value=-(10**6), max_value=10**6)


# ----------------------------------------------------------------------
# Page properties
# ----------------------------------------------------------------------


class TestPageProperties:
    @given(st.lists(KEYS, unique=True))
    def test_page_iterates_in_sorted_order(self, keys):
        page = Page(Record(key) for key in keys)
        assert [record.key for record in page] == sorted(keys)

    @given(st.lists(KEYS, unique=True, min_size=1), st.integers(0, 20))
    def test_take_lowest_plus_remainder_is_original(self, keys, count):
        page, taken = Page(Record(key) for key in keys), Page()
        page.take_lowest_into(taken, count)
        remaining = page.records()
        assert [r.key for r in taken] + [r.key for r in remaining] == sorted(keys)

    @given(st.lists(KEYS, unique=True, min_size=1), st.integers(0, 20))
    def test_take_highest_plus_remainder_is_original(self, keys, count):
        page, taken = Page(Record(key) for key in keys), Page()
        page.take_highest_into(taken, count)
        remaining = page.records()
        assert [r.key for r in remaining] + [r.key for r in taken] == sorted(keys)

    @given(st.lists(KEYS, unique=True, min_size=1), st.integers(0, 20))
    def test_take_into_moves_round_trip(self, keys, count):
        keys = sorted(keys)
        split = len(keys) // 2
        low = Page(Record(key, key) for key in keys[:split])
        high = Page(Record(key, key) for key in keys[split:])
        moved = high.take_lowest_into(low, count)
        assert moved == min(count, len(keys) - split)
        assert low.records() + high.records() == [Record(k, k) for k in keys]
        assert low.take_highest_into(high, moved) == moved
        assert [r.key for r in low] == keys[:split]
        assert [r.key for r in high] == keys[split:]


# ----------------------------------------------------------------------
# PageFile properties
# ----------------------------------------------------------------------


class TestPageFileProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 16), KEYS),
            max_size=60,
        )
    )
    def test_locate_finds_the_owning_page(self, placements):
        """Whatever pages records land on (in key-consistent placements),
        locate() finds the page that holds any stored key."""
        pf = PageFile(16)
        stored = {}
        for page, key in placements:
            if key in stored:
                continue
            # Keep the placement order-consistent: a key may go to a
            # page only if it does not break the global ordering.
            lower_ok = all(
                other_page <= page
                for other_key, other_page in stored.items()
                if other_key < key
            )
            upper_ok = all(
                other_page >= page
                for other_key, other_page in stored.items()
                if other_key > key
            )
            if not (lower_ok and upper_ok):
                continue
            pf.insert_record(page, Record(key))
            stored[key] = page
        for key, page in stored.items():
            assert pf.locate(key) == page

    @given(st.lists(KEYS, unique=True, min_size=2, max_size=100))
    def test_redistribute_preserves_multiset_and_order(self, keys):
        pf = PageFile(8)
        pf.load_page(4, [Record(key) for key in sorted(keys)])
        pf.redistribute(1, 8)
        collected = [r.key for _, records in pf.snapshot() for r in records]
        assert collected == sorted(keys)
        counts = pf.occupancies()
        assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
# Dense-file engines vs a sorted-set model (stateful)
# ----------------------------------------------------------------------


class DenseFileMachine(RuleBasedStateMachine):
    """Drives CONTROL 2 and a plain set with the same commands."""

    engine_class = Control2Engine
    params = DensityParams(num_pages=16, d=4, D=20, j=None)

    def __init__(self):
        super().__init__()
        self.engine = self.engine_class(self.params)
        self.model = set()

    @rule(key=st.integers(0, 300))
    def insert(self, key):
        if key in self.model:
            return
        if len(self.model) >= self.params.max_records:
            with pytest.raises(FileFullError):
                self.engine.insert(key)
            return
        self.engine.insert(key)
        self.model.add(key)

    @rule(key=st.integers(0, 300))
    def delete_if_present(self, key):
        if key not in self.model:
            return
        self.engine.delete(key)
        self.model.remove(key)

    @invariant()
    def matches_model(self):
        stored = [record.key for record in self.engine.pagefile.iter_all()]
        assert stored == sorted(self.model)

    @invariant()
    def structural_invariants_hold(self):
        self.engine.validate()

    @invariant()
    def never_needed_the_defensive_fallback(self):
        if hasattr(self.engine, "stuck_shifts"):
            assert self.engine.stuck_shifts == 0


class Control1Machine(DenseFileMachine):
    engine_class = Control1Engine


TestControl2StateMachine = DenseFileMachine.TestCase
TestControl1StateMachine = Control1Machine.TestCase


# ----------------------------------------------------------------------
# B+-tree vs model
# ----------------------------------------------------------------------


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(fanout=4, leaf_capacity=4)
        self.model = dict()

    @rule(key=st.integers(0, 200), value=st.integers())
    def insert(self, key, value):
        if key in self.model:
            return
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(key=st.integers(0, 200))
    def delete_if_present(self, key):
        if key not in self.model:
            return
        self.tree.delete(key)
        del self.model[key]

    @rule(key=st.integers(0, 200))
    def search_agrees(self, key):
        found = self.tree.search(key)
        if key in self.model:
            assert found == Record(key, self.model[key])
        else:
            assert found is None

    @invariant()
    def tree_is_structurally_valid(self):
        self.tree.check_invariants()

    @invariant()
    def scan_matches_model(self):
        keys = [r.key for r in self.tree.range_scan(-1, 10**9)]
        assert keys == sorted(self.model)


TestBTreeStateMachine = BTreeMachine.TestCase


# ----------------------------------------------------------------------
# PMA vs model (bounded size to stay under the root threshold)
# ----------------------------------------------------------------------


class PMAMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pma = PackedMemoryArray(num_pages=8, capacity=8)
        self.model = set()

    @rule(key=st.integers(0, 500))
    def insert(self, key):
        if key in self.model:
            return
        try:
            self.pma.insert(key)
        except FileFullError:
            return
        self.model.add(key)

    @rule(key=st.integers(0, 500))
    def delete_if_present(self, key):
        if key not in self.model:
            return
        self.pma.delete(key)
        self.model.remove(key)

    @invariant()
    def matches_model(self):
        stored = [r.key for r in self.pma.pagefile.iter_all()]
        assert stored == sorted(self.model)


TestPMAStateMachine = PMAMachine.TestCase


# ----------------------------------------------------------------------
# Whole-workload properties for CONTROL 2
# ----------------------------------------------------------------------


class TestControl2WorkloadProperties:
    @settings(
        max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(st.lists(KEYS, unique=True, min_size=1, max_size=120))
    def test_any_unique_key_list_is_maintained(self, keys):
        params = DensityParams(num_pages=32, d=4, D=24)
        engine = Control2Engine(params)
        for key in keys:
            engine.insert(key)
        engine.validate()
        stored = [record.key for record in engine.pagefile.iter_all()]
        assert stored == sorted(keys)

    @settings(
        max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(
        st.lists(KEYS, unique=True, min_size=4, max_size=100),
        st.data(),
    )
    def test_insert_then_delete_subset(self, keys, data):
        params = DensityParams(num_pages=32, d=4, D=24)
        engine = Control2Engine(params)
        for key in keys:
            engine.insert(key)
        victims = data.draw(
            st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
        )
        for key in victims:
            engine.delete(key)
        engine.validate()
        stored = [record.key for record in engine.pagefile.iter_all()]
        assert stored == sorted(set(keys) - set(victims))

    @settings(
        max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(st.lists(KEYS, unique=True, min_size=1, max_size=100))
    def test_cost_bound_holds_on_arbitrary_inputs(self, keys):
        params = DensityParams(num_pages=32, d=4, D=24)
        engine = Control2Engine(params)
        log = engine.enable_operation_log()
        for key in keys:
            engine.insert(key)
        bound = params.worst_case_bound
        assert log.worst_case_accesses <= bound
