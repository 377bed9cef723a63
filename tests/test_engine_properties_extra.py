"""Stateful property tests for the macro-block engine.

Same model-based approach as the CONTROL 1/2 machines in
``test_properties.py``, applied to the engine variant with its own
quirk: macro-granular pages with scaled costs.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import MacroBlockControl2Engine
from repro.core.errors import FileFullError


class MacroBlockMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # D - d = 2 <= 3*log2(16): plain CONTROL 2 is inapplicable here.
        self.engine = MacroBlockControl2Engine(num_pages=16, d=4, D=6)
        self.model = set()

    @rule(key=st.integers(0, 200))
    def insert(self, key):
        if key in self.model:
            return
        if len(self.model) >= self.engine.physical_max_records:
            with pytest.raises(FileFullError):
                self.engine.insert(key)
            return
        self.engine.insert(key)
        self.model.add(key)

    @rule(key=st.integers(0, 200))
    def delete_if_present(self, key):
        if key not in self.model:
            return
        self.engine.delete(key)
        self.model.remove(key)

    @rule(lo=st.integers(0, 200), span=st.integers(0, 40))
    def delete_range(self, lo, span):
        removed = self.engine.delete_range(lo, lo + span)
        victims = {k for k in self.model if lo <= k <= lo + span}
        assert removed == len(victims)
        self.model -= victims

    @invariant()
    def matches_model(self):
        stored = [record.key for record in self.engine.pagefile.iter_all()]
        assert stored == sorted(self.model)

    @invariant()
    def structural_invariants_hold(self):
        self.engine.validate()

    @invariant()
    def no_defensive_fallbacks(self):
        assert self.engine.stuck_shifts == 0


TestMacroBlockMachine = MacroBlockMachine.TestCase
