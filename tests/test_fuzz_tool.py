"""Runs short campaigns of the standalone fuzzer as part of the suite."""

import os
import random
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(scope="module")
def fuzz():
    sys.path.insert(0, TOOLS)
    try:
        import fuzz as module
    finally:
        sys.path.remove(TOOLS)
    return module


def test_engine_differential_iterations(fuzz):
    rng = random.Random(1234)
    for _ in range(8):
        fuzz.fuzz_engines_once(rng.randrange(1 << 30), commands=60)


def test_crash_injection_iterations(fuzz):
    rng = random.Random(5678)
    for _ in range(8):
        fuzz.fuzz_crash_once(rng.randrange(1 << 30))


def test_thread_fuzz_iterations(fuzz):
    rng = random.Random(9012)
    for _ in range(4):
        fuzz.fuzz_threads_once(rng.randrange(1 << 30))


def test_thread_fuzz_is_registered(fuzz):
    assert fuzz.FUZZERS["threads"] is fuzz.fuzz_threads_once


def test_random_geometry_is_always_legal(fuzz):
    from repro import DensityParams

    rng = random.Random(42)
    for _ in range(50):
        num_pages, d, cap_d = fuzz.random_geometry(rng)
        params = DensityParams(num_pages=num_pages, d=d, D=cap_d)
        assert params.satisfies_slack_condition


def test_engine_builder_covers_every_variant(fuzz):
    from repro import Control1Engine, Control2Engine, MacroBlockControl2Engine

    rng = random.Random(7)
    seen = set()
    for _ in range(80):
        engine = fuzz.build_engine(rng, 64, 8, 40)
        seen.add(type(engine))
    assert seen == {Control1Engine, Control2Engine, MacroBlockControl2Engine}
