"""Hypothesis-driven linearizability checks via the torture harness.

Each example runs seeded client threads racing mixed insert/delete/scan
batches against one :class:`~repro.concurrent.ThreadSafeDenseFile` and
asserts every batch has a sequential witness (see
:mod:`repro.concurrent.harness`).  Examples are deliberately small —
real thread contention per example makes big ones expensive — and the
deep soak lives in ``tools/stress.py`` / the CI ``stress-smoke`` job.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrent.harness import StressConfig, run_stress

SEEDS = st.integers(min_value=0, max_value=2**20)


def run_clean(stack, seed, threads=3, total_ops=60, **overrides):
    path = None
    if stack in ("disk", "buffered"):
        path = os.path.join(tempfile.mkdtemp(prefix="repro-lin-"), "f.dsf")
    config = StressConfig(
        threads=threads,
        total_ops=total_ops,
        seed=seed,
        stack=stack,
        path=path,
        **overrides,
    )
    report = run_stress(config)
    assert report.ok, report.summary()
    return report


class TestLinearizableStacks:
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, threads=st.integers(2, 4))
    def test_memory_stack(self, seed, threads):
        run_clean("memory", seed, threads=threads)

    @settings(max_examples=4, deadline=None)
    @given(seed=SEEDS)
    def test_disk_stack(self, seed):
        run_clean("disk", seed)

    @settings(max_examples=4, deadline=None)
    @given(seed=SEEDS)
    def test_buffered_stack(self, seed):
        run_clean("buffered", seed)

    @settings(max_examples=4, deadline=None)
    @given(seed=SEEDS, rate=st.sampled_from([0.02, 0.1]))
    def test_faulty_stack_absorbs_transients(self, seed, rate):
        report = run_clean("faulty", seed, transient_rate=rate)
        # Deadlines are generous here, so every injected transient must
        # be absorbed by retries — none may surface or give up.
        assert report.counters["storage.faults.giveups"] == 0
        assert report.counters["storage.faults.deadline_giveups"] == 0
        counters = report.counters
        assert (counters["storage.faults.retries"]
                == counters["storage.faults.transients_injected"])


class TestLinearizableUnderAdmission:
    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS, cap=st.integers(1, 3))
    def test_bounded_gate_stays_linearizable(self, seed, cap):
        """Rejections (overloads) are fine; executed ops must still have
        a sequential witness."""
        report = run_clean("memory", seed, max_in_flight=cap)
        assert "concurrent.admission.admitted" in report.counters
        assert report.counters["concurrent.admission.peak_in_flight"] <= cap

    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS)
    def test_shed_load_stays_linearizable(self, seed):
        report = run_clean(
            "memory", seed, max_in_flight=1, shed_load=True, threads=4
        )
        assert "concurrent.admission.admitted" in report.counters
        # Whatever was shed is accounted for, never silently dropped.
        assert report.overloads == report.counters["concurrent.admission.rejected"]
