"""Tests for the shared retry policy and loop (repro.concurrent.retry).

One policy, two consumers: ``RetryingStore`` (storage faults) and
``ClusterClient`` (network faults).  These tests pin down the shape —
capped exponential backoff, seeded deterministic jitter, deadline-aware
give-up — independently of either consumer.
"""

import pytest

from repro.concurrent.deadline import Deadline
from repro.concurrent.retry import RetryCounters, RetryPolicy, retry_call
from repro.core.errors import (
    ConfigurationError,
    OperationTimeout,
    TransientIOError,
)


class TestRetryPolicy:
    def test_delay_grows_exponentially_then_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_zero_base_delay_means_free_retries(self):
        policy = RetryPolicy(base_delay=0.0, jitter=0.5)
        assert all(policy.delay(n) == 0.0 for n in range(5))

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5, seed=7)
        delays = [policy.delay(n) for n in range(6)]
        # Replays byte-identically from the seed.
        assert delays == [policy.delay(n) for n in range(6)]
        # Jitter only shrinks, never grows, and never below (1 - jitter).
        plain = RetryPolicy(base_delay=0.1, max_delay=1.0)
        for n, jittered in enumerate(delays):
            assert jittered <= plain.delay(n)
            assert jittered >= plain.delay(n) * 0.5

    def test_different_seeds_spread_the_window(self):
        base = RetryPolicy(base_delay=0.1, jitter=1.0)
        a = [base.with_seed(1).delay(n) for n in range(4)]
        b = [base.with_seed(2).delay(n) for n in range(4)]
        assert a != b

    def test_with_seed_keeps_the_shape(self):
        policy = RetryPolicy(
            max_attempts=7, base_delay=0.2, multiplier=3.0,
            max_delay=2.0, jitter=0.25, seed=0,
        )
        reseeded = policy.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.max_attempts == 7
        assert reseeded.base_delay == 0.2
        assert reseeded.multiplier == 3.0
        assert reseeded.max_delay == 2.0
        assert reseeded.jitter == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"base_delay": -1.0},
            {"max_delay": -1.0},
            {"multiplier": 0.5},
        ],
    )
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_storage_layer_uses_the_shared_policy(self):
        # One policy class for both retry loops: the storage package
        # exports it and RetryingStore defaults to it.
        from repro import storage
        from repro.storage.backend import MemoryStore
        from repro.storage.faults import RetryingStore

        assert storage.RetryPolicy is RetryPolicy
        assert type(RetryingStore(MemoryStore(1)).policy) is RetryPolicy


class TestRetryCall:
    def test_first_try_success_touches_nothing(self):
        counters = RetryCounters()
        result = retry_call(
            lambda: 42,
            RetryPolicy(),
            retryable=(TransientIOError,),
            counters=counters,
        )
        assert result == 42
        assert counters.retries == 0 and counters.giveups == 0

    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientIOError("blip")
            return "ok"

        counters = RetryCounters()
        result = retry_call(
            flaky,
            RetryPolicy(max_attempts=5),
            retryable=(TransientIOError,),
            counters=counters,
        )
        assert result == "ok"
        assert len(calls) == 3
        assert counters.retries == 2
        assert counters.giveups == 0

    def test_gives_up_with_the_original_fault(self):
        counters = RetryCounters()
        with pytest.raises(TransientIOError):
            retry_call(
                self._always_fails,
                RetryPolicy(max_attempts=3),
                retryable=(TransientIOError,),
                counters=counters,
            )
        assert counters.giveups == 1
        assert counters.retries == 2

    def test_non_retryable_propagates_untouched(self):
        def boom():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            retry_call(boom, RetryPolicy(), retryable=(TransientIOError,))

    def test_deadline_exhaustion_raises_timeout_with_cause(self):
        clock = FakeClock()
        budget = Deadline.after(1.0, clock=clock.now)
        clock.advance(2.0)  # budget already spent
        with pytest.raises(OperationTimeout) as info:
            retry_call(
                self._always_fails,
                RetryPolicy(max_attempts=5, base_delay=0.1),
                retryable=(TransientIOError,),
                deadline=budget,
            )
        assert isinstance(info.value.__cause__, TransientIOError)

    def test_never_sleeps_past_the_remaining_budget(self):
        clock = FakeClock()
        budget = Deadline.after(0.05, clock=clock.now)
        slept = []
        counters = RetryCounters()
        with pytest.raises(OperationTimeout):
            retry_call(
                self._always_fails,
                RetryPolicy(max_attempts=10, base_delay=0.1),
                retryable=(TransientIOError,),
                deadline=budget,
                sleep=slept.append,
                counters=counters,
            )
        # The 0.1s backoff would overrun the 0.05s budget: no sleep at all.
        assert slept == []
        assert counters.deadline_giveups == 1

    def test_backoff_total_accumulates_scheduled_delay(self):
        slept = []
        counters = RetryCounters()
        with pytest.raises(TransientIOError):
            retry_call(
                self._always_fails,
                RetryPolicy(max_attempts=3, base_delay=0.25, multiplier=1.0),
                retryable=(TransientIOError,),
                sleep=slept.append,
                counters=counters,
            )
        assert slept == [0.25, 0.25]
        assert counters.backoff_total == pytest.approx(0.5)

    def test_unbounded_deadline_never_times_out_the_loop(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 4:
                raise TransientIOError("blip")
            return "ok"

        result = retry_call(
            flaky,
            RetryPolicy(max_attempts=5),
            retryable=(TransientIOError,),
            deadline=Deadline.unbounded(),
        )
        assert result == "ok"

    @staticmethod
    def _always_fails():
        raise TransientIOError("permanent blip")


class FakeClock:
    def __init__(self):
        self._t = 100.0

    def now(self):
        return self._t

    def advance(self, seconds):
        self._t += seconds
