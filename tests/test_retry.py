"""Tier-1 tests for the shared retry policy and circuit breaker."""

from __future__ import annotations

import random

import pytest

from repro.common.retry import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_QUARANTINED,
    CircuitBreaker,
    RetryExhausted,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, multiplier=2.0,
            max_delay=0.5, jitter=0.0,
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.25)
        def schedule():
            rng = random.Random(7)
            return [policy.delay(a, rng) for a in range(3)]

        first, again = schedule(), schedule()
        assert first == again  # same seed, same schedule
        for attempt, delay in enumerate(first):
            raw = min(8.0, 1.0 * 2.0 ** attempt)
            assert raw * 0.75 <= delay <= raw * 1.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_call_retries_then_succeeds(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectionError("nope")
            return "done"

        policy = RetryPolicy(attempts=4, base_delay=0.01, jitter=0.0)
        result = policy.call(
            flaky, retry_on=(ConnectionError,), sleep=sleeps.append
        )
        assert result == "done"
        assert len(attempts) == 3
        assert sleeps == [0.01, 0.02]

    def test_call_exhaustion_raises_typed_error_with_cause(self):
        policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)
        boom = ValueError("root cause")

        def always_fails():
            raise boom

        with pytest.raises(RetryExhausted) as excinfo:
            policy.call(
                always_fails, retry_on=(ValueError,), sleep=lambda _: None
            )
        assert excinfo.value.attempts == 3
        assert excinfo.value.__cause__ is boom

    def test_call_does_not_retry_unlisted_exceptions(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise KeyError("not retryable")

        policy = RetryPolicy(attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(KeyError):
            policy.call(
                wrong_kind, retry_on=(ConnectionError,),
                sleep=lambda _: None,
            )
        assert len(calls) == 1

    def test_on_retry_hook_fires_per_backoff(self):
        seen = []
        policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryExhausted):
            policy.call(
                lambda: (_ for _ in ()).throw(OSError("x")),
                retry_on=(OSError,),
                sleep=lambda _: None,
                on_retry=lambda attempt, exc: seen.append(attempt),
            )
        assert seen == [0, 1]


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> CircuitBreaker:
        clock = _Clock()
        breaker = CircuitBreaker(clock=clock, **kwargs)
        breaker._test_clock = clock
        return breaker

    def test_opens_after_consecutive_failures(self):
        breaker = self._breaker(failure_threshold=3)
        assert breaker.allow()
        breaker.record_failure("a")
        breaker.record_failure("b")
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure("c")
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = self._breaker(failure_threshold=2)
        breaker.record_failure("x")
        breaker.record_success()
        breaker.record_failure("x")
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_allows_exactly_one_probe(self):
        breaker = self._breaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure("boom")
        assert not breaker.allow()
        breaker._test_clock.now = 11.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # second caller refused mid-probe

    def test_probe_success_closes(self):
        breaker = self._breaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure("boom")
        breaker._test_clock.now = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_counts_a_trip(self):
        breaker = self._breaker(failure_threshold=1, cooldown=1.0,
                                max_trips=10)
        breaker.record_failure("first")
        assert breaker.trips == 1
        breaker._test_clock.now = 2.0
        assert breaker.allow()
        breaker.record_failure("probe failed")
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2

    def test_quarantine_after_max_trips_is_permanent(self):
        breaker = self._breaker(failure_threshold=1, cooldown=0.0,
                                max_trips=2)
        breaker.record_failure("one")
        breaker._test_clock.now = 1.0
        assert breaker.allow()
        breaker.record_failure("two")
        assert breaker.state == BREAKER_QUARANTINED
        assert breaker.quarantined
        assert not breaker.allow()
        breaker.record_success()  # cannot resurrect
        assert breaker.state == BREAKER_QUARANTINED
        assert breaker.reason == "two"

    def test_snapshot_is_report_shaped(self):
        breaker = self._breaker(failure_threshold=1)
        breaker.record_failure("why")
        snapshot = breaker.snapshot()
        assert snapshot == {
            "state": BREAKER_OPEN,
            "trips": 1,
            "consecutive_failures": 0,
            "reason": "why",
        }
