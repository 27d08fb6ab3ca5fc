"""Tests for the delivery engine's building blocks.

TokenBucket, DeadlineBudget, ResponseCache, LatencyClient, and
DeliveryBackend are each pure functions of an injectable clock, so every
test here runs on a :class:`FaultClock` and finishes instantly.
"""

import pytest

from repro.delivery import (
    DeadlineBudget,
    DeadlineExceeded,
    DeliveryBackend,
    LatencyClient,
    ResponseCache,
    TokenBucket,
)
from repro.llm.client import ChatClientError, EchoClient
from repro.pipeline.store import ArtifactStore
from repro.resilience.faults import FaultClock
from repro.resilience.retry import CircuitBreaker, RetryPolicy


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=FaultClock())
        assert bucket.available() == pytest.approx(4.0)
        for _ in range(4):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate(self):
        clock = FaultClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FaultClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_acquire_sleeps_on_the_injected_clock(self):
        clock = FaultClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.acquire()
        assert bucket.acquire()  # must wait ~0.25s of virtual time
        assert clock.sleeps, "the wait must go through the injected clock"
        assert clock.now == pytest.approx(0.25)

    def test_acquire_respects_max_wait(self):
        clock = FaultClock()
        bucket = TokenBucket(rate=0.5, burst=1.0, clock=clock)
        assert bucket.acquire()
        # Next token is 2s away; a 0.1s budget cannot cover it.
        assert not bucket.acquire(max_wait_s=0.1)

    def test_disabled_bucket_never_blocks(self):
        bucket = TokenBucket(rate=None, clock=FaultClock())
        for _ in range(100):
            assert bucket.try_acquire()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestDeadlineBudget:
    def test_remaining_counts_down(self):
        clock = FaultClock()
        budget = DeadlineBudget(1.0, clock=clock)
        assert budget.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert budget.remaining() == pytest.approx(0.6)
        assert not budget.expired()

    def test_expired_clamps_to_zero(self):
        clock = FaultClock()
        budget = DeadlineBudget(0.5, clock=clock)
        clock.advance(2.0)
        assert budget.expired()
        assert budget.remaining() == 0.0

    def test_check_raises_a_typed_error(self):
        clock = FaultClock()
        budget = DeadlineBudget(0.1, clock=clock)
        budget.check("early")  # inside the budget: fine
        clock.advance(0.2)
        with pytest.raises(DeadlineExceeded):
            budget.check("late")

    def test_unlimited_budget_never_expires(self):
        clock = FaultClock()
        budget = DeadlineBudget(None, clock=clock)
        clock.advance(1e6)
        assert budget.remaining() is None
        assert not budget.expired()
        budget.check("always fine")

    def test_deadline_exceeded_is_not_retryable(self):
        assert DeadlineExceeded("late").retryable is False


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("gpt-4", "prompt", 0) is None
        cache.put("gpt-4", "prompt", 0, "True.")
        assert cache.get("gpt-4", "prompt", 0) == "True."

    def test_key_separates_model_prompt_and_repeat(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put("gpt-4", "prompt", 0, "A")
        assert cache.get("gpt-4", "prompt", 1) is None
        assert cache.get("gpt-3.5", "prompt", 0) is None
        assert cache.get("gpt-4", "other prompt", 0) is None

    def test_keys_are_stable_across_instances(self, tmp_path):
        first = ResponseCache(tmp_path / "cache")
        first.put("gpt-4", "prompt", 2, "False.")
        second = ResponseCache(ArtifactStore(tmp_path / "cache"))
        assert second.get("gpt-4", "prompt", 2) == "False."

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put("gpt-4", "prompt", 0, "True.")
        for response in (tmp_path / "cache").rglob("response.json"):
            response.write_text("{not json", encoding="utf-8")
        assert cache.get("gpt-4", "prompt", 0) is None


class TestLatencyClient:
    def test_delay_is_deterministic_per_call(self):
        client = LatencyClient(
            EchoClient(), latency_s=0.002, jitter=0.5, seed=3,
            clock=FaultClock(),
        )
        assert client.delay_s("p", 0) == client.delay_s("p", 0)
        assert client.delay_s("p", 0) != client.delay_s("p", 1)

    def test_sleeps_on_the_injected_clock(self):
        clock = FaultClock()
        client = LatencyClient(EchoClient(), latency_s=0.01, clock=clock)
        assert client.complete_indexed("p", 0) == "True"
        assert clock.sleeps == [pytest.approx(0.01)]

    def test_jitter_bounds(self):
        client = LatencyClient(
            EchoClient(), latency_s=1.0, jitter=0.2, clock=FaultClock()
        )
        for repeat in range(50):
            assert 0.8 <= client.delay_s("p", repeat) <= 1.2


class _FlakyClient(EchoClient):
    """Fails the first ``n_failures`` indexed calls, then succeeds."""

    def __init__(self, n_failures: int):
        super().__init__("True")
        self.n_failures = n_failures
        self.calls = 0

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise ChatClientError("boom", retryable=True, kind="network")
        return super().complete_indexed(prompt, repeat)


class TestDeliveryBackend:
    def test_deliver_retries_transient_failures(self):
        backend = DeliveryBackend(
            "b0",
            _FlakyClient(2),
            retry=RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0),
        )
        assert backend.deliver("p", 0) == "True"

    def test_open_breaker_marks_unhealthy(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        backend = DeliveryBackend("b0", EchoClient(), breaker=breaker)
        assert backend.healthy()
        breaker.record_failure()
        assert not backend.healthy()

    def test_rate_limit_wait_is_bounded_by_deadline(self):
        clock = FaultClock()
        backend = DeliveryBackend(
            "b0",
            EchoClient(),
            bucket=TokenBucket(rate=0.1, burst=1.0, clock=clock),
            clock=clock,
        )
        deadline = DeadlineBudget(0.5, clock=clock)
        assert backend.deliver("p", 0, deadline) == "True"
        # The next token is 10s away; the 0.5s budget cannot cover it.
        with pytest.raises(DeadlineExceeded):
            backend.deliver("p", 1, DeadlineBudget(0.5, clock=clock))

    def test_no_retry_after_deadline_expiry(self):
        clock = FaultClock()
        client = _FlakyClient(10)
        backend = DeliveryBackend(
            "b0",
            client,
            retry=RetryPolicy(
                max_attempts=5, base_delay=10.0, clock=clock, seed=0
            ),
            clock=clock,
        )
        with pytest.raises(DeadlineExceeded):
            backend.deliver("p", 0, DeadlineBudget(0.05, clock=clock))
        # The first backoff (10s) blows the 0.05s budget; the second attempt
        # dies on the budget check before touching the client — the full
        # 5-attempt schedule must NOT be burned.
        assert client.calls == 1
