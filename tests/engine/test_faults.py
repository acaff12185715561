"""Fault injection: retries, timeouts, and circuit-breaker degradation.

Drives :class:`MatchingEngine` against flaky/slow backends built from the
doubles in :mod:`tests.engine.doubles` and asserts the documented failure
behaviour: transient faults are absorbed by retry, slow attempts count as
timeouts, persistent faults trip the circuit breaker and degrade to the
threshold baseline — all without raising to the caller.
"""

import pytest

from repro.engine import CircuitBreaker, MatchingEngine, RetryPolicy

from tests.engine.doubles import (
    EchoBackend,
    FakeClock,
    FlakyBackend,
    RecordingSleep,
    SlowBackend,
)

#: identical descriptions → the threshold fallback says "match";
#: unrelated descriptions → it says "no match".
SIMILAR = ("acme laser printer 4200", "acme laser printer 4200")
DISSIMILAR = ("acme laser printer 4200", "zebra wireless earbuds v2")


def make_engine(backend, clock=None, **overrides):
    clock = clock or FakeClock()
    defaults = dict(
        backend=backend,
        batch_size=8,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.01, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock),
        clock=clock,
        sleep=RecordingSleep(clock),
    )
    defaults.update(overrides)
    return MatchingEngine(**defaults)


class TestRetryAbsorption:
    def test_transient_failure_absorbed(self):
        backend = FlakyBackend(inner=EchoBackend(), fail_first=1)
        engine = make_engine(backend)
        results = engine.match_pairs([SIMILAR, DISSIMILAR])
        assert all(r.source == "backend" for r in results)
        assert all(r.decision for r in results)  # echo says "Yes."
        assert backend.failures_injected == 1
        assert engine.stats.retries == 1
        assert engine.stats.failures == 0
        assert engine.stats.fallbacks == 0
        assert engine.breaker.state == "closed"

    def test_two_transient_failures_absorbed(self):
        backend = FlakyBackend(inner=EchoBackend(), fail_first=2)
        engine = make_engine(backend)
        results = engine.match_pairs([DISSIMILAR])
        assert results[0].source == "backend"
        assert engine.stats.retries == 2
        assert engine.stats.fallbacks == 0

    def test_backoff_sleeps_between_attempts(self):
        backend = FlakyBackend(inner=EchoBackend(), fail_first=2)
        sleep = RecordingSleep()
        engine = make_engine(backend, sleep=sleep)
        engine.match_pairs([SIMILAR])
        assert sleep.calls == pytest.approx([0.01, 0.02])


class TestTimeout:
    def test_slow_attempt_times_out_then_recovers(self):
        clock = FakeClock()
        backend = SlowBackend(inner=EchoBackend(), clock=clock,
                              delay=1.0, slow_calls=1)
        engine = make_engine(
            backend, clock=clock,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              jitter=0.0, timeout=0.5),
        )
        results = engine.match_pairs([SIMILAR])
        assert results[0].source == "backend"
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 1

    def test_persistently_slow_backend_falls_back(self):
        clock = FakeClock()
        backend = SlowBackend(inner=EchoBackend(), clock=clock,
                              delay=1.0, slow_calls=99)
        engine = make_engine(
            backend, clock=clock,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              jitter=0.0, timeout=0.5),
        )
        results = engine.match_pairs([SIMILAR])
        assert results[0].source == "fallback"
        assert engine.stats.timeouts >= 1
        assert engine.stats.failures == 1


class TestCircuitBreaker:
    def test_persistent_failures_open_circuit_and_degrade(self):
        backend = FlakyBackend(inner=EchoBackend(), failure_rate=1.0)
        engine = make_engine(backend)
        # First workload: every attempt fails → breaker trips → fallback.
        results = engine.match_pairs([SIMILAR, DISSIMILAR])
        assert [r.source for r in results] == ["fallback", "fallback"]
        # The threshold baseline still makes sensible calls.
        assert results[0].decision is True
        assert results[1].decision is False
        assert results[0].response is None
        assert engine.breaker.state == "open"
        assert engine.stats.circuit_opens == 1
        assert engine.stats.fallbacks == 2
        assert engine.stats.failures == 1

    def test_open_circuit_fails_fast_without_backend_calls(self):
        backend = FlakyBackend(inner=EchoBackend(), failure_rate=1.0)
        engine = make_engine(backend)
        engine.match_pairs([SIMILAR])  # trips the breaker (3 attempts fail)
        calls_when_open = backend.calls
        results = engine.match_pairs([DISSIMILAR])
        assert results[0].source == "fallback"
        assert backend.calls == calls_when_open  # not touched while open
        assert engine.stats.fallbacks == 2

    def test_fallback_results_are_not_cached(self):
        clock = FakeClock()
        backend = FlakyBackend(inner=EchoBackend(), fail_first=3)
        engine = make_engine(backend, clock=clock)
        first = engine.match_pairs([SIMILAR])
        assert first[0].source == "fallback"
        # Breaker is open now; wait out the cooldown. The backend has used
        # up its injected failures, so the same pair gets a real answer.
        clock.advance(11.0)
        second = engine.match_pairs([SIMILAR])
        assert second[0].source == "backend"
        assert second[0].response == "Yes."

    def test_recovery_closes_circuit_after_cooldown(self):
        clock = FakeClock()
        backend = FlakyBackend(inner=EchoBackend(), fail_first=3)
        engine = make_engine(backend, clock=clock)
        engine.match_pairs([SIMILAR])
        assert engine.breaker.state == "open"
        clock.advance(11.0)
        results = engine.match_pairs([DISSIMILAR])
        assert results[0].source == "backend"
        assert engine.breaker.state == "closed"

    def test_no_exception_escapes_on_total_outage(self):
        backend = FlakyBackend(inner=EchoBackend(), failure_rate=1.0)
        engine = make_engine(backend)
        workload = [(f"product {i}", f"product {i}") for i in range(20)]
        results = engine.match_pairs(workload)  # must not raise
        assert len(results) == 20
        assert all(r.source == "fallback" for r in results)
