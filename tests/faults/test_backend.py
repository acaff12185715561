"""FaultyBackend / CrashingBackend mechanics, one fault kind at a time."""

import pytest

from repro.engine import MatchingEngine
from repro.engine.retry import BackendError, CircuitBreaker, RetryPolicy
from repro.faults import (
    CONTENT_FAULT_KINDS,
    GARBLED_COMPLETION,
    CrashingBackend,
    FaultPlan,
    FaultyBackend,
    ManualClock,
    ParityBackend,
    SimulatedCrash,
)


class Inner:
    """Recording inner backend with distinct per-prompt answers."""

    name = "inner"

    def __init__(self):
        self.calls = 0

    def generate(self, prompts):
        self.calls += 1
        return [f"answer for {p}" for p in prompts]


PROMPTS = ["alpha", "beta", "gamma"]


def scripted_backend(*schedule, **kwargs):
    return FaultyBackend(Inner(), FaultPlan.scripted(schedule), **kwargs)


class TestTransparency:
    def test_rate_zero_passes_answers_through_untouched(self):
        inner = Inner()
        backend = FaultyBackend(inner, FaultPlan(fault_rate=0.0))
        assert backend.generate(PROMPTS) == inner.generate(PROMPTS)
        assert backend.injected_counts() == {}
        assert backend.name == "faulty:inner"

    def test_call_counter_advances_per_generate(self):
        backend = scripted_backend(None, None)
        backend.generate(PROMPTS)
        backend.generate(PROMPTS)
        assert backend.calls == 2


class TestFaultKinds:
    def test_error_raises_before_touching_inner(self):
        backend = scripted_backend("error")
        with pytest.raises(BackendError, match="injected transport error"):
            backend.generate(PROMPTS)
        assert backend.inner.calls == 0  # the transport never delivered
        assert backend.injected_counts() == {"error": 1}

    def test_timeout_returns_answers_but_burns_the_clock(self):
        clock = ManualClock()
        backend = scripted_backend("timeout", clock=clock, timeout_advance=2.5)
        before = clock()
        responses = backend.generate(PROMPTS)
        assert responses == [f"answer for {p}" for p in PROMPTS]
        assert clock() == pytest.approx(before + 2.5)
        assert backend.injected_counts() == {"timeout": 1}

    def test_timeout_kind_requires_advanceable_clock(self):
        with pytest.raises(ValueError, match="advanceable clock"):
            scripted_backend("timeout")  # no clock given
        with pytest.raises(ValueError, match="timeout_advance"):
            scripted_backend("timeout", clock=ManualClock(), timeout_advance=0.0)

    def test_garble_keeps_length_but_destroys_content(self):
        backend = scripted_backend("garble")
        responses = backend.generate(PROMPTS)
        assert responses == [GARBLED_COMPLETION] * len(PROMPTS)

    def test_truncate_drops_one_answer(self):
        backend = scripted_backend("truncate")
        assert len(backend.generate(PROMPTS)) == len(PROMPTS) - 1

    def test_overlong_adds_one_answer(self):
        backend = scripted_backend("overlong")
        assert len(backend.generate(PROMPTS)) == len(PROMPTS) + 1

    def test_duplicate_misassociates_every_slot(self):
        backend = scripted_backend("duplicate")
        responses = backend.generate(PROMPTS)
        assert responses == ["answer for alpha"] * len(PROMPTS)

    def test_faults_land_on_their_scripted_call(self):
        backend = scripted_backend(None, "garble", None)
        clean = [f"answer for {p}" for p in PROMPTS]
        assert backend.generate(PROMPTS) == clean
        assert backend.generate(PROMPTS) == [GARBLED_COMPLETION] * 3
        assert backend.generate(PROMPTS) == clean
        assert backend.injected_counts() == {"garble": 1}


class TestContentAddressing:
    def plan(self, rate=0.6, seed=4):
        return FaultPlan(seed=seed, fault_rate=rate, addressing="content",
                         kinds=CONTENT_FAULT_KINDS)

    def garbled_for(self, plan, prompts):
        return {p for p in prompts if plan.fault_for_prompt(p) == "garble"}

    def test_garbling_is_per_prompt_and_batch_shape_independent(self):
        plan = self.plan()
        prompts = [f"prompt {i}" for i in range(30)]
        garbled = self.garbled_for(plan, prompts)
        assert garbled, "rate 0.6 over 30 prompts should garble some"

        def run(batches):
            backend = FaultyBackend(Inner(), plan)
            answers = {}
            for batch in batches:
                while True:
                    try:
                        responses = backend.generate(batch)
                    except BackendError:
                        continue  # transient by construction: retry
                    break
                answers.update(zip(batch, responses))
            return answers

        one_big = run([prompts])
        many_small = run([prompts[i : i + 7] for i in range(0, 30, 7)])
        assert one_big == many_small
        for prompt, answer in one_big.items():
            if prompt in garbled:
                assert answer == GARBLED_COMPLETION
            else:
                assert answer == f"answer for {prompt}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_decisions_follow_the_seed(self, seed):
        """Content addressing keys every fault on the prompt, so an
        engine's decisions do not depend on how its calls cut batches,
        and retry absorbs every transient error."""
        pairs = [
            (f"gadget number {i % 60} alpha edition",
             f"gadget number {i % 60} beta edition")
            for i in range(150)
        ]

        def run(call_size):
            backend = FaultyBackend(ParityBackend(), self.plan(0.4, seed))
            engine = MatchingEngine(
                backend=backend,
                retry=RetryPolicy(seed=seed),
                # An open breaker would make answers depend on when a
                # batch hit it, which content addressing cannot fix.
                breaker=CircuitBreaker(failure_threshold=10**9),
                sleep=lambda seconds: None,
            )
            decisions = []
            for i in range(0, len(pairs), call_size):
                chunk = pairs[i:i + call_size]
                decisions += [r.decision for r in engine.match_pairs(chunk)]
            return decisions, engine, backend

        whole, engine, backend = run(len(pairs))
        assert run(7)[0] == whole
        assert run(len(pairs))[0] == whole
        injected = backend.injected_counts()
        assert set(injected) <= set(CONTENT_FAULT_KINDS)
        assert injected.get("garble", 0) > 0
        stats = engine.stats
        assert stats.requests == len(pairs)
        assert stats.failures == 0 and stats.fallbacks == 0
        assert stats.transport_errors == stats.retries

    def test_transient_errors_hit_only_the_first_attempt(self):
        plan = self.plan(rate=0.9, seed=2)
        prompts = [f"prompt {i}" for i in range(10)]
        assert any(plan.fault_for_prompt(p) == "error" for p in prompts)
        backend = FaultyBackend(Inner(), plan)
        with pytest.raises(BackendError):
            backend.generate(prompts)
        responses = backend.generate(prompts)  # the retry: must succeed
        assert len(responses) == len(prompts)


class TestCrashingBackend:
    def test_dies_at_the_configured_batch_boundary(self):
        backend = CrashingBackend(Inner(), kill_after=2)
        backend.generate(PROMPTS)
        backend.generate(PROMPTS)
        with pytest.raises(SimulatedCrash, match="simulated crash"):
            backend.generate(PROMPTS)
        assert backend.calls == 2  # the fatal call never completed

    def test_kill_after_zero_dies_immediately(self):
        backend = CrashingBackend(Inner(), kill_after=0)
        with pytest.raises(SimulatedCrash):
            backend.generate(PROMPTS)

    def test_kill_after_none_never_dies(self):
        backend = CrashingBackend(Inner())
        for _ in range(20):
            assert backend.generate(PROMPTS)

    def test_negative_kill_after_rejected(self):
        with pytest.raises(ValueError, match="kill_after"):
            CrashingBackend(Inner(), kill_after=-1)

    def test_crash_sails_past_except_exception(self):
        # The retry loop catches Exception; a simulated process death must
        # not be absorbable there, exactly like a real SIGKILL.
        assert not issubclass(SimulatedCrash, Exception)
        backend = CrashingBackend(Inner(), kill_after=0)
        with pytest.raises(SimulatedCrash):
            try:
                backend.generate(PROMPTS)
            except Exception:  # pragma: no cover - must NOT catch
                pytest.fail("SimulatedCrash was caught by `except Exception`")
