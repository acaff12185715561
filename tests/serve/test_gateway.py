"""Gateway: queueing, backpressure, degradation, deadlines, both drive modes."""

import asyncio
import threading

import pytest

from repro.baselines.threshold import ThresholdMatcher
from repro.datasets.schema import EntityPair, Record, Split
from repro.engine import MatchingEngine, RetryPolicy
from repro.faults.clock import ManualClock
from repro.serve import (
    AdmissionController,
    Gateway,
    MatchRequest,
    PersonaRouter,
    TenantPolicy,
    run_inline,
)

from tests.serve.doubles import FakeEngine

PERSONA = "llama-3.1-8b"
OTHER = "gpt-4o"


def _router(engines: dict | None = None, personas=(PERSONA, OTHER), **fake):
    """A router over fake engines; *fake* goes to each new FakeEngine."""
    engines = engines if engines is not None else {}

    def factory(name):
        engine = engines.get(name)
        if engine is None:
            engine = engines[name] = FakeEngine(**fake)
        return engine

    return PersonaRouter(
        default=PERSONA, personas=personas, engine_factory=factory
    ), engines


def _requests(n, persona=PERSONA, tenant="a", deadline=None):
    return [
        MatchRequest(
            tenant=tenant,
            left=f"left item {i}",
            right=f"right item {i}",
            persona=persona,
            deadline=deadline,
            request_id=f"req-{i}",
        )
        for i in range(n)
    ]


def _threshold_decision(left: str, right: str) -> bool:
    split = Split(
        name="check",
        pairs=[EntityPair(
            pair_id="p",
            left=Record(record_id="l", attributes={}, description=left),
            right=Record(record_id="r", attributes={}, description=right),
            label=False,
        )],
    )
    return bool(ThresholdMatcher().predict(split)[0])


def _no_violations(gateway, router, engines):
    problems = gateway.stats.violations(in_queue=gateway.queue_depth)
    problems += gateway.stats.reconcile_engines(router.engines())
    assert problems == []


class TestInlineMode:
    def test_answers_in_submission_order_with_exact_accounting(self):
        clock = ManualClock()
        router, engines = _router(batch_size=4)
        gateway = Gateway(router, workers=0, clock=clock)
        requests = _requests(10)

        responses = asyncio.run(run_inline(gateway, requests))

        assert [r.request.request_id for r in responses] == [
            r.request_id for r in requests
        ]
        assert all(r.ok and r.source == "backend" for r in responses)
        assert all(r.persona == PERSONA for r in responses)
        total = gateway.stats.as_dict()["total"]
        assert total["submitted"] == total["admitted"] == 10
        assert total["completed"] == 10
        _no_violations(gateway, router, engines)

    def test_chunks_respect_batch_size_and_persona_contiguity(self):
        router, engines = _router(batch_size=4)
        gateway = Gateway(router, workers=0)
        # 3 for the default persona, then 2 for the other, then 6 back on
        # the default: chunks must never mix personas or exceed the batch.
        workload = (
            _requests(3) + _requests(2, persona=OTHER) + _requests(6)
        )
        asyncio.run(run_inline(gateway, workload))

        chunk_shapes = [
            (len(chunk)) for chunk in engines[PERSONA].chunks
        ] + [len(chunk) for chunk in engines[OTHER].chunks]
        assert len(engines[PERSONA].chunks[0]) <= 4
        assert engines[OTHER].stats.requests == 2
        assert engines[PERSONA].stats.requests == 9
        assert all(size <= 4 for size in chunk_shapes)

    def test_each_persona_is_chunked_at_its_own_engine_batch_size(self):
        engines = {
            PERSONA: FakeEngine(batch_size=4),
            OTHER: FakeEngine(batch_size=8),
        }
        router, _ = _router(engines)
        gateway = Gateway(router, workers=0)
        workload = (
            _requests(10) + _requests(19, persona=OTHER) + _requests(5)
        )
        responses = asyncio.run(run_inline(gateway, workload))

        assert all(r.ok and r.source == "backend" for r in responses)
        assert [len(c) for c in engines[PERSONA].chunks] == [4, 4, 2, 4, 1]
        assert [len(c) for c in engines[OTHER].chunks] == [8, 8, 3]
        _no_violations(gateway, router, engines)

    def test_engine_is_built_outside_the_queue_lock(self):
        gateway = None
        lock_free = []

        def submitter():
            got = gateway._cv.acquire(timeout=5)
            if got:
                gateway._cv.release()
            lock_free.append(got)

        def factory(name):
            # A submitter on another thread must get the queue lock while
            # the dispatcher builds the engine.
            probe = threading.Thread(target=submitter)
            probe.start()
            probe.join(timeout=30)
            assert not probe.is_alive()
            return FakeEngine(batch_size=2)

        router = PersonaRouter(
            default=PERSONA, personas=(PERSONA,), engine_factory=factory
        )
        gateway = Gateway(router, workers=0)
        responses = asyncio.run(run_inline(gateway, _requests(3)))

        assert lock_free == [True]
        assert all(r.ok for r in responses)
        assert [len(c) for c in router.engine(PERSONA).chunks] == [2, 1]

    def test_unknown_persona_is_a_structured_404_not_a_traceback(self):
        router, engines = _router()
        gateway = Gateway(router, workers=0)
        request = MatchRequest(
            tenant="a", left="x", right="y", persona="not-a-model"
        )
        response = asyncio.run(gateway.match(request))
        assert response.status == "error" and response.code == 404
        assert response.reason.startswith("unknown persona: not-a-model")
        assert response.persona == ""
        total = gateway.stats.as_dict()["total"]
        assert total["errors"] == 1 and total["admitted"] == 0
        _no_violations(gateway, router, engines)


class TestBackpressure:
    def _submit_overload(self, degrade: bool):
        router, engines = _router()
        gateway = Gateway(
            router, workers=0, queue_capacity=4,
            degrade_on_overload=degrade,
        )

        async def scenario():
            # Submit 6 without pumping: 4 queue, 2 overflow.
            tasks = [
                asyncio.ensure_future(gateway.match(r))
                for r in _requests(6)
            ]
            for _ in range(4):
                await asyncio.sleep(0)
            overflowed = [t for t in tasks if t.done()]
            gateway.pump_all()
            responses = await asyncio.gather(*tasks)
            return responses, len(overflowed)

        responses, overflowed = asyncio.run(scenario())
        return gateway, router, engines, responses, overflowed

    def test_overflow_degrades_to_threshold_answers(self):
        gateway, router, engines, responses, overflowed = (
            self._submit_overload(degrade=True)
        )
        assert overflowed == 2  # overflow settles immediately, no queueing
        degraded = [r for r in responses if r.source == "degraded"]
        assert len(degraded) == 2
        for response in degraded:
            assert response.ok and response.reason == "queue_full"
            assert response.decision == _threshold_decision(
                response.request.left, response.request.right
            )
        assert gateway.stats.as_dict()["total"]["degraded"] == 2
        assert gateway.stats.as_dict()["queue_high_water"] == 4
        _no_violations(gateway, router, engines)

    def test_overflow_sheds_with_503_when_degradation_disabled(self):
        gateway, router, engines, responses, _ = (
            self._submit_overload(degrade=False)
        )
        shed = [r for r in responses if r.status == "shed"]
        assert len(shed) == 2
        assert all(r.code == 503 and r.reason == "queue_full" for r in shed)
        assert all(r.decision is None for r in shed)
        assert gateway.stats.as_dict()["total"]["shed"] == 2
        _no_violations(gateway, router, engines)


class TestDeadlines:
    def test_expired_in_queue_is_never_dispatched(self):
        clock = ManualClock()
        router, engines = _router(batch_size=8)
        gateway = Gateway(router, workers=0, clock=clock)

        async def scenario():
            doomed = asyncio.ensure_future(gateway.match(
                MatchRequest(tenant="a", left="x", right="y",
                             persona=PERSONA, deadline=1.0,
                             request_id="doomed")
            ))
            healthy = asyncio.ensure_future(gateway.match(
                MatchRequest(tenant="a", left="p", right="q",
                             persona=PERSONA, request_id="healthy")
            ))
            await asyncio.sleep(0)
            clock.advance(2.0)  # the deadline passes while queued
            gateway.pump_all()
            return await asyncio.gather(doomed, healthy)

        doomed, healthy = asyncio.run(scenario())
        assert doomed.status == "expired" and doomed.code == 504
        assert healthy.ok
        # Only the healthy pair ever reached the engine.
        dispatched = [
            pair for chunk in engines[PERSONA].chunks for pair in chunk
        ]
        assert dispatched == [("p", "q")]
        _no_violations(gateway, router, engines)


class TestCircuitBreaker:
    def test_open_breaker_degrades_without_touching_the_engine(self):
        clock = ManualClock(start=10.0)
        router, engines = _router(clock=clock)
        gateway = Gateway(router, workers=0, clock=clock)
        engine = router.engine(PERSONA)
        engine.breaker.state = "open"
        engine.breaker.opened_at = 9.5
        engine.breaker.cooldown = 2.0

        responses = asyncio.run(run_inline(gateway, _requests(3)))

        assert all(
            r.ok and r.source == "degraded" and r.reason == "circuit_open"
            for r in responses
        )
        assert engines[PERSONA].chunks == []
        _no_violations(gateway, router, engines)

    def test_breaker_past_cooldown_dispatches_normally(self):
        clock = ManualClock(start=10.0)
        router, engines = _router(clock=clock)
        gateway = Gateway(router, workers=0, clock=clock)
        engine = router.engine(PERSONA)
        engine.breaker.state = "open"
        engine.breaker.opened_at = 5.0  # cooldown of 2.0 long since over
        responses = asyncio.run(run_inline(gateway, _requests(2)))
        assert all(r.source == "backend" for r in responses)


class TestAdmissionIntegration:
    def test_rejected_requests_get_429_and_consume_nothing(self):
        clock = ManualClock()
        router, engines = _router()
        admission = AdmissionController(
            clock=clock, default_policy=TenantPolicy(rate=0.0, burst=2.0)
        )
        gateway = Gateway(router, admission, workers=0, clock=clock)

        responses = asyncio.run(run_inline(gateway, _requests(5)))

        statuses = [r.status for r in responses]
        assert statuses == ["ok", "ok", "rejected", "rejected", "rejected"]
        rejected = responses[2]
        assert rejected.code == 429 and rejected.reason == "rate_limited"
        assert admission.in_flight == 0  # completions released their slots
        stats = gateway.stats.as_dict()
        assert stats["total"]["rejected"] == 3
        assert stats["rejected_reasons"] == {"rate_limited": 3}
        _no_violations(gateway, router, engines)


class TestThreadedMode:
    def test_threaded_workers_answer_everything_with_exact_accounting(self):
        router, engines = _router(batch_size=8)
        gateway = Gateway(router, workers=1, queue_capacity=256)
        workload = _requests(40) + _requests(24, persona=OTHER, tenant="b")

        async def scenario():
            async with gateway:
                return await gateway.match_many(workload)

        responses = asyncio.run(scenario())

        assert len(responses) == 64
        assert all(r.ok and r.source == "backend" for r in responses)
        assert [r.request.request_id for r in responses] == [
            r.request_id for r in workload
        ]
        assert engines[PERSONA].stats.requests == 40
        assert engines[OTHER].stats.requests == 24
        _no_violations(gateway, router, engines)

    def test_close_drains_the_queue_before_workers_exit(self):
        router, engines = _router(batch_size=4)
        gateway = Gateway(router, workers=1)

        async def scenario():
            await gateway.start()
            responses = await gateway.match_many(_requests(12))
            await gateway.close()
            return responses

        responses = asyncio.run(scenario())
        assert len(responses) == 12 and all(r.ok for r in responses)
        assert gateway.queue_depth == 0

    def test_dispatch_thread_survives_a_failed_chunk(self):
        class FailsOnce:
            name = "fails-once"
            calls = 0

            def generate(self, prompts):
                self.calls += 1
                if self.calls == 1:
                    raise ValueError("backend bug")
                return ["Yes."] * len(prompts)

        backend = FailsOnce()
        router = PersonaRouter(
            default=PERSONA,
            personas=(PERSONA,),
            engine_factory=lambda name: MatchingEngine(
                backend=backend, retry=RetryPolicy(max_attempts=1)
            ),
        )
        gateway = Gateway(router, workers=1)
        first, second = _requests(2)

        async def scenario():
            await gateway.start()
            answers = [await gateway.match(first),
                       await asyncio.wait_for(gateway.match(second), 30)]
            with pytest.raises(ValueError, match="backend bug"):
                await gateway.close()
            return answers

        failed, served = asyncio.run(scenario())
        assert (failed.source, failed.reason) == ("degraded", "dispatch_error")
        assert served.ok and served.source == "backend"
        assert backend.calls == 2
        assert gateway.stats.violations() == []

    def test_engine_that_fails_to_build_is_answered_degraded(self):
        def factory(name):
            if name == PERSONA:
                raise RuntimeError("cannot build engine")
            return FakeEngine()

        router = PersonaRouter(
            default=PERSONA, personas=(PERSONA, OTHER), engine_factory=factory
        )
        gateway = Gateway(router, workers=1)
        [failed] = _requests(1)
        [other] = _requests(1, persona=OTHER)

        async def scenario():
            await gateway.start()
            answers = [await asyncio.wait_for(gateway.match(r), 30)
                       for r in (failed, other)]
            with pytest.raises(RuntimeError, match="cannot build engine"):
                await gateway.close()
            return answers

        failed, served = asyncio.run(scenario())
        assert (failed.source, failed.reason) == ("degraded", "dispatch_error")
        assert served.ok and served.source == "backend"
        assert gateway.stats.violations() == []


class TestConstructionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"queue_capacity": -1},
            {"workers": -1},
            {"workers": 2},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        router, _ = _router()
        with pytest.raises(ValueError):
            Gateway(router, **kwargs)
