"""Gateway hand-off: one loop callback per chunk, one counter add per lane.

A dispatched chunk hands its answers back to each submitting event loop
with one ``call_soon_threadsafe`` and counts each outcome once per lane
group.  These tests pin what callers and operators see — responses,
their order, and ``GatewayStats.counts()`` down to key and lane order —
so the batched hand-off is indistinguishable from answering request by
request.
"""

import asyncio
import threading

import pytest

from repro.faults.clock import ManualClock
from repro.serve import Gateway, MatchRequest, run_inline

from tests.serve.doubles import FakeEngine
from tests.serve.test_gateway import OTHER, PERSONA, _requests, _router


def _spy_handoffs(loop, calls):
    """Count the dispatch threads' ``call_soon_threadsafe`` calls on *loop*."""
    original = loop.call_soon_threadsafe

    def spy(callback, *args, **kwargs):
        if threading.current_thread().name.startswith("gateway-worker"):
            calls.append(callback)
        return original(callback, *args, **kwargs)

    loop.call_soon_threadsafe = spy


async def _queue_then_serve(gateway, requests, calls):
    """Queue every request before the worker starts, then serve them all.

    The worker then finds a full queue, so it takes its engine's
    ``batch_size`` items per chunk whatever the thread timing.
    """
    _spy_handoffs(asyncio.get_running_loop(), calls)
    tasks = [asyncio.ensure_future(gateway.match(r)) for r in requests]
    while gateway.queue_depth < len(requests):
        await asyncio.sleep(0)
    async with gateway:
        return await asyncio.gather(*tasks)


class TestOneHandoffPerChunk:
    def test_threaded_worker_calls_the_loop_once_per_chunk(self):
        requests = _requests(37) + _requests(5, persona=OTHER, tenant="b")
        router, engines = _router(batch_size=8)
        gateway = Gateway(router, workers=1)
        calls = []
        responses = asyncio.run(_queue_then_serve(gateway, requests, calls))

        chunks = len(engines[PERSONA].chunks) + len(engines[OTHER].chunks)
        assert chunks == 6  # 8 + 8 + 8 + 8 + 5, then the other persona's 5
        assert len(calls) == chunks

        inline_router, _ = _router(batch_size=8)
        inline = Gateway(inline_router, workers=0)
        assert responses == asyncio.run(run_inline(inline, requests))
        assert [r.request.request_id for r in responses] == [
            r.request_id for r in requests
        ]
        assert gateway.stats.counts() == inline.stats.counts()
        assert gateway.stats.violations() == []

    def test_each_submitting_loop_gets_one_call_per_chunk_it_is_in(self):
        router, engines = _router(batch_size=8)
        gateway = Gateway(router, workers=1)
        calls = {"x": [], "y": []}
        results = {}
        enqueued = threading.Barrier(3, timeout=30)

        def submit(tag):
            requests = [
                MatchRequest(tenant=tag, left=f"{tag} left {i}",
                             right=f"{tag} right {i}", persona=PERSONA,
                             request_id=f"{tag}-{i}")
                for i in range(10)
            ]

            async def scenario():
                _spy_handoffs(asyncio.get_running_loop(), calls[tag])
                tasks = [asyncio.ensure_future(gateway.match(r))
                         for r in requests]
                await asyncio.sleep(0)
                enqueued.wait()
                return await asyncio.gather(*tasks)

            results[tag] = (requests, asyncio.run(scenario()))

        threads = [threading.Thread(target=submit, args=(tag,))
                   for tag in calls]
        for thread in threads:
            thread.start()
        enqueued.wait()
        assert gateway.queue_depth == 20

        async def serve():
            await gateway.start()
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: [t.join(timeout=30) for t in threads]
            )
            await gateway.close()

        asyncio.run(serve())
        assert not any(thread.is_alive() for thread in threads)

        dispatched = engines[PERSONA].chunks
        assert [len(chunk) for chunk in dispatched] == [8, 8, 4]
        for tag, (requests, responses) in results.items():
            in_chunks = sum(
                any(left.startswith(tag) for left, _ in chunk)
                for chunk in dispatched
            )
            assert len(calls[tag]) == in_chunks
            assert [r.request.request_id for r in responses] == [
                r.request_id for r in requests
            ]
            assert all(r.ok and r.source == "backend" for r in responses)
        assert gateway.stats.violations() == []


#: ``GatewayStats.counts()`` of :func:`_mixed_session`, as answering one
#: request at a time left it: values, lane order and key order.
MIXED_COUNTS = [
    ((), [("submitted", 10), ("admitted", 10), ("queue_high_water", 10),
          ("expired", 4), ("degraded", 3), ("completed", 3)]),
    (("tenant", "a"), [("submitted", 5), ("admitted", 5), ("expired", 2),
                       ("degraded", 2), ("completed", 1)]),
    (("persona", PERSONA), [("submitted", 5), ("admitted", 5),
                            ("expired", 2), ("degraded", 3)]),
    (("tenant", "b"), [("submitted", 5), ("admitted", 5), ("expired", 2),
                       ("degraded", 1), ("completed", 2)]),
    (("persona", OTHER), [("submitted", 5), ("admitted", 5), ("expired", 2),
                          ("completed", 3)]),
]


def _mixed_session():
    """Two chunks: expired + breaker-degraded, then expired + completed.

    Both tenants appear in both chunks, interleaved, so every outcome
    spans two lane groups.
    """
    clock = ManualClock(start=10.0)
    router, engines = _router(batch_size=16, clock=clock)
    gateway = Gateway(router, workers=0, clock=clock)
    breaker = router.engine(PERSONA).breaker
    breaker.state, breaker.opened_at, breaker.cooldown = "open", 11.5, 2.0
    doomed = {2, 3, 6, 9}
    requests = [
        MatchRequest(
            tenant="ab"[i % 2],
            left=f"left {i}",
            right=f"right {i}",
            persona=PERSONA if i < 5 else OTHER,
            deadline=11.0 if i in doomed else None,
            request_id=f"req-{i}",
        )
        for i in range(10)
    ]

    #: request ids in the order their responses resolved.
    resolved = []

    async def scenario():
        tasks = [asyncio.ensure_future(gateway.match(r)) for r in requests]
        for task, request in zip(tasks, requests):
            task.add_done_callback(
                lambda _, rid=request.request_id: resolved.append(rid)
            )
        await asyncio.sleep(0)
        clock.advance(2.0)  # four deadlines pass while queued
        assert gateway.pump_all() == 10
        return await asyncio.gather(*tasks)

    responses = asyncio.run(scenario())
    return gateway, router, engines, resolved, responses


class TestChunkCounting:
    def test_mixed_chunks_count_exactly_as_one_request_at_a_time(self):
        gateway, router, engines, resolved, responses = _mixed_session()
        counts = gateway.stats.counts()
        assert [(lane, list(row.items())) for lane, row in counts.items()] == [
            (lane, row) for lane, row in MIXED_COUNTS
        ]
        assert gateway.stats.violations() == []
        assert gateway.stats.reconcile_engines(router.engines()) == []

        statuses = [(r.status, r.source, r.reason) for r in responses]
        assert statuses == [
            ("ok", "degraded", "circuit_open"),
            ("ok", "degraded", "circuit_open"),
            ("expired", "", "deadline_expired"),
            ("expired", "", "deadline_expired"),
            ("ok", "degraded", "circuit_open"),
            ("ok", "backend", ""),
            ("expired", "", "deadline_expired"),
            ("ok", "backend", ""),
            ("ok", "backend", ""),
            ("expired", "", "deadline_expired"),
        ]
        # Within a chunk, the expired requests resolve first.
        assert resolved == [
            f"req-{i}" for i in (2, 3, 0, 1, 4, 6, 9, 5, 7, 8)
        ]
        assert engines[PERSONA].chunks == []
        assert engines[OTHER].chunks == [
            [(f"left {i}", f"right {i}") for i in (5, 7, 8)]
        ]


class _ExplodingEngine(FakeEngine):
    def match_pairs(self, pairs):
        raise RuntimeError("engine blew up")


class TestDispatchError:
    def test_every_future_is_answered_before_the_error_surfaces(self):
        clock = ManualClock(start=10.0)
        engines = {PERSONA: _ExplodingEngine(batch_size=8)}
        router, _ = _router(engines)
        gateway = Gateway(router, workers=0, clock=clock)
        requests = _requests(4)
        requests[1] = MatchRequest(tenant="a", left="x", right="y",
                                   persona=PERSONA, deadline=11.0,
                                   request_id="doomed")

        async def scenario():
            tasks = [asyncio.ensure_future(gateway.match(r)) for r in requests]
            await asyncio.sleep(0)
            clock.advance(2.0)
            with pytest.raises(RuntimeError, match="engine blew up"):
                gateway.pump()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        assert [r.reason for r in responses] == [
            "dispatch_error", "deadline_expired", "dispatch_error",
            "dispatch_error",
        ]
        assert all(r.source == "degraded" for i, r in enumerate(responses)
                   if i != 1)
        total = gateway.stats.as_dict()["total"]
        assert (total["degraded"], total["expired"]) == (3, 1)
        assert gateway.stats.violations() == []
