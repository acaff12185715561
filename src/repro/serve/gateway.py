"""The asyncio request gateway: bounded queue, backpressure, degradation.

Request lifecycle::

    await gateway.match(request)
      → persona routing (unknown persona → structured 404, never a traceback)
      → admission control (rate / quota / concurrency → 429)
      → deadline check (already expired → 504, never dispatched)
      → bounded request queue
          — full → graceful degradation (threshold answer, source="degraded")
                   or load shed (503) when degradation is disabled
      → the dispatcher dequeues a persona-contiguous chunk of at most
        that persona's engine ``batch_size`` requests
          — deadline re-check: anything that expired while queued → 504
          — engine breaker cooling (``CircuitBreaker.cooling``) → degraded
            answers without touching the backend
          — otherwise the chunk goes through ``MatchingEngine.match_pairs``
            (never more than one of the engine's micro-batches)
      → the chunk is handed back once: each outcome counted with one
        stats add per (outcome, lanes) group, then one
        ``loop.call_soon_threadsafe(_set_results, ...)`` per submitting
        event loop resolves that loop's futures, in chunk order

Async callers await a :class:`_QueuedRequest` future: written exactly
once, by the dispatching side, and handed back through the owning event
loop so no response ever crosses threads unsynchronized.
``_set_results`` is the one thread→loop seam: a chunk costs one
self-pipe wake-up per loop, not one per request.

The engine takes one caller at a time, so the gateway has exactly one
dispatcher.  Two drive modes share all of that code path:

* **threaded** (``workers=1`` + ``await gateway.start()``): one dispatch
  thread blocks on the queue; this is the serving/benchmark mode.  A
  chunk whose dispatch raises an ``Exception`` is answered degraded and
  the thread keeps serving; ``close`` re-raises the first such error.
* **inline** (``workers=0``): nothing runs in the background; the test,
  chaos harness, or CLI pumps the queue deterministically with
  :meth:`Gateway.pump` / :func:`run_inline`.  Combined with
  :class:`~repro.faults.clock.ManualClock` a whole serving session is a
  pure function of its inputs.

Every decision the engine owns is read from the engine, not copied:
the chunk size is its ``batch_size``, the breaker rule its breaker's
:meth:`~repro.engine.retry.CircuitBreaker.cooling`, and degraded
answers come from the method its fallback uses,
:meth:`~repro.baselines.threshold.ThresholdMatcher.decide`, over
descriptions cleaned by its :func:`~repro.engine.engine.normalize`.

Time never comes from the ambient clock: the constructor takes ``clock``
(the queue wait accounting and deadline checks go through it; the
breaker reads its own injected clock), so the ``injectable-sleep`` lint
rule holds for this package too.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Annotated, Callable, Sequence

from repro.baselines.threshold import ThresholdMatcher
from repro.concurrency import guarded_by, shutdown_order
from repro.engine.engine import normalize
from repro.serve.admission import AdmissionController
from repro.serve.protocol import MatchRequest, MatchResponse
from repro.serve.router import PersonaRouter, UnknownPersonaError
from repro.serve.stats import GatewayStats

__all__ = ["Gateway", "run_inline"]


def _lanes(tenant: str, persona: str) -> tuple:
    """The stats lanes one routed request counts in."""
    return (("tenant", tenant), ("persona", persona))


@dataclass
class _QueuedRequest:
    """One admitted request parked in the gateway queue.

    The future is created on (and resolved through) the submitting
    caller's event loop; the dispatch thread only ever touches it via
    the one ``loop.call_soon_threadsafe(Gateway._set_results, ...)`` per
    chunk and loop that carries the whole chunk's answers.
    """

    request: MatchRequest
    persona: str
    loop: asyncio.AbstractEventLoop
    future: "asyncio.Future[MatchResponse]"
    enqueued_at: float


class Gateway:
    """Async front door over per-persona matching engines."""

    #: shared queue state — touched by the event loop (submission) and
    #: the dispatch thread (dequeue), always under ``_cv``.
    _queue: Annotated["deque[_QueuedRequest]", guarded_by("_cv")]
    _closed: Annotated[bool, guarded_by("_cv")]
    #: the first ``Exception`` a threaded dispatch raised, for ``close``.
    _error: Annotated["Exception | None", guarded_by("_cv")]

    #: teardown contract, machine-checked by ``deep-shutdown-order``:
    #: wake the dispatch thread blocked on ``_cv`` (so the drain can
    #: finish) *before* joining it.  Joining first deadlocks — a parked
    #: thread never observes ``_closed``.
    __shutdown_order__ = shutdown_order("_cv", "_thread")

    def __init__(
        self,
        router: PersonaRouter,
        admission: AdmissionController | None = None,
        *,
        queue_capacity: int = 256,
        workers: int = 0,
        clock: Callable[[], float] = time.monotonic,
        degrade_on_overload: bool = True,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if workers not in (0, 1):
            raise ValueError(
                "workers must be 0 (inline pump) or 1 (one dispatch "
                "thread): the engine takes one caller at a time"
            )
        self.router = router
        self.admission = admission
        self.queue_capacity = queue_capacity
        self.workers = workers
        self.stats = GatewayStats()
        #: degraded matcher (overload / cooling breaker): the threshold
        #: baseline the engine falls back to, uncalibrated like the
        #: engine's default, so degraded answers stay checkable against
        #: a standalone ThresholdMatcher.
        self.fallback = ThresholdMatcher()
        self.degrade_on_overload = degrade_on_overload
        self._clock = clock
        self._queue: "deque[_QueuedRequest]" = deque()
        self._cv = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._error = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> "Gateway":
        """Spawn the dispatch thread (no-op in inline mode)."""
        if self.workers:
            self._thread = threading.Thread(
                target=self._worker_loop, name="gateway-worker", daemon=True
            )
            self._thread.start()
        return self

    async def close(self) -> None:
        """Stop accepting work and join the dispatch thread.

        Anything still queued is drained by the thread before it exits,
        so every admitted request is answered.  Re-raises the first
        ``Exception`` a threaded dispatch raised (its chunk was answered
        degraded).
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            # Joining on the loop would stall every other task for the
            # length of the drain; hop the join to an executor thread.
            await asyncio.get_running_loop().run_in_executor(
                None, self._thread.join
            )
            self._thread = None
        with self._cv:
            error, self._error = self._error, None
        if error is not None:
            raise error

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    # -------------------------------------------------------------- matching

    async def match(self, request: MatchRequest) -> MatchResponse:
        """Answer one request (structured response, never a traceback)."""
        try:
            persona = self.router.resolve(request.persona)
        except UnknownPersonaError as exc:
            self.stats.add(
                "submitted", "errors", lanes=(("tenant", request.tenant),)
            )
            return self._response(
                request, "error", persona="", reason=str(exc)
            )
        lanes = _lanes(request.tenant, persona)
        if self.admission is not None:
            refusal = self.admission.admit(request.tenant)
            if refusal is not None:
                # Two adds: the reason lane counts the rejection only.
                self.stats.add("submitted", lanes=lanes)
                self.stats.add("rejected", lanes=(*lanes, ("reason", refusal)))
                return self._response(
                    request, "rejected", persona=persona, reason=refusal
                )

        now = self._clock()
        if request.deadline is not None and now >= request.deadline:
            # Dead on arrival: admitted, released, never queued.
            return self._settle_unqueued(request, persona, "expired",
                                         reason="deadline_expired")

        loop = asyncio.get_running_loop()
        item = _QueuedRequest(
            request=request,
            persona=persona,
            loop=loop,
            future=loop.create_future(),
            enqueued_at=now,
        )
        with self._cv:
            depth = len(self._queue) + 1
            overloaded = depth > self.queue_capacity
            if not overloaded:
                # Counted before a worker can see the item, so no
                # snapshot shows its completion before its admission.
                self.stats.add(
                    "submitted", "admitted", lanes=lanes,
                    peak=("queue_high_water", depth),
                )
                self._queue.append(item)
                self._cv.notify()
        if overloaded:
            if self.degrade_on_overload:
                return self._settle_unqueued(
                    request, persona, "degraded", reason="queue_full"
                )
            return self._settle_unqueued(
                request, persona, "shed", reason="queue_full"
            )
        return await item.future

    async def match_many(
        self, requests: Sequence[MatchRequest]
    ) -> list[MatchResponse]:
        """Concurrent submission of a whole workload (threaded mode)."""
        return list(
            await asyncio.gather(*(self.match(r) for r in requests))
        )

    # ----------------------------------------------------------- dispatching

    def pump(self) -> int:
        """Dispatch one persona-contiguous chunk inline (workers=0 mode).

        Returns the number of requests handled; 0 when the queue is
        empty.  Must only be called from the event-loop thread of the
        submitting callers, and never with a started dispatch thread.
        """
        chunk = self._take_chunk(block=False)
        if not chunk:
            return 0
        self._process(chunk)
        return len(chunk)

    def pump_all(self) -> int:
        """Pump until the queue is empty; returns requests handled."""
        handled = 0
        while True:
            step = self.pump()
            if step == 0:
                return handled
            handled += step

    def _worker_loop(self) -> None:
        while True:
            chunk = self._take_chunk(block=True)
            if chunk is None:
                return
            try:
                self._process(chunk)
            except Exception as exc:
                # The chunk is already answered degraded; keep serving
                # and let close() report the error.
                with self._cv:
                    if self._error is None:
                        self._error = exc

    def _take_chunk(self, block: bool) -> "list[_QueuedRequest] | None":
        """Pop up to the engine's ``batch_size`` same-persona items.

        Grouping is persona-contiguous so dispatch order stays the
        arrival order — a chunk never overtakes an earlier request bound
        for a different engine.  Returns None when the gateway is closed
        and drained (the dispatch thread exits on it).
        """
        with self._cv:
            while block and not self._queue and not self._closed:
                self._cv.wait()
            if not self._queue:
                return None if (block and self._closed) else []
            persona = self._queue[0].persona
        # Outside _cv: a first lookup builds the engine, and submitters
        # must not wait on that.  The head stays put meanwhile: this is
        # the one dequeuing side, and submitters only append.
        try:
            size = self.router.engine(persona).batch_size
        except Exception:
            # No engine, no batch size: take the head alone; _process
            # meets the same error and answers it degraded.
            size = 1
        with self._cv:
            chunk = []
            while (
                self._queue
                and len(chunk) < size
                and self._queue[0].persona == persona
            ):
                chunk.append(self._queue.popleft())
            return chunk

    def _process(self, chunk: "list[_QueuedRequest]") -> None:
        """Answer one dequeued chunk (on the dispatch thread or the pump)."""
        persona = chunk[0].persona
        now = self._clock()
        #: (outcome, item, response) for every answered request, in the
        #: order the callers see them resolve.
        answered: "list[tuple[str, _QueuedRequest, MatchResponse]]" = []
        live: list[_QueuedRequest] = []
        for item in chunk:
            deadline = item.request.deadline
            if deadline is not None and now >= deadline:
                # Expired while queued: shed without ever dispatching.
                answered.append((
                    "expired", item,
                    self._response(item.request, "expired", persona=persona,
                                   reason="deadline_expired"),
                ))
            else:
                live.append(item)
        try:
            if not live:
                return
            try:
                engine = self.router.engine(persona)
                if engine.breaker.cooling():
                    answered += self._degrade(live, reason="circuit_open")
                    return
                results = engine.match_pairs(
                    [(item.request.left, item.request.right) for item in live]
                )
            except Exception:
                # The engine's own retry/fallback machinery answers
                # transport failures internally; anything escaping here
                # (an engine that failed to build, too) is unexpected —
                # degrade the chunk so no caller hangs, then let the
                # error surface. (SimulatedCrash derives from
                # BaseException and sails past this handler by design.)
                answered += self._degrade(live, reason="dispatch_error")
                raise
            answered += [
                ("completed", item, MatchResponse(
                    request=item.request,
                    status="ok",
                    decision=result.decision,
                    response=result.response,
                    source=result.source,
                    persona=item.persona,
                ))
                for item, result in zip(live, results)
            ]
        finally:
            self._hand_back(answered)

    def _hand_back(
        self, answered: "list[tuple[str, _QueuedRequest, MatchResponse]]"
    ) -> None:
        """Count, release and deliver one chunk's answers.

        Each (outcome, lanes) group is one counter add, in first-occurrence
        order, so the counts — key and lane order included — are those of
        counting request by request.  Each submitting event loop gets one
        ``call_soon_threadsafe`` carrying its answers, in order.
        """
        groups: "dict[tuple[str, tuple], int]" = {}
        by_loop: "dict[asyncio.AbstractEventLoop, list]" = {}
        for outcome, item, response in answered:
            key = (outcome, _lanes(item.request.tenant, item.persona))
            groups[key] = groups.get(key, 0) + 1
            self._release(item.request.tenant)
            by_loop.setdefault(item.loop, []).append((item, response))
        for (outcome, lanes), n in groups.items():
            self.stats.add(outcome, n=n, lanes=lanes)
        for loop, pairs in by_loop.items():
            loop.call_soon_threadsafe(self._set_results, pairs)

    # ------------------------------------------------------------ degradation

    def _degraded_decisions(
        self, requests: "list[MatchRequest]"
    ) -> "list[bool]":
        """Threshold answers for *requests*, on normalized descriptions."""
        return self.fallback.decide(
            (normalize(r.left), normalize(r.right)) for r in requests
        )

    def _degrade(
        self, items: "list[_QueuedRequest]", reason: str
    ) -> "list[tuple[str, _QueuedRequest, MatchResponse]]":
        """Answer *items* with the gateway's threshold matcher."""
        decisions = self._degraded_decisions([item.request for item in items])
        return [
            ("degraded", item, MatchResponse(
                request=item.request,
                status="ok",
                decision=decision,
                response=None,
                source="degraded",
                persona=item.persona,
                reason=reason,
            ))
            for item, decision in zip(items, decisions)
        ]

    # ------------------------------------------------------------- plumbing

    def _response(
        self,
        request: MatchRequest,
        status: str,
        persona: str,
        reason: str = "",
        decision: bool | None = None,
        source: str = "",
    ) -> MatchResponse:
        return MatchResponse(
            request=request,
            status=status,
            decision=decision,
            response=None,
            source=source,
            persona=persona,
            reason=reason,
        )

    def _settle_unqueued(
        self, request: MatchRequest, persona: str, outcome: str, reason: str
    ) -> MatchResponse:
        """Terminal outcome for an admitted request that never queued."""
        self.stats.add(
            "submitted", "admitted", outcome,
            lanes=_lanes(request.tenant, persona),
            peak=("queue_high_water", self.queue_depth),
        )
        self._release(request.tenant)
        if outcome == "degraded":
            [decision] = self._degraded_decisions([request])
            return self._response(
                request, "ok", persona=persona, reason=reason,
                decision=decision, source="degraded",
            )
        status = "expired" if outcome == "expired" else "shed"
        return self._response(request, status, persona=persona, reason=reason)

    def _release(self, tenant: str) -> None:
        if self.admission is not None:
            self.admission.release(tenant)

    @staticmethod
    def _set_results(
        pairs: "list[tuple[_QueuedRequest, MatchResponse]]",
    ) -> None:
        """Resolve a chunk's futures on their loop (the one hand-off seam)."""
        for item, response in pairs:
            if not item.future.done():
                item.future.set_result(response)


async def run_inline(
    gateway: Gateway, requests: Sequence[MatchRequest]
) -> list[MatchResponse]:
    """Submit a workload and pump it to completion, deterministically.

    Inline-mode driver (``workers=0``): every request is submitted as a
    task, then the queue is pumped until all responses resolve.  With a
    :class:`~repro.faults.clock.ManualClock` the whole session — chunk
    boundaries included — is a pure function of the request sequence.
    """
    tasks = [asyncio.ensure_future(gateway.match(r)) for r in requests]
    while not all(task.done() for task in tasks):
        # Scheduler yield (zero simulated time): lets submissions reach
        # their queue slots and resolved futures wake their awaiters.
        await asyncio.sleep(0)
        # repro-lint: disable=deep-async-blocking — inline mode IS the
        # dispatcher: workers=0, pump never blocks (non-blocking take).
        gateway.pump_all()
    return [task.result() for task in tasks]
