"""The online matching engine (safe under concurrent callers).

Request lifecycle::

    match request (pair of descriptions)
      → normalize + render prompt
      → ResultCache lookup  ──hit──→ answer
      → in-flight dedup (identical prompts share one backend slot,
        across threads as well as within one call)
      → Scheduler (micro-batch: flush on size / deadline / drain)
      → Backend.generate under RetryPolicy + CircuitBreaker
          ──exhausted / circuit open──→ threshold-baseline fallback
      → parse answer, fill cache, resolve waiters, update EngineStats

The engine accepts ad-hoc description pairs, labelled
:class:`~repro.datasets.schema.EntityPair` objects, whole splits, and
candidate streams from :mod:`repro.blocking`.  Descriptions taken from
``EntityPair`` objects are used verbatim (so the engine path is
bit-identical to the evaluator's sequential path); raw string input is
whitespace-normalized first, since online callers send unsanitized text.

Thread-safety model: :meth:`MatchingEngine.match_pairs` may be called
from any number of threads.  One re-entrant engine lock guards the
scheduler and the in-flight table (both cheap, pure-data operations);
the cache, stats, and circuit breaker carry their own locks.  Backend
dispatch — the only blocking work — always happens *outside* every lock:
a flushed batch is handed to whichever thread triggered the flush, and
other threads waiting on a prompt in that batch block on the pending
slot's event, not on a lock.  Each caller drains the scheduler before
waiting, so every submitted prompt is guaranteed to be dispatched by
someone.  The ``@guarded_by`` declarations below are enforced by
``repro-em lint --deep``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Annotated, Callable, Iterable, Sequence

import numpy as np

from repro.baselines.threshold import ThresholdMatcher
from repro.blocking.base import BlockingResult
from repro.concurrency import guarded_by
from repro.datasets.schema import EntityPair, Record, Split
from repro.engine.backends import Backend, make_backend
from repro.engine.cache import ResultCache
from repro.engine.retry import (
    BackendError,
    BackendTimeout,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    run_with_retry,
)
from repro.engine.scheduler import Batch, Scheduler
from repro.engine.stats import EngineStats
from repro.llm.model import ChatModel
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import DEFAULT_PROMPT, PromptTemplate

__all__ = ["MatchResult", "MatchingEngine"]


@dataclass(frozen=True)
class MatchResult:
    """The engine's answer for one candidate pair."""

    left: str
    right: str
    #: raw model completion (None when the answer came from the fallback).
    response: str | None
    #: parsed matching decision (unparseable answers count as non-matches).
    decision: bool
    #: where the answer came from: "backend", "cache", or "fallback".
    source: str


@dataclass
class _Pending:
    """One unique prompt's shared slot: submitted once, awaited by many.

    Mutable fields are written exactly once, by the dispatching thread,
    before ``event`` is set; waiters only read them after :meth:`wait`
    returns, so the event provides the necessary happens-before edge.
    ``claims`` counts the requests (across all threads) answered by this
    slot and is only touched under the engine lock.
    """

    key: str
    prompt: str
    left: str
    right: str
    event: threading.Event = field(default_factory=threading.Event)
    claims: int = 0
    response: str | None = None
    decision: bool = False
    source: str = ""

    def resolve(self, response: str | None, decision: bool, source: str) -> None:
        self.response = response
        self.decision = decision
        self.source = source
        self.event.set()

    def wait(self) -> None:
        self.event.wait()


class MatchingEngine:
    """Cache-, batch-, and failure-aware front end over a model backend."""

    #: unique prompt key → shared pending slot (dedup across threads).
    _in_flight: Annotated["dict[str, _Pending]", guarded_by("_lock")]
    #: micro-batching scheduler; pure data structure, engine-lock-guarded.
    scheduler: Annotated[Scheduler, guarded_by("_lock")]

    def __init__(
        self,
        backend: Backend,
        template: PromptTemplate = DEFAULT_PROMPT,
        cache: ResultCache | None = None,
        scheduler: Scheduler | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        fallback: ThresholdMatcher | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.template = template
        self.cache = cache if cache is not None else ResultCache(clock=clock)
        self.scheduler = (
            scheduler if scheduler is not None else Scheduler(clock=clock)
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        #: degraded matcher used while the backend is unhealthy.  The
        #: default threshold is the uncalibrated 0.5 similarity cut — call
        #: ``fallback.fit(train_split)`` for a calibrated one.
        self.fallback = fallback if fallback is not None else ThresholdMatcher()
        self.stats = EngineStats()
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.RLock()
        self._in_flight = {}

    # ------------------------------------------------------------ factories

    @classmethod
    def for_model(
        cls,
        model: ChatModel | str,
        template: PromptTemplate = DEFAULT_PROMPT,
        batch_size: int = 32,
        **kwargs,
    ) -> "MatchingEngine":
        """Engine over the paper-faithful backend for *model*.

        Open-source personas run in-process through
        :class:`~repro.engine.backends.LocalBackend`; hosted personas
        through the batch API (see :func:`make_backend`).  *batch_size*
        is the scheduler's micro-batch size, the only place batches are
        cut.
        """
        kwargs.setdefault("scheduler", Scheduler(max_batch_size=batch_size))
        return cls(
            backend=make_backend(model),
            template=template,
            **kwargs,
        )

    # ------------------------------------------------------------- matching

    def match_pair(self, left: str, right: str) -> MatchResult:
        """Match one ad-hoc pair of entity descriptions."""
        return self.match_pairs([(left, right)])[0]

    def match_pairs(
        self,
        pairs: Sequence[EntityPair | tuple[str, str]] | Iterable,
    ) -> list[MatchResult]:
        """Match every candidate pair, preserving input order.

        Safe to call from any number of threads concurrently.  Duplicate
        pairs (after normalization) are answered by a single backend
        request — within one call, across concurrent calls, and (via the
        cache) across sequential calls.
        """
        descriptions = [self._descriptions(p) for p in pairs]
        results: list[MatchResult | None] = [None] * len(descriptions)
        #: (input index, shared slot, left, right) awaiting a dispatch.
        claims: list[tuple[int, _Pending, str, str]] = []
        hits = 0

        for i, (left, right) in enumerate(descriptions):
            prompt = self.template.render(left, right)
            key = prompt
            cached = self.cache.get(key)
            if cached is not None:
                response, decision = cached
                hits += 1
                results[i] = MatchResult(left, right, response, decision, "cache")
                continue
            self.stats.add("requests", "cache_misses")
            batch = None
            created = False
            with self._lock:
                pending = self._in_flight.get(key)
                if pending is None:
                    created = True
                    pending = _Pending(key=key, prompt=prompt, left=left, right=right)
                    self._in_flight[key] = pending
                    batch = self.scheduler.submit(pending)
                    if batch is None:
                        batch = self.scheduler.poll()
                pending.claims += 1
            if not created:
                self.stats.add("deduped")
            claims.append((i, pending, left, right))
            if batch is not None:
                self._dispatch(batch)
        if hits:
            # One add for the call's hits: requests = hits + misses holds
            # in every snapshot, since each add bumps requests with them.
            self.stats.add("requests", "cache_hits", n=hits)

        with self._lock:
            batch = self.scheduler.drain()
        if batch is not None:
            self._dispatch(batch)

        for i, pending, left, right in claims:
            pending.wait()
            results[i] = MatchResult(
                left, right, pending.response, pending.decision, pending.source
            )

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def match_split(self, split: Split) -> list[MatchResult]:
        """Match every pair of a dataset split."""
        return self.match_pairs(split.pairs)

    def match_blocking(self, blocking: BlockingResult) -> list[MatchResult]:
        """Match the candidate stream produced by a blocker.

        Candidates are visited in sorted (left_index, right_index) order so
        runs are reproducible regardless of set iteration order.
        """
        pairs = [
            (blocking.left[i].description, blocking.right[j].description)
            for i, j in sorted(blocking.candidates)
        ]
        return self.match_pairs(pairs)

    def predict_split(self, split: Split) -> np.ndarray:
        """Boolean predictions for a split (the evaluator's engine path)."""
        return np.array(
            [r.decision for r in self.match_split(split)], dtype=bool
        )

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    # ------------------------------------------------------------- internals

    @staticmethod
    def _descriptions(pair: EntityPair | tuple[str, str]) -> tuple[str, str]:
        """Left/right descriptions; raw strings are whitespace-normalized."""
        if isinstance(pair, EntityPair):
            return pair.left.description, pair.right.description
        left, right = pair
        return " ".join(left.split()), " ".join(right.split())

    def _retire(self, batch: Batch[_Pending]) -> list[int]:
        """Remove a dispatched batch from the in-flight table.

        Returns each item's claim count, frozen at removal: once an item
        leaves the table no further request can join it, so the counts are
        exact.  Later identical requests open a fresh slot (or hit the
        cache, when the dispatch succeeded).
        """
        with self._lock:
            counts = []
            for item in batch.items:
                self._in_flight.pop(item.key, None)
                counts.append(item.claims)
            return counts

    def _dispatch(self, batch: Batch[_Pending]) -> None:
        """Run one micro-batch through retry/breaker; fall back on failure.

        Called outside every lock: backend calls block (model inference,
        provider polling, retry sleeps) and must never stall other threads'
        cache hits or submissions.
        """
        self.stats.add("batches", lanes=(("flush", batch.reason),))
        self.stats.add("batched_requests", n=len(batch))
        prompts = [item.prompt for item in batch.items]

        def error_class(exc: Exception) -> str:
            """The error counter a failed attempt lands in."""
            if isinstance(exc, BackendTimeout):
                return "timeouts"
            if isinstance(exc, CircuitOpenError):
                return "circuit_open"
            return "transport_errors"

        def on_retry(attempt: int, exc: Exception) -> None:
            self.stats.add("retries", error_class(exc))

        opened_before = self.breaker.times_opened
        started = self._clock()
        try:
            responses = run_with_retry(
                lambda: self.backend.generate(prompts),
                self.retry,
                breaker=self.breaker,
                clock=self._clock,
                sleep=self._sleep,
                on_retry=on_retry,
            )
        except (BackendError, CircuitOpenError) as exc:
            self.stats.add("failures", error_class(exc))
            self.stats.add(
                "circuit_opens", n=self.breaker.times_opened - opened_before
            )
            self._fallback_batch(batch)
            return
        self.stats.add("circuit_opens", n=self.breaker.times_opened - opened_before)
        elapsed = self._clock() - started
        if len(responses) != len(prompts):
            # A misbehaving backend that drops answers is a failure too.
            self.stats.add("failures", "malformed")
            self._fallback_batch(batch)
            return
        self.stats.sample("latency", elapsed, len(prompts))
        answered = [
            (item, response, bool(parse_yes_no(response)))
            for item, response in zip(batch.items, responses)
        ]
        for item, response, decision in answered:
            self.cache.put(item.key, (response, decision))
        self._retire(batch)
        for item, response, decision in answered:
            item.resolve(response, decision, "backend")

    def _fallback_batch(self, batch: Batch[_Pending]) -> None:
        """Answer a failed batch with the degraded threshold matcher.

        Fallback answers are *not* cached: once the backend recovers, the
        same pair should get a real model answer again.
        """
        pairs = [
            EntityPair(
                pair_id=f"fallback-{i}",
                left=Record(record_id=f"fb-{i}-l", attributes={},
                            description=item.left),
                right=Record(record_id=f"fb-{i}-r", attributes={},
                             description=item.right),
                label=False,
            )
            for i, item in enumerate(batch.items)
        ]
        decisions = self.fallback.predict(Split(name="fallback", pairs=pairs))
        claim_counts = self._retire(batch)
        self.stats.add("fallbacks", n=sum(claim_counts))
        for item, decision in zip(batch.items, decisions):
            item.resolve(None, bool(decision), "fallback")
