"""The online matching engine (one caller at a time).

Request lifecycle::

    match request (pair of descriptions)
      → normalize + render prompt
      → ResultCache lookup  ──hit──→ answer
      → in-call dedup (identical prompts in one call share one slot)
      → micro-batch: flush at ``batch_size`` unique prompts, and drain
        the remainder when the call runs out of input
      → Backend.generate under RetryPolicy + CircuitBreaker
          ──exhausted / circuit open──→ threshold-baseline fallback
            (``ThresholdMatcher.decide`` over the batch's descriptions)
      → parse answer (one parse per response text), fill cache, resolve
        the call's slots, update EngineStats

The engine accepts ad-hoc description pairs, labelled
:class:`~repro.datasets.schema.EntityPair` objects, whole splits, and
candidate streams from :mod:`repro.blocking`.  Descriptions taken from
``EntityPair`` objects are used verbatim (so the engine path is
bit-identical to the evaluator's sequential path); raw string input is
whitespace-normalized first (:func:`normalize`), since online callers
send unsanitized text.

The serve gateway reads its engine's decisions rather than copying them:
it cuts dispatch chunks at :attr:`MatchingEngine.batch_size`, asks
``engine.breaker.cooling()`` before dispatching, and answers degraded
requests with :func:`normalize` and ``ThresholdMatcher.decide``.

One caller: an engine serves one :meth:`MatchingEngine.match_pairs` call
at a time, like a ``dict``, and takes no lock.  Its callers (the
evaluator, the resolution store's one writer, the gateway's one dispatch
thread or inline pump) never call it concurrently.  Each call cuts and
dispatches its own micro-batches and drains them before it returns, so
the in-flight table is local to the call and nothing is left pending
between calls, even when an exception escapes a dispatch.  A call that
starts while another is running (a backend that calls back into its
engine, or a second thread) raises ``RuntimeError`` instead of
interleaving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.baselines.threshold import ThresholdMatcher
from repro.blocking.base import BlockingResult
from repro.datasets.schema import EntityPair, Split
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
from repro.engine.stats import EngineStats
from repro.llm.model import ChatModel
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import DEFAULT_PROMPT, PromptTemplate

__all__ = ["MatchResult", "MatchingEngine", "normalize"]


def normalize(text: str) -> str:
    """Whitespace-normalize one raw description (runs folded, ends cut).

    What the engine applies to raw string pairs, and what the gateway
    applies to the pairs it answers degraded, so both ask the threshold
    matcher about the same text.
    """
    return " ".join(text.split())


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
    """One unique prompt's slot within a call: dispatched once, claimed
    by every request of the call that renders to it."""

    prompt: str
    left: str
    right: str
    #: requests of the call answered by this slot.
    claims: int = 0
    response: str | None = None
    decision: bool = False
    source: str = ""

    def resolve(self, response: str | None, decision: bool, source: str) -> None:
        self.response = response
        self.decision = decision
        self.source = source


class MatchingEngine:
    """Cache-, batch-, and failure-aware front end over a model backend."""

    #: response texts whose verdicts one engine keeps (see :meth:`verdict`).
    MAX_VERDICTS = 1024

    def __init__(
        self,
        backend: Backend,
        template: PromptTemplate = DEFAULT_PROMPT,
        cache: ResultCache | None = None,
        batch_size: int = 32,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.backend = backend
        self.template = template
        self.cache = cache if cache is not None else ResultCache()
        #: unique prompts per micro-batch, the only batching knob: the
        #: gateway's chunks for this engine are cut at it too.
        self.batch_size = batch_size
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        #: degraded matcher used while the backend is unhealthy.  Its
        #: threshold is the uncalibrated 0.5 similarity cut — call
        #: ``fallback.fit(train_split)`` for a calibrated one.
        self.fallback = ThresholdMatcher()
        self.stats = EngineStats()
        self._clock = clock
        self._sleep = sleep
        #: True while a ``match_pairs`` call runs (the one-caller guard).
        self._matching = False
        #: response text → parsed decision (see :meth:`verdict`).
        self._verdicts: dict[str, bool] = {}

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
        through the batch API (see :func:`make_backend`).
        """
        return cls(
            backend=make_backend(model),
            template=template,
            batch_size=batch_size,
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

        Duplicate pairs (after normalization) are answered by a single
        backend request, within one call and (via the cache) across
        calls.  Raises ``RuntimeError`` when another call is running:
        the engine takes one caller at a time.
        """
        if self._matching:
            raise RuntimeError(
                "MatchingEngine takes one caller at a time: match_pairs "
                "was called while another call was running"
            )
        self._matching = True
        try:
            return self._match(pairs)
        finally:
            self._matching = False

    def _match(
        self, pairs: Sequence[EntityPair | tuple[str, str]] | Iterable
    ) -> list[MatchResult]:
        descriptions = [self._descriptions(p) for p in pairs]
        results: list[MatchResult | None] = [None] * len(descriptions)
        #: (input index, slot) for every cache miss.
        claims: list[tuple[int, _Pending]] = []
        #: the micro-batch being filled: its unique prompts, in arrival
        #: order.  A dispatched batch leaves the table, so a later
        #: identical request hits the cache or, after a fallback, opens
        #: a fresh slot.
        batch: dict[str, _Pending] = {}
        hits = 0

        for i, (left, right) in enumerate(descriptions):
            prompt = self.template.render(left, right)
            cached = self.cache.get(prompt)
            if cached is not None:
                response, decision = cached
                hits += 1
                results[i] = MatchResult(left, right, response, decision, "cache")
                continue
            self.stats.add("requests", "cache_misses")
            pending = batch.get(prompt)
            if pending is None:
                pending = batch[prompt] = _Pending(prompt, left, right)
            else:
                self.stats.add("deduped")
            pending.claims += 1
            claims.append((i, pending))
            if len(batch) == self.batch_size:
                self._dispatch(list(batch.values()), "size")
                batch = {}
        if hits:
            # One add for the call's hits: requests = hits + misses holds
            # in every snapshot, since each add bumps requests with them.
            self.stats.add("requests", "cache_hits", n=hits)
        if batch:
            self._dispatch(list(batch.values()), "drain")

        for i, pending in claims:
            left, right = descriptions[i]
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
        return normalize(left), normalize(right)

    def verdict(self, response: str) -> bool:
        """The decision *response* parses to: ``bool(parse_yes_no(response))``.

        Models answer from a few canned texts (a zero-shot persona's
        verbose and hedged pools, a fine-tuned model's bare "Yes."/"No."),
        so the engine keeps the verdict of each text it has parsed.  The
        memo holds at most ``MAX_VERDICTS`` texts; the insert that would
        pass the bound starts it over, which costs re-parses and never a
        wrong verdict.
        """
        decision = self._verdicts.get(response)
        if decision is None:
            decision = bool(parse_yes_no(response))
            if len(self._verdicts) >= self.MAX_VERDICTS:
                self._verdicts.clear()
            self._verdicts[response] = decision
        return decision

    def _dispatch(self, batch: list[_Pending], reason: str) -> None:
        """Run one micro-batch through retry/breaker; fall back on failure.

        *reason* is why the batch was cut: ``"size"`` or ``"drain"``.
        """
        self.stats.add("batches", lanes=(("flush", reason),))
        self.stats.add("batched_requests", n=len(batch))
        prompts = [item.prompt for item in batch]
        opened_before = self.breaker.times_opened
        started = self._clock()
        try:
            responses = run_with_retry(
                partial(self.backend.generate, prompts),
                self.retry,
                breaker=self.breaker,
                clock=self._clock,
                sleep=self._sleep,
                on_retry=self._count_retry,
            )
        except (BackendError, CircuitOpenError) as exc:
            self.stats.add("failures", _error_class(exc))
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
        decisions = [self.verdict(response) for response in responses]
        for item, response, decision in zip(batch, responses, decisions):
            self.cache.put(item.prompt, (response, decision))
            item.resolve(response, decision, "backend")

    def _count_retry(self, attempt: int, exc: Exception) -> None:
        self.stats.add("retries", _error_class(exc))

    def _fallback_batch(self, batch: list[_Pending]) -> None:
        """Answer a failed batch with the degraded threshold matcher.

        Fallback answers are *not* cached: once the backend recovers, the
        same pair should get a real model answer again.
        """
        decisions = self.fallback.decide((item.left, item.right) for item in batch)
        self.stats.add("fallbacks", n=sum(item.claims for item in batch))
        for item, decision in zip(batch, decisions):
            item.resolve(None, decision, "fallback")


def _error_class(exc: Exception) -> str:
    """The error counter a failed backend attempt lands in."""
    if isinstance(exc, BackendTimeout):
        return "timeouts"
    if isinstance(exc, CircuitOpenError):
        return "circuit_open"
    return "transport_errors"
