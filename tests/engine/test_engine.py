"""Tests for the MatchingEngine: dedup, caching, stats, and agreement.

The agreement tests are the contract that lets experiments switch to the
engine path: on registered benchmarks, engine-backed evaluation must
produce predictions identical pair-for-pair to the sequential path.
"""

import numpy as np
import pytest

from repro.core.pipeline import TailorMatch
from repro.datasets.registry import load_dataset
from repro.engine import (
    BatchAPIBackend,
    LocalBackend,
    MatchingEngine,
    make_backend,
)
from repro.eval.evaluator import evaluate_model
from repro.llm.model import build_model
from repro.prompts.templates import SIMPLE_FREE, get_prompt

from tests.engine.doubles import EchoBackend


@pytest.fixture(scope="module")
def model():
    return build_model("llama-3.1-8b")


class TestAgreementWithSequentialPath:
    """Acceptance: pair-for-pair identical predictions on ≥2 benchmarks."""

    @pytest.mark.parametrize("dataset_name", ["abt-buy", "dblp-acm"])
    def test_engine_predictions_match_sequential(self, model, dataset_name):
        split = load_dataset(dataset_name).test
        engine = MatchingEngine.for_model(model)
        engine_preds = engine.predict_split(split)
        sequential_preds = model.predict_pairs(split.pairs)
        assert np.array_equal(engine_preds, sequential_preds)

    @pytest.mark.parametrize("dataset_name", ["abt-buy", "dblp-acm"])
    def test_engine_backed_evaluation_identical(self, model, dataset_name):
        split = load_dataset(dataset_name).test
        engine = MatchingEngine.for_model(model)
        plain = evaluate_model(model, split)
        engined = evaluate_model(model, split, engine=engine)
        assert engined.scores == plain.scores
        assert engined.f1 == plain.f1

    def test_template_mismatch_rejected(self, model, product_split):
        engine = MatchingEngine.for_model(model, template=SIMPLE_FREE)
        with pytest.raises(ValueError, match="prompt"):
            evaluate_model(model, product_split, get_prompt("default"),
                           engine=engine)


class TestCachingAndDedup:
    def test_duplicate_workload_hits_cache(self):
        engine = MatchingEngine(backend=EchoBackend())
        workload = [("a1 widget", "a1 widget gadget"),
                    ("b2 gizmo", "c3 sprocket")]
        engine.match_pairs(workload)
        results = engine.match_pairs(workload)  # same pairs again
        assert all(r.source == "cache" for r in results)
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_hits > 0  # the acceptance criterion
        assert engine.backend.calls == 1    # second call was free

    def test_in_flight_dedup_within_one_call(self):
        backend = EchoBackend()
        engine = MatchingEngine(backend=backend)
        results = engine.match_pairs([("x", "y")] * 5)
        assert len(results) == 5
        assert engine.stats.deduped == 4
        assert engine.stats.batched_requests == 1  # one unique prompt sent
        assert len({r.decision for r in results}) == 1

    def test_normalization_folds_whitespace_variants(self):
        engine = MatchingEngine(backend=EchoBackend())
        engine.match_pairs([("acme  router", "acme router v2")])
        results = engine.match_pairs([(" acme router ", "acme   router v2")])
        assert results[0].source == "cache"

    def test_entity_pair_descriptions_used_verbatim(self, product_split):
        engine = MatchingEngine(backend=EchoBackend())
        results = engine.match_pairs(product_split.pairs[:3])
        for result, pair in zip(results, product_split.pairs):
            assert result.left == pair.left.description
            assert result.right == pair.right.description


class TestSchedulingAndStats:
    def test_micro_batches_flush_on_size(self):
        engine = MatchingEngine(backend=EchoBackend(), batch_size=4)
        workload = [(f"left {i}", f"right {i}") for i in range(10)]
        engine.match_pairs(workload)
        assert engine.stats.batches == 3  # 4 + 4 + drain(2)
        assert engine.stats.flush_reasons == {"size": 2, "drain": 1}
        assert engine.stats.mean_batch_size == pytest.approx(10 / 3)

    def test_stats_snapshot_round_trips_to_dict(self):
        engine = MatchingEngine(backend=EchoBackend())
        engine.match_pairs([("a", "b"), ("a", "b")])
        snapshot = engine.stats.as_dict()
        assert snapshot["requests"] == 2
        assert snapshot["deduped"] == 1
        assert "latency" not in snapshot
        assert set(engine.stats.latency_percentiles()) == {"p50", "p95", "p99"}
        rendered = engine.stats.render()
        assert "hit_rate" in rendered and "batches" in rendered
        assert "latency" in rendered

    def test_reset_stats(self):
        engine = MatchingEngine(backend=EchoBackend())
        engine.match_pairs([("a", "b")])
        engine.reset_stats()
        assert engine.stats.requests == 0


class _SnapshotBackend(EchoBackend):
    """Echo backend that snapshots the engine's counts on every dispatch."""

    def __init__(self):
        super().__init__()
        self.engine = None
        self.seen = []

    def generate(self, prompts):
        self.seen.append(self.engine.stats.counts())
        return super().generate(prompts)


#: ``EngineStats.counts()`` after :class:`TestCallCounting`'s two calls,
#: as counting one cache hit at a time left it: lanes in order, values.
CALL_COUNTS = {
    (): {"requests": 8, "cache_misses": 6, "batches": 3,
         "batched_requests": 5, "circuit_opens": 0, "cache_hits": 2,
         "deduped": 1},
    ("flush", "size"): {"batches": 2},
    ("flush", "drain"): {"batches": 1},
}


class TestCallCounting:
    def test_one_call_counts_like_one_hit_at_a_time(self):
        backend = _SnapshotBackend()
        engine = MatchingEngine(backend=backend, batch_size=2)
        backend.engine = engine
        engine.match_pairs([("a", "b"), ("c", "d"), ("e", "f")])
        # Two hits, three misses, one of them an in-call duplicate.
        results = engine.match_pairs(
            [("a", "b"), ("g", "h"), ("c", "d"), ("g", "h"), ("i", "j")]
        )
        assert [r.source for r in results] == [
            "cache", "backend", "cache", "backend", "backend"
        ]
        counts = engine.stats.counts()
        assert counts == CALL_COUNTS
        assert list(counts) == list(CALL_COUNTS)
        assert engine.stats.violations() == []
        for seen in backend.seen:
            total = seen[()]
            assert total["requests"] == (
                total.get("cache_hits", 0) + total["cache_misses"]
            )


class TestDeclaredBalances:
    """Each engine balance catches one counter drifting on its own."""

    @pytest.fixture
    def stats(self):
        engine = MatchingEngine(backend=EchoBackend(), batch_size=4)
        engine.match_pairs([(f"l{i}", f"r{i % 5}") for i in range(10)])
        engine.match_pairs([("l0", "r0"), ("x", "y"), ("x", "y")])
        assert engine.stats.violations() == []
        return engine.stats

    def test_batch_without_a_flush_reason(self, stats):
        batches = stats.batches
        stats.add("batches")
        assert stats.violations() == [
            f"flush lanes sum batches {batches} != total batches {batches + 1}"
        ]

    def test_miss_neither_dispatched_nor_deduped(self, stats):
        misses, deduped, dispatched = (
            stats.cache_misses, stats.deduped, stats.batched_requests
        )
        stats.add("requests", "cache_misses")
        assert stats.violations() == [
            f"total: cache_misses {misses + 1} != deduped {deduped} + "
            f"batched_requests {dispatched}"
        ]

    def test_unclassed_retry(self, stats):
        stats.add("retries")
        assert stats.violations() == [
            "total: timeouts 0 + transport_errors 0 + circuit_open 0 + "
            "malformed 0 != retries 1 + failures 0"
        ]


class TestMatchBlockingEquivalence:
    """``match_blocking`` is exactly ``match_pairs`` over the sorted
    candidate walk — the contract the resolve pipeline builds on."""

    def _blocking(self, product_split):
        from repro.blocking.token import TokenBlocker

        left = tuple(p.left for p in product_split.pairs[:20])
        right = tuple(p.right for p in product_split.pairs[:20])
        return TokenBlocker().block(left, right)

    def test_pair_for_pair_identical_decisions(self, product_split):
        from tests.engine.doubles import ParityBackend

        blocking = self._blocking(product_split)
        assert blocking.candidates  # the comparison must not be vacuous
        pairs = [
            (blocking.left[i].description, blocking.right[j].description)
            for i, j in sorted(blocking.candidates)
        ]
        via_blocking = MatchingEngine(backend=ParityBackend()).match_blocking(
            blocking
        )
        via_pairs = MatchingEngine(backend=ParityBackend()).match_pairs(pairs)
        assert len(via_blocking) == len(blocking.candidates)
        assert via_blocking == via_pairs

    def test_same_backend_request_stream(self, product_split):
        # Same prompts, same order, same number of backend calls: the two
        # entry points are indistinguishable from the backend's side.
        blocking = self._blocking(product_split)
        pairs = [
            (blocking.left[i].description, blocking.right[j].description)
            for i, j in sorted(blocking.candidates)
        ]
        one = MatchingEngine(backend=EchoBackend())
        two = MatchingEngine(backend=EchoBackend())
        one.match_blocking(blocking)
        two.match_pairs(pairs)
        assert one.backend.calls == two.backend.calls
        assert one.stats.requests == two.stats.requests
        assert one.stats.cache_misses == two.stats.cache_misses


class TestBackends:
    def test_make_backend_routes_open_source_locally(self):
        assert isinstance(make_backend("llama-3.1-8b"), LocalBackend)

    def test_make_backend_routes_hosted_through_batch_api(self):
        assert isinstance(make_backend("gpt-4o-mini"), BatchAPIBackend)

    def test_batch_api_backend_answers_in_order(self, product_split):
        engine = MatchingEngine.for_model("gpt-4o-mini")
        direct = MatchingEngine(backend=LocalBackend(build_model("gpt-4o-mini")))
        pairs = product_split.pairs[:12]
        via_batch = [r.decision for r in engine.match_pairs(pairs)]
        via_model = [r.decision for r in direct.match_pairs(pairs)]
        assert via_batch == via_model


class TestPipelineIntegration:
    def test_match_all_accepts_dataset_name(self):
        tm = TailorMatch("llama-3.1-8b")
        engine = MatchingEngine.for_model(tm.zero_shot)
        results = tm.match_all("abt-buy", engine=engine)
        split = load_dataset("abt-buy").test
        assert len(results) == len(split)
        sequential = tm.zero_shot.predict_pairs(split.pairs)
        assert [r.decision for r in results] == list(map(bool, sequential))
        assert engine.stats.requests == len(split)

    def test_match_all_accepts_pair_sequence(self, product_split):
        tm = TailorMatch("llama-3.1-8b")
        results = tm.match_all(product_split.pairs[:5])
        assert len(results) == 5

    def test_match_all_accepts_blocking_result(self, product_split):
        from repro.blocking.token import TokenBlocker

        left = tuple(p.left for p in product_split.pairs[:15])
        right = tuple(p.right for p in product_split.pairs[:15])
        blocking = TokenBlocker().block(left, right)
        tm = TailorMatch("llama-3.1-8b")
        engine = MatchingEngine.for_model(tm.zero_shot)
        results = tm.match_all(blocking, engine=engine)
        assert len(results) == len(blocking.candidates)
        assert engine.stats.requests == len(blocking.candidates)
