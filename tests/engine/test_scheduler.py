"""Tests for the engine's micro-batch cut: flush on size, drain at the end.

One ``match_pairs`` call fills micro-batches of unique prompts in arrival
order, dispatches each as soon as it holds ``batch_size`` prompts, and
drains the remainder before it returns.
"""

from dataclasses import dataclass, field

import pytest

from repro.engine import MatchingEngine

from tests.engine.doubles import EchoBackend


@dataclass
class RecordingBackend(EchoBackend):
    """Echo backend that keeps every batch of prompts it was sent."""

    batches: list = field(default_factory=list)

    def generate(self, prompts):
        self.batches.append(list(prompts))
        return super().generate(prompts)


def run(batch_size, pairs):
    backend = RecordingBackend()
    engine = MatchingEngine(backend=backend, batch_size=batch_size)
    engine.match_pairs(pairs)
    prompts = [engine.template.render(left, right) for left, right in pairs]
    return engine, backend, prompts


class TestSizeFlush:
    def test_flushes_at_max_batch_size(self):
        engine, backend, prompts = run(3, [("a", "1"), ("b", "2"), ("c", "3")])
        assert backend.batches == [prompts]
        assert engine.stats.flush_reasons == {"size": 1}

    def test_batches_preserve_order_across_flushes(self):
        pairs = [(f"left {i}", f"right {i}") for i in range(5)]
        engine, backend, prompts = run(2, pairs)
        assert backend.batches == [prompts[0:2], prompts[2:4], prompts[4:]]
        assert engine.stats.flush_reasons == {"size": 2, "drain": 1}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MatchingEngine(backend=EchoBackend(), batch_size=0)
        with pytest.raises(ValueError):
            MatchingEngine.for_model("llama-3.1-8b", batch_size=-1)


class TestDrain:
    def test_drain_flushes_remainder(self):
        pairs = [("a", "1"), ("b", "2")]
        engine, backend, prompts = run(10, pairs)
        assert backend.batches == [prompts]
        assert engine.stats.flush_reasons == {"drain": 1}
        # Nothing was left pending: the same pairs again come from the
        # cache and dispatch no batch.
        engine.match_pairs(pairs)
        assert len(backend.batches) == 1
