"""Tests for the local inference path.

Open-source models run in-process through
:class:`~repro.engine.backends.LocalBackend`; the engine's micro-batch
cut is the only place a prompt list is cut into micro-batches.  These tests pin
what the path promises: answers in input order, and completions that do
not depend on how the batches are cut.
"""

from repro.engine import LocalBackend, MatchingEngine
from repro.llm.model import build_model
from repro.prompts.templates import COMPLEX_FORCE


def _prompts(product_split, n=10):
    return [
        COMPLEX_FORCE.render(p.left.description, p.right.description)
        for p in product_split.pairs[:n]
    ]


def _responses(product_split, batch_size, n=10):
    engine = MatchingEngine.for_model(
        "llama-3.1-8b", template=COMPLEX_FORCE, batch_size=batch_size
    )
    return [r.response for r in engine.match_pairs(product_split.pairs[:n])]


class TestLocalRunner:
    def test_order_preserved(self, product_split):
        model = build_model("llama-3.1-8b")
        prompts = _prompts(product_split)
        outputs = LocalBackend(model).generate(prompts)
        assert len(outputs) == len(prompts)
        assert outputs == [model.complete(p) for p in prompts]

    def test_batch_size_does_not_change_outputs(self, product_split):
        small = _responses(product_split, batch_size=1)
        large = _responses(product_split, batch_size=64)
        assert small == large

    def test_determinism_across_batch_sizes_1_7_32(self, product_split):
        """Byte-identical completions at batch size 1, 7 or 32, and again.

        Real inference stacks famously violate this (batch-dependent
        kernel selection); here how the engine cuts micro-batches is
        invisible, and a repeat run has no hidden cross-call state.
        """
        outputs = {
            size: _responses(product_split, batch_size=size, n=40)
            for size in (1, 7, 32)
        }
        assert outputs[1] == outputs[7] == outputs[32]
        assert _responses(product_split, batch_size=7, n=40) == outputs[7]
        chat = build_model("llama-3.1-8b")
        assert outputs[7] == [chat.complete(p)
                              for p in _prompts(product_split, n=40)]
