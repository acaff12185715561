"""``ChatModel.complete_batch`` answers exactly as one prompt at a time.

A batch parses each prompt once and scores each template's pairs with
one ``logits`` call, optionally reading per-description views from a
:class:`FeatureMemo`.  None of that may change an answer: for any mix of
templates (known and custom wordings) the strings are those of the
one-prompt chat path transcribed below, for a zero-shot persona that
hedges on free prompts and for a fine-tuned model that appends
explanations.  With a memo, each pair's logit has the bits of a one-pair
``logits`` call, whatever batch it is scored in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import MatchingEngine
from repro.engine.backends import LocalBackend
from repro.engine.retry import BackendError, RetryPolicy
from repro.llm.decoding import is_hedged
from repro.llm.features import FeatureMemo
from repro.llm.model import build_model
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import PROMPTS, PromptTemplate
from repro.training.trainer import TrainingExample
from tests.conftest import make_product_split, make_scholar_split

TEMPLATES = list(PROMPTS.values()) + [
    PromptTemplate(name="custom", question="Are these the same item?",
                   forced=False),
]
ZERO_SHOT = ("llama-3.1-8b", "gpt-4o-mini")


def _hedging_pairs(count: int) -> list[tuple[str, str]]:
    """Pairs on which the weakest zero-shot persona hedges (free prompt)."""
    persona = build_model("llama-3.1-8b").persona
    free = PROMPTS["default"]
    found = []
    for p in make_product_split("cb-h", 150, 150, seed=40).pairs:
        pair = (p.left.description, p.right.description)
        if is_hedged(persona, free, *pair, fine_tuned=False):
            found.append(pair)
    assert len(found) >= count
    return found[:count]


PAIRS = _hedging_pairs(3) + [
    (p.left.description, p.right.description)
    for split in (make_product_split("cb-p", 12, 18, seed=41),
                  make_scholar_split("cb-s", 6, 9, seed=42))
    for p in split.pairs
]


def _tuned():
    base = build_model("llama-3.1-8b")
    train = make_product_split("cb-train", 30, 50, seed=43)
    tuned, _ = base.fine_tune(
        [TrainingExample(pair=p, label=p.label) for p in train.pairs],
        training_set="cb", explanation_style="structured",
    )
    return tuned


MODELS = {name: build_model(name) for name in ZERO_SHOT}
MODELS["tuned"] = _tuned()

BATCHES = st.lists(
    st.tuples(st.integers(0, len(PAIRS) - 1), st.integers(0, len(TEMPLATES) - 1)),
    min_size=1, max_size=24,
)


def _prompts(picks) -> list[str]:
    return [TEMPLATES[t].render(*PAIRS[i]) for i, t in picks]


def _adhoc(left: str, right: str):
    from repro.datasets.schema import EntityPair, Record

    return EntityPair(
        pair_id="adhoc",
        left=Record(record_id="adhoc-l", attributes={}, description=left),
        right=Record(record_id="adhoc-r", attributes={}, description=right),
        label=False,
    )


def reference_complete(model, prompt: str) -> str:
    """One prompt through the chat path, scored as a one-pair batch."""
    from repro.core.explanations import render_completion_explanation
    from repro.llm.decoding import realize_answer
    from repro.prompts.builder import extract_entities, identify_prompt

    left, right = extract_entities(prompt)
    template = identify_prompt(prompt)
    if template is None:
        question = prompt.partition("\n")[0].strip('" ')
        template = PromptTemplate(name="custom", question=question, forced=False)
    decision = bool(model.logits([_adhoc(left, right)], template)[0] > 0.0)
    explanation = None
    if model.explanation_style is not None:
        explanation = render_completion_explanation(
            model.explanation_style, left, right, decision
        )
    return realize_answer(decision, model.persona, template, left, right,
                          fine_tuned=model.is_fine_tuned,
                          explanation=explanation)


class TestCompleteBatch:
    @given(st.sampled_from(sorted(MODELS)), BATCHES, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_one_complete_per_prompt(self, name, picks, with_memo):
        model = MODELS[name]
        prompts = _prompts(picks)
        memo = FeatureMemo() if with_memo else None
        expected = [reference_complete(model, p) for p in prompts]
        assert model.complete_batch(prompts, memo) == expected
        assert [model.complete(p) for p in prompts] == expected

    @given(st.sampled_from(sorted(MODELS)), BATCHES)
    @settings(max_examples=30, deadline=None)
    def test_memo_logits_have_one_pair_bits_in_any_batch(self, name, picks):
        model = MODELS[name]
        pairs = [_adhoc(*PAIRS[i]) for i, _ in picks]
        template = TEMPLATES[picks[0][1]]
        expected = [model.logits([p], template).tobytes() for p in pairs]
        got = model.logits(pairs, template, FeatureMemo())
        assert [got[i: i + 1].tobytes() for i in range(len(pairs))] == expected

    def test_pool_covers_hedges_and_explanations(self):
        prompts = _prompts((i, t) for i in range(len(PAIRS))
                           for t in range(len(TEMPLATES)))
        hedged = MODELS["llama-3.1-8b"].complete_batch(prompts, FeatureMemo())
        assert any(parse_yes_no(r) is None for r in hedged)
        explained = MODELS["tuned"].complete_batch(prompts, FeatureMemo())
        assert all(r.split()[0] in ("Yes.", "No.") for r in explained)
        assert all("attribute=description" in r for r in explained)

    def test_agrees_with_predict_pairs(self):
        from tests.conftest import make_product_split as split_of

        pairs = split_of("cb-v", 20, 20, seed=44).pairs
        template = PROMPTS["complex-force"]
        model = MODELS["gpt-4o-mini"]
        answers = model.complete_batch(
            [template.render(p.left.description, p.right.description)
             for p in pairs], FeatureMemo())
        expected = model.predict_pairs(pairs, template)
        assert [bool(parse_yes_no(a)) for a in answers] == list(expected)

    def test_empty_batch(self):
        assert MODELS["gpt-4o-mini"].complete_batch([], FeatureMemo()) == []


class TestMalformedPromptInBatch:
    def _batch(self) -> list[str]:
        prompts = _prompts([(0, 0), (1, 1), (2, 2)])
        prompts.insert(1, "just some text")
        return prompts

    def test_batch_raises_value_error_like_complete(self):
        model = MODELS["llama-3.1-8b"]
        with pytest.raises(ValueError, match="Entity 1"):
            model.complete("just some text")
        with pytest.raises(ValueError, match="Entity 1"):
            model.complete_batch(self._batch(), FeatureMemo())

    @pytest.mark.parametrize("make", [lambda m: LocalBackend(m)])
    def test_backends_raise_backend_error(self, make):
        with pytest.raises(BackendError, match="Entity 1"):
            make(MODELS["llama-3.1-8b"]).generate(self._batch())

    def test_engine_falls_back_for_the_whole_micro_batch(self):
        class Corrupting:
            """Replaces one prompt of every micro-batch with garbage."""

            name = "corrupting"

            def __init__(self, inner):
                self.inner = inner

            def generate(self, prompts):
                return self.inner.generate(prompts[:1] + ["just some text"]
                                           + prompts[2:])

        inner = LocalBackend(MODELS["llama-3.1-8b"])
        engine = MatchingEngine(
            backend=Corrupting(inner), retry=RetryPolicy(max_attempts=2),
            sleep=lambda seconds: None,
        )
        results = engine.match_pairs(PAIRS[:5])
        assert [r.source for r in results] == ["fallback"] * 5
        assert engine.stats.fallbacks == 5


def test_pair_rng_is_default_rng():
    from repro.llm.prior import _pair_rng

    for seed in (0, 1, 2**63 + 12345, 2**64 - 1):
        assert np.array_equal(_pair_rng(seed).standard_normal(40),
                              np.random.default_rng(seed).standard_normal(40))


class TestCustomQuestionLine:
    def test_question_with_a_carriage_return_parses_back_whole(self):
        from repro.llm.model import _parse_prompt

        template = PromptTemplate("custom", "Is this\rthe same product?", False)
        model = MODELS["llama-3.1-8b"]
        left, right = PAIRS[0]
        parsed_left, parsed_right, parsed = _parse_prompt(
            template.render(left, right)
        )
        assert (parsed_left, parsed_right) == (left, right)
        assert parsed.question == "Is this\rthe same product?"
        assert parsed == template
        assert model.prompt_bias(parsed) == model.prompt_bias(template)
