"""The engine's verdict memo answers exactly as ``parse_yes_no``.

A model answers from a few canned texts, so :meth:`MatchingEngine.verdict`
keeps the parsed decision of each response text it has seen.  These
tests check it against the parser on every answer the simulated models
can give and on arbitrary text, that it stays bounded, that a miss still
goes through the engine module's ``parse_yes_no`` (the name tracing
wraps), and that the engine counts exactly as it did without it.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.engine as engine_mod
from repro.core.explanations import (
    EXPLANATION_STYLES,
    render_completion_explanation,
)
from repro.engine import MatchingEngine
from repro.llm import decoding
from repro.llm.decoding import realize_answer
from repro.llm.parsing import parse_yes_no
from repro.llm.registry import get_persona
from repro.prompts.templates import PROMPTS

from tests.engine.doubles import EchoBackend, FakeClock, FlakyBackend

#: every canned answer text of :mod:`repro.llm.decoding`.
POOL = (
    decoding._VERBOSE_YES + decoding._VERBOSE_NO + decoding._HEDGES
    + ("Yes.", "No.")
)

descriptions = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=60,
)


def _engine() -> MatchingEngine:
    return MatchingEngine(backend=EchoBackend())


def _check(engine: MatchingEngine, text: str) -> None:
    """A miss and then a hit both give the parser's verdict."""
    expected = bool(parse_yes_no(text))
    assert engine.verdict(text) is expected
    assert engine.verdict(text) is expected


@pytest.mark.parametrize("text", POOL)
def test_every_pool_answer(text):
    _check(_engine(), text)


@settings(max_examples=150, deadline=None)
@given(
    decision=st.booleans(),
    persona=st.sampled_from(
        ["llama-3.1-8b", "llama-3.1-70b", "gpt-4o-mini", "gpt-4o"]
    ),
    template=st.sampled_from(sorted(PROMPTS)),
    fine_tuned=st.booleans(),
    style=st.sampled_from((None,) + EXPLANATION_STYLES),
    left=descriptions,
    right=descriptions,
)
def test_every_model_answer(decision, persona, template, fine_tuned, style,
                            left, right):
    """Answers as models realize them, with and without explanations."""
    explanation = None
    if style is not None:
        explanation = render_completion_explanation(style, left, right,
                                                    decision)
    text = realize_answer(decision, get_persona(persona), PROMPTS[template],
                          left, right, fine_tuned, explanation)
    _check(_engine(), text)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.text(max_size=80), max_size=40))
def test_arbitrary_text_and_the_bound(texts):
    engine = _engine()
    engine.MAX_VERDICTS = 4
    for text in texts + texts[::-1]:
        assert engine.verdict(text) is bool(parse_yes_no(text))
        assert len(engine._verdicts) <= 4


def test_a_miss_calls_the_module_parser_and_a_hit_does_not(monkeypatch):
    calls = []

    def counting(response):
        calls.append(response)
        return parse_yes_no(response)

    monkeypatch.setattr(engine_mod, "parse_yes_no", counting)
    engine = _engine()
    for text in POOL + POOL:
        engine.verdict(text)
    assert calls == list(POOL)


#: ``EngineStats.counts()`` after :func:`test_counts_are_unchanged`, as
#: the engine counted before it kept verdicts (values, lane and key order).
COUNTS = {
    (): {"requests": 9, "cache_misses": 7, "batches": 4,
         "batched_requests": 6, "retries": 2, "transport_errors": 3,
         "failures": 1, "circuit_opens": 0, "fallbacks": 2, "deduped": 1,
         "cache_hits": 2},
    ("flush", "size"): {"batches": 2},
    ("flush", "drain"): {"batches": 2},
}


def test_counts_are_unchanged():
    """Cache hits, fallbacks and verdict hits count as they always did."""
    clock = FakeClock()
    backend = FlakyBackend(inner=EchoBackend(answer=decoding._HEDGES[0]),
                           fail_first=3)
    engine = MatchingEngine(backend=backend, batch_size=2, clock=clock,
                            sleep=lambda seconds: None)
    first = engine.match_pairs([("a", "b"), ("c", "d"), ("e", "f")])
    assert [r.source for r in first] == ["fallback", "fallback", "backend"]
    # Every answer is the same hedge: one parse, then verdict hits.
    second = engine.match_pairs(
        [("e", "f"), ("g", "h"), ("g", "h"), ("a", "b"), ("i", "j"),
         ("e", "f")]
    )
    assert [r.source for r in second] == [
        "cache", "backend", "backend", "backend", "backend", "cache"
    ]
    assert not any(r.decision for r in first[2:] + second)
    counts = engine.stats.counts()
    assert counts == COUNTS
    assert [(lane, list(row)) for lane, row in counts.items()] == [
        (lane, list(row)) for lane, row in COUNTS.items()
    ]
    assert engine.stats.violations() == []
