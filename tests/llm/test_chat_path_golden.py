"""Golden chat path: every engine answer is pinned bit for bit.

A cold :class:`~repro.engine.MatchingEngine` answers a fixed, seeded
list of description pairs through the whole chat path: prompt render,
result cache, in-call dedup, micro-batches, backend, ``ChatModel``
(prompt parse, featurization, logits, answer text) and answer parsing.
The sha256 of every ``(prompt, response, decision, source)`` is pinned
per persona and template, so a speed-up anywhere on that path that
moves one logit across zero, one response character or one verdict
fails here.

Covered: ``llama-3.1-8b`` in-process (``LocalBackend``) and ``gpt-4o``
through the batch API, the free ``default`` prompt and the forced
``complex-force`` prompt, and micro-batches of 1 and 7 (a pair's answer
must not depend on its batch).  The list mixes product and fielded
bibliographic records, true and random pairs, and repeats some pairs
within a call and across calls (dedup and cache hits).
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.engine import BatchAPIBackend, LocalBackend, MatchingEngine
from repro.llm.model import build_model
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import COMPLEX_FORCE, DEFAULT_PROMPT

#: sha256 of the JSON lines of one persona/template run (both batch sizes).
GOLDEN = {
    ("llama-3.1-8b", "default"):
        "ea7355399fd344c27f4bd330700f7ed1f803c182169b931be3f874fe85149898",
    ("llama-3.1-8b", "complex-force"):
        "f31ac5c8355036b8f87bca1c33acd0046d31e758a6c982e47924c5996f4bc7e2",
    ("gpt-4o", "default"):
        "15b90c9d9cf35031c4a395c93d38d096fe927c67d31877fd77215fda1bf64b2d",
    ("gpt-4o", "complex-force"):
        "1e90122b0ce6879327e2ca0d36e555f6815ece885d2e36607065c224e98c2ab3",
}

BACKENDS = {"llama-3.1-8b": LocalBackend, "gpt-4o": BatchAPIBackend}
TEMPLATES = {"default": DEFAULT_PROMPT, "complex-force": COMPLEX_FORCE}


def _pairs() -> list[tuple[str, str]]:
    """400 description pairs, the same on every run."""
    rng = np.random.default_rng(2025)
    pairs = []
    for name in ("abt-buy", "dblp-acm"):
        split = load_dataset(name).test
        chosen = rng.choice(len(split.pairs), size=150, replace=False)
        pairs += [(split.pairs[int(i)].left.description,
                   split.pairs[int(i)].right.description) for i in chosen]
        lefts = [p.left.description for p in split.pairs]
        rights = [p.right.description for p in split.pairs]
        pairs += [(lefts[int(rng.integers(len(lefts)))],
                   rights[int(rng.integers(len(rights)))]) for _ in range(50)]
    order = rng.permutation(len(pairs))
    return [pairs[int(i)] for i in order]


@functools.cache
def _calls() -> tuple[list, list]:
    """Two calls: the second repeats a slice of the first (cache hits)
    and holds some pairs twice (in-call dedup)."""
    pairs = _pairs()
    return pairs[:300], pairs[250:] + pairs[290:310]


def _run(persona: str, template: str, batch_size: int) -> list:
    engine = MatchingEngine.for_model(
        build_model(persona), template=TEMPLATES[template],
        batch_size=batch_size,
    )
    assert isinstance(engine.backend, BACKENDS[persona])
    results = [r for call in _calls() for r in engine.match_pairs(call)]
    return [
        [engine.template.render(r.left, r.right), r.response, r.decision,
         r.source]
        for r in results
    ]


def _digest(rows: list) -> str:
    text = "".join(json.dumps(row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("persona,template", sorted(GOLDEN))
def test_answers_match_the_golden_digest(persona, template):
    runs = {size: _run(persona, template, size) for size in (1, 7)}
    assert runs[1] == runs[7]
    rows = runs[1]
    sources = {row[3] for row in rows}
    assert sources == {"backend", "cache"}
    assert _digest(rows) == GOLDEN[persona, template]


def test_the_list_draws_hedged_answers():
    """The free prompt gets unparseable answers from the 8B persona."""
    rows = _run("llama-3.1-8b", "default", 7)
    hedged = [row for row in rows if parse_yes_no(row[1]) is None]
    assert hedged
    assert all(row[2] is False for row in hedged)
