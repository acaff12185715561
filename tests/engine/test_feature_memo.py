"""The engine's feature views live in its backend, not in the process.

Before backends owned a :class:`~repro.llm.features.FeatureMemo`, every
distinct pair an engine scored added a feature row to the module-global
``features._CACHE`` and an observation-noise row to the cached prior's
``_obs_cache``, for the life of the process.  Now an engine's views die
with the engine, and two threads sharing one engine (and so one memo),
taking turns as its one-caller contract asks, get the answers of a
serial run.
"""

from __future__ import annotations

import threading

from repro.datasets.synthetic import synthetic_dedup_corpus
from repro.engine import MatchingEngine
from repro.llm import features
from repro.llm.model import build_model
from repro.prompts.templates import DEFAULT_PROMPT

MODEL = "llama-3.1-8b"


def fresh_pairs(n: int, tag: str) -> list[tuple[str, str]]:
    """*n* pairs of near-duplicate descriptions no other test scores."""
    records = synthetic_dedup_corpus(n + 1, seed=5).records
    return [
        (f"{a.description} {tag}{i}", f"{b.description} {tag}{i}")
        for i, (a, b) in enumerate(zip(records, records[1:]))
    ]


def test_engine_scoring_leaves_the_process_memos_unchanged():
    prior = build_model(MODEL).prior
    before = (len(features._CACHE), len(prior._obs_cache))
    engine = MatchingEngine.for_model(MODEL)
    pairs = fresh_pairs(200, "memo-probe")
    results = engine.match_pairs(pairs)
    assert [r.source for r in results] == ["backend"] * 200
    assert (len(features._CACHE), len(prior._obs_cache)) == before
    memo = engine.backend.memo
    assert len(memo) == len({d for pair in pairs for d in pair})


def test_memo_less_path_still_uses_the_process_memos():
    model = build_model(MODEL)
    features.clear_feature_cache()
    model.prior._obs_cache.clear()
    (left, right), = fresh_pairs(1, "memo-less")
    model.complete(DEFAULT_PROMPT.render(left, right))
    assert (left, right) in features._CACHE
    assert (left, right) in model.prior._obs_cache
    features.clear_feature_cache()
    assert features._CACHE == {}


def test_two_threads_sharing_one_engine_answer_as_a_serial_run():
    pairs = fresh_pairs(120, "threads")
    serial = MatchingEngine.for_model(MODEL, batch_size=4).match_pairs(pairs)
    expected = {(r.left, r.right): (r.response, r.decision) for r in serial}

    engine = MatchingEngine.for_model(MODEL, batch_size=4)
    orders = [pairs, pairs[::-1]]
    got: list = [None, None]
    errors: list = []
    start = threading.Barrier(2)
    #: the engine takes one caller at a time: threads sharing it take turns.
    turn = threading.Lock()

    def worker(k: int) -> None:
        try:
            start.wait()
            with turn:
                got[k] = engine.match_pairs(orders[k])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for results in got:
        assert {(r.left, r.right): (r.response, r.decision)
                for r in results} == expected
        assert all(r.source in ("backend", "cache") for r in results)
    assert len(engine.backend.memo) == len(
        {d for pair in pairs for d in pair})
