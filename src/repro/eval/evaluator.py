"""Running a model over a test split and scoring it.

Long evaluations can be journaled (``journal=`` below): every scored
pair is appended to a crash-safe write-ahead log
(:mod:`repro.faults.journal`) as it is decided, and re-running the same
evaluation against an existing journal replays the finished pairs and
predicts only the remainder — so a run killed at any chunk boundary
resumes to the exact scores an uninterrupted run produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.datasets.schema import Split
from repro.eval.metrics import MatchingScores, f1_score
from repro.llm.model import ChatModel
from repro.prompts.templates import DEFAULT_PROMPT, PromptTemplate

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.engine.engine import MatchingEngine

__all__ = ["EvaluationResult", "evaluate_model"]


@dataclass(frozen=True)
class EvaluationResult:
    """Scores of one model on one split under one prompt."""

    model_name: str
    training_set: str
    split_name: str
    prompt_name: str
    scores: MatchingScores

    @property
    def f1(self) -> float:
        return self.scores.f1


def evaluate_model(
    model: ChatModel,
    split: Split,
    template: PromptTemplate = DEFAULT_PROMPT,
    engine: "MatchingEngine | None" = None,
    journal: "str | Path | None" = None,
    journal_chunk: int = 32,
) -> EvaluationResult:
    """Prompt *model* with every pair of *split*, parse answers, score.

    By default uses the vectorized prediction path (identical in outcome to
    prompting pair-by-pair through :meth:`ChatModel.complete`; the agreement
    of the two paths is covered by tests).  When *engine* is given, pairs
    are routed through the online :class:`~repro.engine.MatchingEngine`
    instead — batched, cached, retry-hardened — which is test-verified to
    produce pair-for-pair identical predictions when the engine wraps the
    same model and prompt template.

    When *journal* is given, per-pair decisions are write-ahead logged in
    chunks of *journal_chunk* and a killed run resumes from the same path
    (see module docstring).  The journal header pins the split, model,
    and prompt, so a journal cannot be replayed into the wrong evaluation.
    """
    labels = np.array(split.labels(), dtype=bool)
    if engine is not None and engine.template.name != template.name:
        raise ValueError(
            f"engine renders prompt {engine.template.name!r} but the "
            f"evaluation requested {template.name!r}"
        )
    if journal is not None:
        predictions = _journaled_predictions(
            model, split, template, engine, Path(journal), journal_chunk
        )
    elif engine is not None:
        predictions = engine.predict_split(split)
    else:
        predictions = model.predict_pairs(split.pairs, template)
    return EvaluationResult(
        model_name=model.name,
        training_set=model.training_set,
        split_name=split.name,
        prompt_name=template.name,
        scores=f1_score(labels, predictions),
    )


def _journaled_predictions(
    model: ChatModel,
    split: Split,
    template: PromptTemplate,
    engine: "MatchingEngine | None",
    path: Path,
    chunk_size: int,
) -> np.ndarray:
    """Predict *split* with a write-ahead journal, resuming if one exists."""
    # Imported lazily: the journal is pure stdlib, but pulling in the
    # repro.faults package at module scope would cycle through the chaos
    # harness, which imports the engine and resolution layers.
    from repro.faults.journal import JournalError, JournalWriter, read_journal, repair

    if chunk_size <= 0:
        raise ValueError("journal_chunk must be positive")
    header = {
        "kind": "eval",
        "split": split.name,
        "model": model.name,
        "prompt": template.name,
        "pairs": len(split.pairs),
    }
    done: dict[int, bool] = {}
    if path.exists() and path.stat().st_size:
        entries, torn = read_journal(path, expect=header)
        if torn:
            repair(path)
        for entry in entries:
            if entry.get("type") != "prediction":
                raise JournalError(
                    f"{path}: unexpected journal entry type "
                    f"{entry.get('type')!r} in an eval journal"
                )
            done[int(entry["index"])] = bool(entry["decision"])
    missing = [i for i in range(len(split.pairs)) if i not in done]
    with JournalWriter(path, header=header) as writer:
        for start in range(0, len(missing), chunk_size):
            chunk = missing[start : start + chunk_size]
            pairs = [split.pairs[i] for i in chunk]
            if engine is not None:
                decisions = [r.decision for r in engine.match_pairs(pairs)]
            else:
                decisions = [bool(d) for d in model.predict_pairs(pairs, template)]
            # Journal the chunk only after every decision in it exists:
            # a crash mid-chunk re-predicts the whole chunk on resume.
            for index, decision in zip(chunk, decisions):
                writer.append(
                    {
                        "type": "prediction",
                        "index": index,
                        "pair_id": split.pairs[index].pair_id,
                        "decision": bool(decision),
                    }
                )
                done[index] = bool(decision)
    return np.array([done[i] for i in range(len(split.pairs))], dtype=bool)
