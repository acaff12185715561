"""Top-k candidate ranking by estimated Jaccard.

Ranking is fully deterministic: candidates sort by descending estimated
similarity with ties broken by ascending record id, so two runs
produce byte-identical rankings.  Similarity estimates
come from vectorized signature agreement — one numpy comparison over
the stacked candidate signatures, not a Python loop per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["RankedCandidate", "rank_candidates"]


@dataclass(frozen=True)
class RankedCandidate:
    """One ranked candidate: its record id and estimated Jaccard."""

    record_id: str
    similarity: float


def rank_candidates(
    signature: np.ndarray,
    others: Sequence[tuple[str, np.ndarray]],
    k: int | None = None,
    min_similarity: float = 0.0,
) -> tuple[RankedCandidate, ...]:
    """Rank *others* against *signature*; keep the top *k*.

    ``others`` is (record id, signature) pairs; ``k=None`` keeps every
    candidate at or above ``min_similarity``.  Order: similarity
    descending, then record id ascending (deterministic tie-break).
    """
    if k is not None and k <= 0:
        raise ValueError("k must be positive (or None for no cut-off)")
    if not others:
        return ()
    ids = [record_id for record_id, _ in others]
    matrix = np.stack([sig for _, sig in others])
    similarities = (matrix == signature[np.newaxis, :]).mean(axis=1)
    order = sorted(
        range(len(ids)), key=lambda i: (-similarities[i], ids[i])
    )
    ranked = [
        RankedCandidate(ids[i], float(similarities[i]))
        for i in order
        if similarities[i] >= min_similarity
    ]
    if k is not None:
        ranked = ranked[:k]
    return tuple(ranked)
