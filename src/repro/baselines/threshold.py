"""Similarity-threshold matcher.

Predicts "match" when a single string-similarity signal exceeds a
threshold; the threshold can be calibrated on a training split by maximum
F1.  The simplest credible baseline for the benchmarks.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.datasets.schema import Split
from repro.eval.metrics import f1_score
from repro.llm.features import FEATURE_NAMES, featurize_pairs, featurize_texts

__all__ = ["ThresholdMatcher"]


class ThresholdMatcher:
    """Match when one similarity feature exceeds a threshold."""

    def __init__(self, feature: str = "char3_cosine", threshold: float = 0.5) -> None:
        if feature not in FEATURE_NAMES:
            raise ValueError(f"unknown feature {feature!r}")
        self.feature = feature
        self.threshold = threshold
        self._index = FEATURE_NAMES.index(feature)

    def scores(self, split: Split) -> np.ndarray:
        return featurize_pairs(split.pairs)[:, self._index]

    def predict(self, split: Split) -> np.ndarray:
        return self.scores(split) >= self.threshold

    def decide(self, pairs: Iterable[tuple[str, str]]) -> list[bool]:
        """:meth:`predict` over ``(left, right)`` description pairs.

        Same bits as ``predict`` on a split of these pairs, without
        building one: the engine's fallback and the gateway's degraded
        answers call it on every failed batch or overloaded request.
        """
        index, threshold = self._index, self.threshold
        return [
            bool(featurize_texts(left, right)[index] >= threshold)
            for left, right in pairs
        ]

    def fit(self, train: Split) -> "ThresholdMatcher":
        """Pick the F1-maximizing threshold on *train* (in place)."""
        scores = self.scores(train)
        labels = np.array(train.labels(), dtype=bool)
        best_threshold, best_f1 = self.threshold, -1.0
        for candidate in np.unique(np.round(scores, 3)):
            f1 = f1_score(labels, scores >= candidate).f1
            if f1 > best_f1:
                best_f1, best_threshold = f1, float(candidate)
        self.threshold = best_threshold
        return self
