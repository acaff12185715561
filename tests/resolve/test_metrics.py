"""Cluster-metric tests against hand-computed reference values.

The worked example used throughout::

    predicted = {a, b} {c, d, e}        gold = {a, b, c} {d, e}

Contingency matrix [[2, 0], [1, 2]]; from it, by hand:

* B³ precision = (2²/2 + (1² + 2²)/3) / 5 = (11/3)/5 = 73.33 %
  (recall is symmetric here: also 11/15).
* ARI: index = 2, row pairs = 4, col pairs = 4, all pairs = 10 →
  (2 − 1.6) / (4 − 1.6) = 1/6.
* pairwise: tp = 2, fp = 2, fn = 2, tn = 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.metrics import f1_score
from repro.resolve import (
    Clustering,
    adjusted_rand_index,
    b_cubed,
    cluster_scores,
    pairwise_scores,
)
from repro.resolve.metrics import _contingency

PREDICTED = Clustering.from_clusters([["a", "b"], ["c", "d", "e"]])
GOLD = Clustering.from_clusters([["a", "b", "c"], ["d", "e"]])


class TestBCubed:
    def test_hand_computed_example(self):
        precision, recall, f1 = b_cubed(PREDICTED, GOLD)
        assert precision == pytest.approx(100 * 11 / 15)
        assert recall == pytest.approx(100 * 11 / 15)
        assert f1 == pytest.approx(100 * 11 / 15)

    def test_identical_partitions_score_100(self):
        assert b_cubed(GOLD, GOLD) == (100.0, 100.0, 100.0)

    def test_one_big_cluster_has_perfect_recall(self):
        lump = Clustering.from_clusters([["a", "b", "c", "d", "e"]])
        precision, recall, _ = b_cubed(lump, GOLD)
        assert recall == pytest.approx(100.0)
        # precision = (3² + 2²)/5/5 = 13/25
        assert precision == pytest.approx(100 * 13 / 25)


class TestAdjustedRandIndex:
    def test_hand_computed_example(self):
        assert adjusted_rand_index(PREDICTED, GOLD) == pytest.approx(1 / 6)

    def test_identical_partitions_score_1(self):
        assert adjusted_rand_index(GOLD, GOLD) == pytest.approx(1.0)

    def test_all_singletons_both_sides_is_degenerate_agreement(self):
        singles = Clustering.from_clusters([["a"], ["b"], ["c"]])
        assert adjusted_rand_index(singles, singles) == 1.0

    def test_singletons_vs_lump_is_degenerate_disagreement(self):
        singles = Clustering.from_clusters([["a"], ["b"], ["c"]])
        lump = Clustering.from_clusters([["a", "b", "c"]])
        # expected == maximum only in the all-singleton × all-lump corner
        # when one side has no pair mass; here sum_rows=0 → expected=0,
        # maximum=1.5, so the regular formula applies and gives 0.
        assert adjusted_rand_index(singles, lump) == pytest.approx(0.0)


class TestPairwiseScores:
    def test_hand_computed_example(self):
        scores = pairwise_scores(PREDICTED, GOLD)
        assert (scores.tp, scores.fp, scores.fn, scores.tn) == (2, 2, 2, 4)
        assert scores.precision == pytest.approx(50.0)
        assert scores.recall == pytest.approx(50.0)
        assert scores.f1 == pytest.approx(50.0)

    def test_reconciles_with_pairwise_evaluator(self):
        """Enumerating every element pair and scoring the implied labels
        with ``repro.eval.metrics.f1_score`` must give the identical
        MatchingScores object — the cluster metric is the pairwise metric."""
        elements = PREDICTED.elements
        pred_assign = PREDICTED.assignments()
        gold_assign = GOLD.assignments()
        labels, predictions = [], []
        for i, a in enumerate(elements):
            for b in elements[i + 1:]:
                labels.append(gold_assign[a] == gold_assign[b])
                predictions.append(pred_assign[a] == pred_assign[b])
        expected = f1_score(np.array(labels), np.array(predictions))
        assert pairwise_scores(PREDICTED, GOLD) == expected


class TestClusterScores:
    def test_bundle_and_snapshot(self):
        scores = cluster_scores(PREDICTED, GOLD)
        assert scores.records == 5
        assert scores.predicted_clusters == 2
        assert scores.gold_clusters == 2
        snapshot = scores.as_dict()
        assert snapshot["b3_f1"] == pytest.approx(73.33)
        assert snapshot["ari"] == pytest.approx(0.1667)
        assert snapshot["pairwise_f1"] == pytest.approx(50.0)

    def test_mismatched_element_sets_rejected(self):
        other = Clustering.from_clusters([["a", "b"], ["c", "d", "x"]])
        with pytest.raises(ValueError, match="different elements"):
            cluster_scores(other, GOLD)


def dense_table(predicted, gold):
    """The full predicted × gold contingency matrix, zeros included."""
    gold_index = {
        member: j for j, cluster in enumerate(gold.clusters) for member in cluster
    }
    matrix = np.zeros((len(predicted.clusters), len(gold.clusters)), dtype=np.int64)
    for i, cluster in enumerate(predicted.clusters):
        for member in cluster:
            matrix[i, gold_index[member]] += 1
    return matrix


def dense_b_cubed(matrix):
    rows, cols = matrix.sum(axis=1), matrix.sum(axis=0)
    total = int(rows.sum())
    if total == 0:
        return 100.0, 100.0
    squared = matrix.astype(np.float64) ** 2
    return (
        100.0 * float((squared / rows[:, None]).sum()) / total,
        100.0 * float((squared / cols[None, :]).sum()) / total,
    )


@st.composite
def two_partitions(draw):
    """Two random partitions of one element set (labels drawn per element)."""
    n = draw(st.integers(0, 40))
    elements = [f"e{i:02d}" for i in range(n)]
    labels = st.lists(st.integers(0, 12), min_size=n, max_size=n)

    def partition(assignment):
        groups = {}
        for element, label in zip(elements, assignment):
            groups.setdefault(label, []).append(element)
        return Clustering.from_clusters(groups.values())

    return partition(draw(labels)), partition(draw(labels))


class TestSparseContingency:
    """The nonzero-cell table against the dense matrix it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(two_partitions())
    def test_cells_and_marginals_match_the_dense_matrix(self, partitions):
        predicted, gold = partitions
        matrix = dense_table(predicted, gold)
        table = _contingency(predicted, gold)
        rebuilt = np.zeros_like(matrix)
        rebuilt[table.cell_rows, table.cell_cols] = table.cells
        assert np.array_equal(rebuilt, matrix)
        assert (table.cells > 0).all()
        assert np.array_equal(table.rows, matrix.sum(axis=1))
        assert np.array_equal(table.cols, matrix.sum(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(two_partitions())
    def test_scores_match_the_dense_matrix(self, partitions):
        predicted, gold = partitions
        matrix = dense_table(predicted, gold)
        precision, recall, _ = b_cubed(predicted, gold)
        dense_precision, dense_recall = dense_b_cubed(matrix)
        assert abs(precision - dense_precision) <= 1e-9
        assert abs(recall - dense_recall) <= 1e-9
        pairs = lambda counts: int((counts * (counts - 1) // 2).sum())
        scores = pairwise_scores(predicted, gold)
        assert scores.tp == pairs(matrix)
        assert scores.tp + scores.fp == pairs(matrix.sum(axis=1))
        assert scores.tp + scores.fn == pairs(matrix.sum(axis=0))
