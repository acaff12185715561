"""Cluster-level evaluation: B³, Adjusted Rand Index, pairwise F1.

All three scores are computed from one contingency table between the
predicted and gold partitions, so they are exact (integer pair counts,
no sampling).  Only the table's nonzero cells are kept, at most one per
element, so time and memory grow with the records, not with the
product of the two sides' cluster counts.  The pairwise scores use the
*same* arithmetic as :func:`repro.eval.metrics.f1_score` — a
cluster-level evaluation of a pairwise matcher's transitive closure
reconciles with the pairwise evaluation of the same matcher (tested on
enumerated pairs in ``tests/resolve/test_metrics.py``).

Conventions follow the existing evaluator: B³ and pairwise scores are
percentages; ARI keeps its native [-1, 1] scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.blocking.base import recall_at_k, recall_curve
from repro.eval.metrics import MatchingScores
from repro.resolve.clusterer import Clustering

__all__ = [
    "ClusterScores",
    "adjusted_rand_index",
    "b_cubed",
    "cluster_scores",
    "pairwise_scores",
    # Blocking-recall metrics, re-exported so resolution callers score
    # candidate generation and clustering through one module; the single
    # implementation lives in repro.blocking.base (shared by the
    # benchmark and the CLI --stats path).
    "recall_at_k",
    "recall_curve",
]


@dataclass(frozen=True)
class ClusterScores:
    """Cluster-level agreement between a predicted and a gold partition."""

    b3_precision: float
    b3_recall: float
    b3_f1: float
    ari: float
    pairwise: MatchingScores
    predicted_clusters: int
    gold_clusters: int
    records: int

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (used by the CLI and benchmarks)."""
        return {
            "records": self.records,
            "predicted_clusters": self.predicted_clusters,
            "gold_clusters": self.gold_clusters,
            "b3_precision": round(self.b3_precision, 2),
            "b3_recall": round(self.b3_recall, 2),
            "b3_f1": round(self.b3_f1, 2),
            "ari": round(self.ari, 4),
            "pairwise_precision": round(self.pairwise.precision, 2),
            "pairwise_recall": round(self.pairwise.recall, 2),
            "pairwise_f1": round(self.pairwise.f1, 2),
        }


class _Contingency(NamedTuple):
    """Nonzero cells of the predicted × gold contingency table.

    ``cells[k]`` is the count ``n_ij`` of elements in predicted cluster
    ``i = cell_rows[k]`` and gold cluster ``j = cell_cols[k]``; every
    omitted cell is zero.  ``rows``/``cols`` are the marginals (cluster
    sizes on each side).
    """

    cells: np.ndarray
    cell_rows: np.ndarray
    cell_cols: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _contingency(predicted: Clustering, gold: Clustering) -> _Contingency:
    """The nonzero contingency cells plus row/column marginals.

    One pass over the elements gives each its (predicted, gold) cluster
    pair; counting the distinct pairs gives the cells in row-major
    order.  Both partitions must cover exactly the same element set — a
    metric over mismatched universes would silently compare different
    problems.
    """
    predicted_elements = predicted.elements
    gold_elements = gold.elements
    if predicted_elements != gold_elements:
        missing = set(gold_elements) ^ set(predicted_elements)
        sample = ", ".join(repr(e) for e in sorted(missing)[:3])
        raise ValueError(
            f"predicted and gold clusterings cover different elements "
            f"({len(missing)} differ, e.g. {sample})"
        )
    gold_index = {
        member: j
        for j, cluster in enumerate(gold.clusters)
        for member in cluster
    }
    rows = np.array([len(c) for c in predicted.clusters], dtype=np.int64)
    cols = np.array([len(c) for c in gold.clusters], dtype=np.int64)
    row_of = np.repeat(np.arange(len(rows), dtype=np.int64), rows)
    col_of = np.fromiter(
        (gold_index[m] for cluster in predicted.clusters for m in cluster),
        dtype=np.int64,
        count=len(row_of),
    )
    width = max(len(cols), 1)
    codes, cells = np.unique(row_of * width + col_of, return_counts=True)
    return _Contingency(cells, codes // width, codes % width, rows, cols)


def _pairs(counts: np.ndarray) -> np.ndarray:
    """Element-wise n-choose-2."""
    counts = counts.astype(np.int64)
    return counts * (counts - 1) // 2


def b_cubed(
    predicted: Clustering, gold: Clustering
) -> tuple[float, float, float]:
    """B³ precision / recall / F1 in percent.

    Per element e: precision(e) = |C(e) ∩ G(e)| / |C(e)| and recall(e) =
    |C(e) ∩ G(e)| / |G(e)|; scores average over elements.  From the
    contingency cells: Σ_ij n_ij² / a_i (resp. / b_j), divided by n.
    """
    table = _contingency(predicted, gold)
    total = int(table.rows.sum())
    if total == 0:
        return 100.0, 100.0, 100.0
    squared = table.cells.astype(np.float64) ** 2
    precision = 100.0 * float(
        (squared / table.rows[table.cell_rows]).sum()
    ) / total
    recall = 100.0 * float(
        (squared / table.cols[table.cell_cols]).sum()
    ) / total
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return precision, recall, f1


def adjusted_rand_index(predicted: Clustering, gold: Clustering) -> float:
    """Hubert–Arabie ARI in [-1, 1] (1 = identical partitions).

    Degenerate cases where the expected index equals the maximum index
    (e.g. both partitions all-singletons, or ≤1 element) return 1.0 when
    the partitions agree perfectly and 0.0 otherwise, the standard
    convention.
    """
    cells, _, _, rows, cols = _contingency(predicted, gold)
    total = int(rows.sum())
    if total < 2:
        return 1.0
    index = float(_pairs(cells).sum())
    sum_rows = float(_pairs(rows).sum())
    sum_cols = float(_pairs(cols).sum())
    all_pairs = float(total * (total - 1) // 2)
    expected = sum_rows * sum_cols / all_pairs
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0 if index == expected else 0.0
    return (index - expected) / (maximum - expected)


def pairwise_scores(predicted: Clustering, gold: Clustering) -> MatchingScores:
    """Pairwise precision/recall/F1 implied by the two partitions.

    A pair of elements is predicted positive when co-clustered in
    *predicted* and labelled positive when co-clustered in *gold*; the
    counts come exactly from the contingency marginals, and the score
    arithmetic matches :func:`repro.eval.metrics.f1_score`, so cluster
    evaluations reconcile with the pairwise evaluator.
    """
    cells, _, _, rows, cols = _contingency(predicted, gold)
    total = int(rows.sum())
    tp = int(_pairs(cells).sum())
    predicted_positive = int(_pairs(rows).sum())
    gold_positive = int(_pairs(cols).sum())
    fp = predicted_positive - tp
    fn = gold_positive - tp
    tn = total * (total - 1) // 2 - tp - fp - fn
    precision = 100.0 * tp / (tp + fp) if (tp + fp) else 0.0
    recall = 100.0 * tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return MatchingScores(
        precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn, tn=tn
    )


def cluster_scores(predicted: Clustering, gold: Clustering) -> ClusterScores:
    """All cluster-level scores between two partitions of one element set."""
    b3_precision, b3_recall, b3_f1 = b_cubed(predicted, gold)
    return ClusterScores(
        b3_precision=b3_precision,
        b3_recall=b3_recall,
        b3_f1=b3_f1,
        ari=adjusted_rand_index(predicted, gold),
        pairwise=pairwise_scores(predicted, gold),
        predicted_clusters=len(predicted.clusters),
        gold_clusters=len(gold.clusters),
        records=len(predicted.elements),
    )
