"""Batch resolution: BlockingResult candidates → engine → clusters.

The feeding edge is the same sorted candidate walk as
:meth:`~repro.engine.MatchingEngine.match_blocking`; here candidates are
dispatched in micro-chunks so that, in transitive mode, pairs whose
endpoints are *already* co-clustered by earlier decisions can be skipped
before they cost an engine call.  Skipping is sound for transitive
closure — an already-connected pair cannot change the partition — so the
short-circuited run is clustering-identical to the exhaustive one while
issuing strictly fewer backend requests (the saving is reported by
``benchmarks/bench_resolve.py``).

Record ids from the two blocking sides are namespaced as ``L:<id>`` /
``R:<id>`` so a record id reused across sides never aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.blocking.base import BlockingResult
from repro.datasets.schema import Record, Split
from repro.engine.engine import MatchingEngine
from repro.resolve.canonical import golden_records
from repro.resolve.clusterer import Clustering, PairDecision, cluster
from repro.resolve.incremental import decision_score
from repro.resolve.uf import UnionFind

__all__ = [
    "ResolutionReport",
    "gold_clustering",
    "node_id",
    "resolve_blocking",
    "split_records",
]


def node_id(side: str, record: Record) -> str:
    """Namespaced element id for a record of blocking side ``L`` / ``R``."""
    return f"{side}:{record.record_id}"


@dataclass(frozen=True)
class ResolutionReport:
    """Everything one batch resolution run produced."""

    clustering: Clustering
    decisions: tuple[PairDecision, ...]
    #: blocker candidate pairs considered.
    candidates: int
    #: candidate pairs actually sent to the engine.
    engine_calls: int
    #: candidate pairs skipped because their endpoints were co-clustered.
    short_circuited: int
    #: cluster id → golden record.
    golden: dict[str, Record]

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable summary (cluster content, not scores)."""
        return {
            "records": len(self.clustering.elements),
            "clusters": len(self.clustering),
            "cluster_sizes": {
                str(size): count
                for size, count in self.clustering.size_histogram().items()
            },
            "candidates": self.candidates,
            "engine_calls": self.engine_calls,
            "short_circuited": self.short_circuited,
            "matches": sum(1 for d in self.decisions if d.match),
        }


def resolve_blocking(
    engine: MatchingEngine,
    blocking: BlockingResult,
    mode: str = "transitive",
    min_agreement: float = 0.5,
    chunk_size: int = 32,
    short_circuit: bool = True,
    must_link: Iterable[tuple[str, str]] = (),
    cannot_link: Iterable[tuple[str, str]] = (),
) -> ResolutionReport:
    """Resolve a blocker's candidate stream into entity clusters.

    Candidates are decided in sorted (left_index, right_index) order —
    the exact order :meth:`MatchingEngine.match_blocking` uses — so with
    ``short_circuit=False`` the engine sees a pair-for-pair identical
    workload.  The final clustering is rebuilt from the collected
    decisions via :func:`~repro.resolve.clusterer.cluster`, so the on-line
    union-find here is *only* a short-circuiting aid.
    """
    if mode not in ("transitive", "correlation"):
        raise ValueError(f"unknown resolution mode {mode!r}")
    must = tuple(sorted({tuple(sorted(p)) for p in must_link}))
    cannot = tuple(sorted({tuple(sorted(p)) for p in cannot_link}))
    elements: list[str] = []
    records: dict[str, Record] = {}
    for side, side_records in (("L", blocking.left), ("R", blocking.right)):
        for record in side_records:
            element = node_id(side, record)
            if element in records:
                raise ValueError(
                    f"duplicate record id {record.record_id!r} on side {side}"
                )
            records[element] = record
            elements.append(element)

    #: skipping is only sound for plain transitive closure.
    skipping = short_circuit and mode == "transitive" and not cannot
    online = UnionFind(elements)
    for a, b in must:
        online.union(a, b)

    decisions: list[PairDecision] = []
    engine_calls = 0
    short_circuited = 0
    pending: list[tuple[str, str]] = []

    def flush() -> None:
        nonlocal engine_calls
        if not pending:
            return
        results = engine.match_pairs(
            [
                (records[a].description, records[b].description)
                for a, b in pending
            ]
        )
        engine_calls += len(results)
        for (a, b), result in zip(pending, results):
            decisions.append(
                PairDecision(
                    left=a,
                    right=b,
                    match=result.decision,
                    score=decision_score(result),
                    source=result.source,
                )
            )
            if result.decision:
                online.union(a, b)
        pending.clear()

    for i, j in sorted(blocking.candidates):
        left = node_id("L", blocking.left[i])
        right = node_id("R", blocking.right[j])
        if skipping and online.connected(left, right):
            short_circuited += 1
            continue
        pending.append((left, right))
        if len(pending) >= chunk_size:
            flush()
    flush()

    clustering = cluster(mode, elements, decisions, must, cannot, min_agreement)
    return ResolutionReport(
        clustering=clustering,
        decisions=tuple(sorted(decisions, key=lambda d: (d.key, d.source))),
        candidates=len(blocking.candidates),
        engine_calls=engine_calls,
        short_circuited=short_circuited,
        golden=golden_records(clustering, records),
    )


# -------------------------------------------------- dedup splits as workloads


def split_records(split: Split) -> tuple[list[Record], list[Record]]:
    """The left/right record collections of a labelled split, deduplicated.

    Records are deduplicated by record id (first occurrence wins) so a
    split where one record participates in many pairs yields each record
    once per side — the dedup workload a blocker expects.
    """
    left: dict[str, Record] = {}
    right: dict[str, Record] = {}
    for pair in split.pairs:
        left.setdefault(pair.left.record_id, pair.left)
        right.setdefault(pair.right.record_id, pair.right)
    return list(left.values()), list(right.values())


def gold_clustering(split: Split) -> Clustering:
    """Ground-truth entity partition implied by a split's pair labels.

    Positive pairs are must-links; the gold clusters are their transitive
    closure over every record appearing in the split (records in no
    positive pair stay singletons).  Element ids use the same ``L:`` /
    ``R:`` namespacing as :func:`resolve_blocking`, so gold and predicted
    partitions cover identical element sets.
    """
    uf = UnionFind()
    for pair in split.pairs:
        left = f"L:{pair.left.record_id}"
        right = f"R:{pair.right.record_id}"
        uf.add(left)
        uf.add(right)
        if pair.label:
            uf.union(left, right)
    return Clustering.from_union_find(uf)
