"""Reference resolver: decide every candidate pair, then close transitively.

The arbiter for stores that decide only some of their candidate pairs.
It shares no decision logic with :mod:`repro.resolve`: the candidate
pairs come from one fully built index (the predicate is a symmetric
function of two records, so insertion order cannot matter), every pair
is asked once in canonical (sorted id) orientation, and the clusters are
the connected components of the positive pairs plus the must-links.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.datasets.schema import Record
from repro.engine import MatchingEngine
from repro.index.protocol import CandidateIndex


def candidate_pairs(
    records: Sequence[Record], index: CandidateIndex
) -> list[tuple[str, str]]:
    """Sorted canonical pairs of *index*'s predicate over *records*."""
    index.add_many((r.record_id, r.description) for r in records)
    pairs = {
        tuple(sorted((record.record_id, other)))
        for record in records
        for other in index.candidates(record.description, record.record_id)
    }
    return sorted(pairs)


def reference_clusters(
    records: Sequence[Record],
    index: CandidateIndex,
    oracle: Callable[[], MatchingEngine],
    must_link: Iterable[tuple[str, str]] = (),
) -> tuple[tuple[str, ...], ...]:
    """Transitive closure of every candidate pair *oracle* calls a match."""
    text = {r.record_id: r.description for r in records}
    pairs = candidate_pairs(records, index)
    answers = oracle().match_pairs([(text[a], text[b]) for a, b in pairs])
    parent = {record_id: record_id for record_id in text}

    def root(node: str) -> str:
        while parent[node] != node:
            node = parent[node]
        return node

    edges = [p for p, a in zip(pairs, answers) if a.decision]
    for a, b in [*edges, *must_link]:
        parent[max(root(a), root(b))] = min(root(a), root(b))
    groups: dict[str, list[str]] = {}
    for record_id in text:
        groups.setdefault(root(record_id), []).append(record_id)
    return tuple(
        sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    )
