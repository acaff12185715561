"""Scalable candidate generation: MinHash signatures, LSH banding,
band-bucket postings, and top-k ranking by estimated Jaccard.

The layer between records and the matching engine (DESIGN.md §17):

    tokens ──MinHasher──▶ signature ──LSHBanding──▶ band keys
           ──postings map──▶ colliding candidates
           ──rank_candidates──▶ top-k by estimated Jaccard

Entry points:

* :class:`MinHashCandidateIndex` — the incremental
  :class:`CandidateIndex` :class:`~repro.resolve.incremental
  .ResolutionStore` ingests through (order-invariant pairwise
  predicate, no top-k);
* :class:`MinHashBlocker` — the batch :class:`Blocker` for
  :func:`~repro.resolve.pipeline.resolve_blocking` and the CLI
  (top-k candidate sets, O(k·n) instead of quadratic);
* ``repro-em index`` / ``benchmarks/bench_blocking_scale.py`` — recall
  vs candidate-set size reporting over one shared code path
  (:func:`repro.blocking.base.recall_curve`).
"""

from repro.index.blocker import MinHashBlocker
from repro.index.candidates import MinHashCandidateIndex
from repro.index.lsh import (
    LSHBanding,
    collision_probability,
    solve_banding,
    threshold_at,
)
from repro.index.minhash import MinHasher, estimated_jaccard, exact_jaccard
from repro.index.protocol import Blocker, CandidateIndex
from repro.index.topk import RankedCandidate, rank_candidates

__all__ = [
    "Blocker",
    "CandidateIndex",
    "LSHBanding",
    "MinHashBlocker",
    "MinHashCandidateIndex",
    "MinHasher",
    "RankedCandidate",
    "collision_probability",
    "estimated_jaccard",
    "exact_jaccard",
    "rank_candidates",
    "solve_banding",
    "threshold_at",
]
