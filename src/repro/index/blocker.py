"""Batch MinHash/LSH blocking with per-record top-k ranking.

Implements the :class:`~repro.index.protocol.Blocker` shape over the
index subsystem: each collection is signed in one bulk pass, the right
one is banded into a band-bucket postings map, every left record probes
it, and the colliding candidates are ranked by estimated Jaccard with
only the top *k* kept.  Unlike the incremental path, a rank cut-off is
sound here — the candidate set is a deterministic function of the two
full collections — and it is what makes the candidate set size
O(k · |left|) instead of quadratic.
"""

from __future__ import annotations

from repro.blocking.base import BlockingResult
from repro.blocking.token import blocking_tokens
from repro.datasets.schema import Record
from repro.index.lsh import LSHBanding, add_postings, colliding_ids
from repro.index.minhash import MinHasher
from repro.index.topk import rank_candidates

__all__ = ["MinHashBlocker"]


class MinHashBlocker:
    """Keep, per left record, the top-*k* band-colliding right records.

    ``k=None`` keeps every collision at or above ``min_similarity``.
    Banding comes from an explicit ``(bands, rows)`` or the solver at
    ``(num_perm, threshold)``; everything is seeded, so two runs block
    identically.
    """

    def __init__(
        self,
        k: int | None = 10,
        num_perm: int = 128,
        threshold: float = 0.5,
        bands: int | None = None,
        rows: int | None = None,
        seed: int = 0,
        min_similarity: float = 0.0,
    ) -> None:
        if k is not None and k <= 0:
            raise ValueError("k must be positive (or None for no cut-off)")
        if (bands is None) != (rows is None):
            raise ValueError("pass both of bands/rows, or neither")
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError("min_similarity must be in [0, 1]")
        self.k = k
        self.min_similarity = min_similarity
        self.seed = seed
        if bands is not None and rows is not None:
            self.banding = LSHBanding(bands, rows)
        else:
            self.banding = LSHBanding.from_threshold(num_perm, threshold)

    def block(
        self, left: list[Record], right: list[Record]
    ) -> BlockingResult:
        """Produce candidate pairs between two record collections."""
        hasher = MinHasher(num_perm=self.banding.num_perm, seed=self.seed)
        right_matrix, right_signed = hasher.signatures(
            blocking_tokens(record.description) for record in right
        )
        # Zero-padded ids sort lexicographically like integers, so the
        # deterministic tie-break ranks equal-similarity candidates by
        # their position in the right collection.
        width = len(str(max(len(right) - 1, 0)))
        names = [f"{j:0{width}d}" for j in right_signed]
        signatures = dict(zip(names, right_matrix))
        postings: dict[int, list[str]] = {}
        add_postings(postings, names, self.banding.band_key_rows(right_matrix))
        left_matrix, left_signed = hasher.signatures(
            blocking_tokens(record.description) for record in left
        )
        candidates: set[tuple[int, int]] = set()
        for i, signature, keys in zip(
            left_signed, left_matrix, self.banding.band_key_rows(left_matrix)
        ):
            found = colliding_ids(postings, keys)
            ranked = rank_candidates(
                signature,
                [(name, signatures[name]) for name in found],
                k=self.k,
                min_similarity=self.min_similarity,
            )
            for entry in ranked:
                candidates.add((i, int(entry.record_id)))
        return BlockingResult(
            tuple(left), tuple(right), frozenset(candidates)
        )
