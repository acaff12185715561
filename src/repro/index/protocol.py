"""Candidate-generation interfaces.

Two shapes cover every blocking strategy in the library:

* :class:`Blocker` — the **batch** interface: two full record
  collections in, a :class:`~repro.blocking.base.BlockingResult` out.
  :class:`~repro.blocking.token.TokenBlocker`,
  :class:`~repro.blocking.embedding.EmbeddingBlocker` and
  :class:`~repro.index.blocker.MinHashBlocker` all implement it
  structurally.

* :class:`CandidateIndex` — the **incremental** interface
  :class:`~repro.resolve.incremental.ResolutionStore` ingests through:
  records arrive one at a time; ``candidates`` must be a *pairwise
  symmetric* predicate of the two records alone (never a function of
  what else is indexed — no frequency pruning, no top-k), because that
  is exactly what makes the store's candidate edge set — and therefore
  its clustering — insertion-order invariant.

``CandidateIndex`` is a plain base class rather than a
``typing.Protocol`` because it carries code: it supplies ``add_many``
as a loop of ``add``, and implementations subclass it.  An index takes
no lock; its one caller is a store's one writer.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.blocking.base import BlockingResult
from repro.datasets.schema import Record

__all__ = ["Blocker", "CandidateIndex"]


class Blocker(Protocol):
    """Batch candidate generation over two record collections."""

    def block(
        self, left: list[Record], right: list[Record]
    ) -> BlockingResult:
        """Produce candidate pairs between two record collections."""
        ...


class CandidateIndex:
    """Incremental candidate generation for online ingestion.

    The contract (relied on by ``ResolutionStore``):

    * ``add`` indexes one record's description; ``add_many`` indexes a
      batch and must leave the state a loop of ``add`` would (the store
      replays a journal through it);
    * ``candidates`` returns the **sorted** ids of already-indexed
      records that are candidates for *description*, excluding
      ``exclude``;
    * candidacy is symmetric and pairwise — whether two records are
      candidates depends only on those two records, so any insertion
      order yields the same candidate edge set over a full ingestion;
    * a description with no tokens has no blocking key: it is never a
      candidate for anything (including other token-less records).
    """

    def add(self, record_id: str, description: str) -> None:
        """Index one record's description."""
        raise NotImplementedError

    def add_many(self, items: Iterable[tuple[str, str]]) -> None:
        """Index ``(record_id, description)`` pairs in order."""
        for record_id, description in items:
            self.add(record_id, description)

    def candidates(
        self, description: str, exclude: str | None = None
    ) -> tuple[str, ...]:
        """Sorted ids of indexed records that are candidates for this one."""
        raise NotImplementedError
