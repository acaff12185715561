"""MinHash/LSH incremental candidate index for online ingestion.

The pipeline per record: tokenize (blocking tokens) → MinHash signature
→ LSH band keys → band-bucket postings.  The candidate predicate served
to :class:`~repro.resolve.incremental.ResolutionStore` is

    *candidates iff the two records share at least one band bucket and
    their estimated Jaccard is at least* ``min_similarity``,

which is a symmetric function of **the two records alone** — band keys
and signatures are pure functions of each record's token set — so over
a full ingestion the candidate edge set is identical for every
insertion order, exactly the invariant the store's 5-shuffle tests pin.
That is also why :meth:`candidates` never applies top-k: a rank cut-off
would make candidacy depend on what else was indexed at query time.
Top-k ranking lives on :meth:`top_candidates` (reporting, benchmarks)
and on the batch :class:`~repro.index.blocker.MinHashBlocker`, where the
candidate set is a deterministic function of the full collections.

Signatures are stored in one contiguous ``(capacity, num_perm)`` uint64
matrix (at least doubling growth), so evaluating the similarity floor —
or a ranking — over a query's band collisions is a single fancy-indexed
numpy comparison rather than a per-candidate dict walk; at 100k records
a query touches ~1000 collisions and this is the difference between
microseconds and milliseconds.

Records enter one at a time through :meth:`add` (live ingestion) or
many at once through :meth:`add_many` (journal replay) and
:meth:`restore_state` (snapshot restore): one signing pass over the
batch, one band-key matrix, one matrix growth.  Both paths grow the
signature matrix through the same helper; they differ in where the band
keys are posted (below), so a batch answers every query exactly as a
loop of ``add`` would.

The store queries a record's candidates right after adding it, so the
index keeps the last description it hashed beside its signature and
band keys and reuses both when the same description comes back: a live
ingest signs and mixes each record once, through the one-record forms
:meth:`~repro.index.minhash.MinHasher.signature` and
:meth:`~repro.index.lsh.LSHBanding.band_keys`.  A live :meth:`add` also
puts in the slot its row and the buckets it joined that held earlier
rows, found in the same loop that appends the row to each of its band
buckets, so the query that follows unions those lists and looks up no
key again.  The slot keeps the lists, not a copy of their rows, so an
``add`` no query follows pays nothing per bucket mate.  Every signed
``add`` rewrites the slot, and every bulk call clears what it met, so
the slot always matches the live tier; any other query looks its keys
up.  The slot holds one entry, never a memo that grows; signature and
keys are pure functions of the description, so every caller gets the
answer a fresh hash would.

The similarity floor is an agreement count: ``min_similarity`` becomes
the least number of agreeing signature positions ``c`` with
``c / num_perm >= min_similarity``, the same float test a ``mean`` of
the agreements makes, so a query keeps exactly the rows the mean
would.

Postings map a band key to the signature rows in that bucket, in two
tiers chosen by the call, not by size:

* the **live tier**, a plain ``dict`` from band key to a list of rows,
  takes :meth:`add` — one short list append per band;
* the **columnar tier**, two parallel arrays of band keys and rows
  sorted by (key, row), takes :meth:`add_many` and
  :meth:`restore_state` — one stable argsort per bulk call instead of
  one dict insert per band key (a second bulk call re-sorts the
  concatenation; that happens only during recovery).

A query unions the rows found in the dict with those
``np.searchsorted`` finds in the arrays, evaluates the similarity floor
on those rows directly, and maps only the survivors to ids, so a
bucket's order never shows: :meth:`candidates` returns sorted distinct
ids.  The index is not locked: the store guards it, like
:class:`~repro.resolve.incremental.TokenCandidateIndex`.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

import numpy as np

from repro.blocking.token import blocking_tokens
from repro.index.lsh import LSHBanding, merge_segment, segment_rows
from repro.index.minhash import MinHasher
from repro.index.protocol import CandidateIndex
from repro.index.topk import RankedCandidate

__all__ = ["MinHashCandidateIndex"]

_INITIAL_CAPACITY = 256

#: (description, signature, band keys, rows a live add met): see
#: ``MinHashCandidateIndex._last``.
_Slot = tuple[
    str, "np.ndarray | None", tuple[int, ...], "list[Sequence[int]] | None"
]


class MinHashCandidateIndex(CandidateIndex):
    """Incremental MinHash/LSH candidate generation.

    Either pass an explicit ``(bands, rows)`` banding or let the solver
    pick one for ``(num_perm, threshold)``.  ``min_similarity`` adds a
    signature-level similarity floor on top of the band-collision
    predicate (still pairwise symmetric); 0.0 means pure banding.
    """

    def __init__(
        self,
        num_perm: int = 128,
        threshold: float = 0.5,
        bands: int | None = None,
        rows: int | None = None,
        seed: int = 0,
        min_similarity: float = 0.0,
    ) -> None:
        if (bands is None) != (rows is None):
            raise ValueError("pass both of bands/rows, or neither")
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError("min_similarity must be in [0, 1]")
        if bands is not None and rows is not None:
            self.banding = LSHBanding(bands, rows)
        else:
            self.banding = LSHBanding.from_threshold(num_perm, threshold)
        self.hasher = MinHasher(num_perm=self.banding.num_perm, seed=seed)
        self.min_similarity = min_similarity
        width = self.banding.num_perm
        #: least count of agreeing signature positions that passes the
        #: floor: ``c / width >= min_similarity`` is the float test
        #: ``mean`` makes, and it is monotone in ``c``.
        self._floor_agree = next(
            c for c in range(width + 1) if c / width >= min_similarity
        )
        #: live tier: band key -> rows in that bucket, in insertion order.
        self._postings: dict[int, list[int]] = {}
        #: columnar tier: band keys and rows, sorted by (key, row).
        self._segment_keys = np.empty(0, dtype=np.uint64)
        self._segment_rows = np.empty(0, dtype=np.intp)
        self._row: dict[str, int] = {}
        #: row -> id, the inverse of ``_row``.
        self._ids: list[str] = []
        self._matrix = np.empty(
            (_INITIAL_CAPACITY, self.banding.num_perm), dtype=np.uint64
        )
        self._count = 0
        #: records indexed with an empty token set (no blocking key).
        self.unindexable = 0
        #: ids of those records.
        self._unsigned: set[str] = set()
        #: (description, signature, band keys, met) of the last
        #: description hashed; keys are empty for a token-less
        #: description.  ``met`` is set by a live :meth:`add` of it:
        #: the row it got, as a one-row tuple, then the live buckets it
        #: joined that held earlier rows.  Buckets only grow by appends
        #: and every signed add rewrites the slot, so until then those
        #: lists hold exactly the rows a bucket walk would find.
        self._last: _Slot | None = None

    def __len__(self) -> int:
        return self._count + self.unindexable

    def _hashed(self, description: str) -> _Slot:
        """The slot of *description*, reusing the last one."""
        last = self._last
        if last is not None and last[0] == description:
            return last
        signature = self.hasher.signature(blocking_tokens(description))
        keys = () if signature is None else self.banding.band_keys(signature)
        self._last = (description, signature, keys, None)
        return self._last

    def _check_fresh(
        self, record_id: str, batch: Collection[str] = ()
    ) -> None:
        """Reject an id already indexed, signed or not, or in *batch*."""
        if (
            record_id in self._row
            or record_id in self._unsigned
            or record_id in batch
        ):
            raise ValueError(f"record {record_id!r} already indexed")

    def add(self, record_id: str, description: str) -> None:
        """Index one record; token-less records get no blocking key."""
        self._check_fresh(record_id)
        _, signature, keys, _ = self._hashed(description)
        if signature is None:
            self._unsigned.add(record_id)
            self.unindexable += 1
            return
        row = self._count
        self._reserve(row + 1)
        self._matrix[row] = signature
        self._row[record_id] = row
        self._ids.append(record_id)
        self._count = row + 1
        # Post the row and keep the buckets it joined in one pass, so
        # the store's query right after this add looks up no key again.
        # Their rows are read only by that query: an add no query
        # follows costs nothing per bucket mate.
        met: list[Sequence[int]] = [(row,)]
        postings = self._postings
        for key in keys:
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = [row]
            else:
                bucket.append(row)
                met.append(bucket)
        self._last = (description, signature, keys, met)

    def add_many(self, items: Iterable[tuple[str, str]]) -> None:
        """Index ``(record_id, description)`` pairs in one bulk pass.

        Leaves the state a loop of :meth:`add` over *items* would.  Every
        id is checked first: a batch that repeats an id, or names one
        already indexed, raises before anything changes.
        """
        items = list(items)
        fresh: set[str] = set()
        for record_id, _ in items:
            self._check_fresh(record_id, fresh)
            fresh.add(record_id)
        matrix, signed = self.hasher.signatures(
            blocking_tokens(description) for _, description in items
        )
        signed_ids = [items[position][0] for position in signed]
        self._unsigned.update(fresh.difference(signed_ids))
        self.unindexable += len(items) - len(signed)
        self._append_segment(signed_ids, matrix)

    def _reserve(self, needed: int) -> None:
        """Grow the matrix (at least doubling) to hold *needed* rows."""
        if needed > len(self._matrix):
            grown = np.empty(
                (max(2 * len(self._matrix), needed), self.banding.num_perm),
                dtype=np.uint64,
            )
            grown[:self._count] = self._matrix[:self._count]
            self._matrix = grown

    def _append(self, ids: Sequence[str], signatures: np.ndarray) -> int:
        """Store *signatures* as the next rows; returns the first row."""
        count = self._count
        needed = count + len(ids)
        self._reserve(needed)
        self._matrix[count:needed] = signatures
        self._row.update(zip(ids, range(count, needed)))
        self._ids.extend(ids)
        self._count = needed
        return count

    def _append_segment(
        self, ids: Sequence[str], signatures: np.ndarray
    ) -> None:
        """Store *signatures* and post their keys to the columnar tier.

        The slot forgets what its ``add`` met: :meth:`restore_state`
        replaces the live tier's buckets before it.
        """
        if self._last is not None:
            self._last = (*self._last[:3], None)
        first = self._append(ids, signatures)
        if len(ids):
            self._segment_keys, self._segment_rows = merge_segment(
                self._segment_keys,
                self._segment_rows,
                self.banding.band_key_matrix(signatures),
                first,
            )

    def _colliding_rows(self, keys: Sequence[int]) -> set[int]:
        """Distinct rows sharing any of the band *keys*, in either tier."""
        postings = self._postings
        return self._rows_in([postings.get(key, ()) for key in keys], keys)

    def _rows_in(
        self, live: Iterable[Sequence[int]], keys: Sequence[int]
    ) -> set[int]:
        """Distinct rows in the *live* buckets and, under *keys*, in the
        columnar tier.
        """
        found: set[int] = set()
        for bucket in live:
            found.update(bucket)
        if len(self._segment_keys):
            found.update(
                segment_rows(self._segment_keys, self._segment_rows, keys)
            )
        return found

    def _floor_similarities(
        self, signature: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Estimated Jaccard of *signature* against each of *rows*."""
        return (
            (self._matrix[rows] == signature[np.newaxis, :])
            .mean(axis=1)
        )

    def candidates(
        self, description: str, exclude: str | None = None
    ) -> tuple[str, ...]:
        """Sorted ids sharing a band bucket (and the similarity floor).

        Right after a live :meth:`add` of *description*, the live rows
        are its own and those of the buckets it joined; any other query
        looks its keys up.
        """
        _, signature, keys, met = self._hashed(description)
        if signature is None:
            return ()
        found = (
            self._colliding_rows(keys) if met is None
            else self._rows_in(met, keys)
        )
        if exclude is not None:
            found.discard(self._row.get(exclude))
        if found and self._floor_agree:
            rows = np.fromiter(found, dtype=np.intp, count=len(found))
            # Summing the bools counts the agreeing positions: the count
            # ``np.count_nonzero(..., axis=1)`` gives, by a faster path.
            agree = (self._matrix[rows] == signature).sum(axis=1)
            found = rows[agree >= self._floor_agree].tolist()
        ids = self._ids
        return tuple(sorted([ids[row] for row in found]))

    def snapshot_state(self) -> dict:
        """JSON-ready live state (see :mod:`repro.resolve.snapshot`).

        Signatures serialize as plain int lists in row order; postings
        are *not* serialized — they are a pure function of the
        signatures and rebuild on restore.  The sorted ids of token-less
        records follow under ``unindexable_ids`` when there are any.
        """
        state: dict = {
            "ids": list(self._ids),
            "signatures": self._matrix[: self._count].tolist(),
            "unindexable": self.unindexable,
        }
        if self._unsigned:
            state["unindexable_ids"] = sorted(self._unsigned)
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild matrix, row map, and postings from snapshot state.

        The postings go to the columnar tier.
        """
        ids = [str(record_id) for record_id in state["ids"]]
        signatures = state["signatures"]
        if len(ids) != len(signatures):
            raise ValueError(
                f"snapshot row mismatch: {len(ids)} ids, "
                f"{len(signatures)} signatures"
            )
        self._matrix = np.empty(
            (_INITIAL_CAPACITY, self.banding.num_perm), dtype=np.uint64
        )
        self._row = {}
        self._ids = []
        self._count = 0
        self._postings = {}
        self._segment_keys = np.empty(0, dtype=np.uint64)
        self._segment_rows = np.empty(0, dtype=np.intp)
        self.unindexable = int(state.get("unindexable", 0))
        self._unsigned = {
            str(record_id) for record_id in state.get("unindexable_ids", ())
        }
        self._append_segment(
            ids,
            np.asarray(signatures, dtype=np.uint64).reshape(
                len(ids), self.banding.num_perm
            ),
        )

    def signature_of(self, record_id: str) -> np.ndarray | None:
        """The stored signature of an indexed record (None if token-less)."""
        row = self._row.get(record_id)
        if row is None:
            return None
        return self._matrix[row].copy()

    def top_candidates(
        self, record_id: str, k: int | None = None
    ) -> tuple[RankedCandidate, ...]:
        """Ranked candidates of an already-indexed record.

        Same ordering contract as :func:`repro.index.topk
        .rank_candidates` — similarity descending, record id ascending
        on ties — computed against the contiguous signature matrix.
        Reporting/benchmark path only: the incremental predicate never
        truncates by rank (see the module docstring).
        """
        if k is not None and k <= 0:
            raise ValueError("k must be positive (or None for no cut-off)")
        row = self._row.get(record_id)
        if row is None:
            return ()
        signature = self._matrix[row]
        found = self._colliding_rows(self.banding.band_keys(signature))
        found.discard(row)
        if not found:
            return ()
        rows = np.fromiter(found, dtype=np.intp, count=len(found))
        names = [self._ids[other] for other in rows.tolist()]
        similarities = self._floor_similarities(signature, rows)
        # lexsort's last key is primary: similarity descending, then
        # record id ascending.
        order = np.lexsort((np.array(names), -similarities))
        ranked = [
            RankedCandidate(names[i], float(similarities[i]))
            for i in order.tolist()
            if similarities[i] >= self.min_similarity
        ]
        if k is not None:
            ranked = ranked[:k]
        return tuple(ranked)

    def stats(self) -> dict[str, object]:
        """Index composition snapshot (banding, bucket fill).

        A bucket counts once however its postings split between the
        live and the columnar tier.
        """
        keys, counts = np.unique(self._segment_keys, return_counts=True)
        fill = dict(zip(keys.tolist(), counts.tolist()))
        for key, rows in self._postings.items():
            fill[key] = fill.get(key, 0) + len(rows)
        sizes = fill.values()
        return {
            "records": len(self),
            "indexed": self._count,
            "unindexable": self.unindexable,
            "num_perm": self.banding.num_perm,
            "bands": self.banding.bands,
            "rows": self.banding.rows,
            "min_similarity": self.min_similarity,
            "buckets": len(sizes),
            "postings": sum(sizes),
            "max_bucket": max(sizes, default=0),
        }
