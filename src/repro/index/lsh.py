"""LSH banding over MinHash signatures, with a banding-parameter solver.

Split a ``num_perm``-wide signature into ``bands`` bands of ``rows``
rows each; two records become candidates when **any** band hashes to the
same bucket.  For true Jaccard similarity *s* the collision probability
is the S-curve ``1 - (1 - s**rows)**bands``, which crosses 1/2 near the
characteristic threshold ``(1/bands)**(1/rows)`` — more rows per band
push the threshold up (stricter), more bands push it down (looser).

:func:`solve_banding` inverts that relationship: given a signature
budget and a target similarity threshold it picks the ``(bands, rows)``
grid point whose characteristic threshold lands closest to the target,
preferring parameterizations that use more of the signature (tighter
S-curve) on ties.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from repro._util import derive_rng

__all__ = [
    "LSHBanding",
    "add_postings",
    "colliding_ids",
    "collision_probability",
    "merge_segment",
    "segment_rows",
    "solve_banding",
    "threshold_at",
]

#: signature rows mixed per block in :meth:`LSHBanding.band_key_matrix`.
_BLOCK_ROWS = 4096

_Id = TypeVar("_Id")


def threshold_at(bands: int, rows: int) -> float:
    """Characteristic similarity threshold of a (bands, rows) banding."""
    if bands <= 0 or rows <= 0:
        raise ValueError("bands and rows must be positive")
    return (1.0 / bands) ** (1.0 / rows)


def collision_probability(similarity: float, bands: int, rows: int) -> float:
    """P(two records share >= 1 band bucket | Jaccard = *similarity*)."""
    if bands <= 0 or rows <= 0:
        raise ValueError("bands and rows must be positive")
    if not 0.0 <= similarity <= 1.0:
        raise ValueError("similarity must be in [0, 1]")
    return 1.0 - (1.0 - similarity**rows) ** bands


def solve_banding(num_perm: int, threshold: float) -> tuple[int, int]:
    """Choose (bands, rows) with ``bands*rows <= num_perm`` for *threshold*.

    Deterministic: among all row counts, minimize the distance between
    the banding's characteristic threshold and the target; break ties
    toward more permutations used (a sharper S-curve), then toward fewer
    rows (cheaper buckets).
    """
    if num_perm <= 0:
        raise ValueError("num_perm must be positive")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    best: tuple[float, int, int, int, int] | None = None
    for rows in range(1, num_perm + 1):
        bands = num_perm // rows
        if bands == 0:
            break
        score = (
            abs(threshold_at(bands, rows) - threshold),
            -(bands * rows),
            rows,
        )
        if best is None or score < best[:3]:
            best = (*score, bands, rows)
    assert best is not None  # num_perm >= 1 always yields a candidate
    return best[3], best[4]


class LSHBanding:
    """Maps signatures to per-band bucket keys.

    A bucket key mixes the band's signature rows through seeded
    per-(band, row) odd multipliers plus a per-band offset — one
    vectorized uint64 multiply/sum over the whole signature, no
    per-band hashing loop (this is the ingest hot path at 100k
    records).  Distinct bands use distinct coefficients, so equal
    value-slices in different bands do not collide; two *different*
    row vectors collide with probability ~2⁻⁶⁴.  Signatures must be
    exactly ``bands * rows`` wide.
    """

    def __init__(self, bands: int, rows: int, seed: int = 0) -> None:
        if bands <= 0 or rows <= 0:
            raise ValueError("bands and rows must be positive")
        self.bands = bands
        self.rows = rows
        self.seed = seed
        rng = derive_rng(seed, "index", "lsh", bands, rows)
        self._coefficients = (
            rng.integers(0, 2**62, size=(bands, rows), dtype=np.uint64)
            * np.uint64(2)
            + np.uint64(1)
        )
        self._offsets = rng.integers(
            0, 2**62, size=bands, dtype=np.uint64
        )

    @classmethod
    def from_threshold(
        cls, num_perm: int, threshold: float, seed: int = 0
    ) -> "LSHBanding":
        """Banding solved for a similarity threshold (see :func:`solve_banding`)."""
        bands, rows = solve_banding(num_perm, threshold)
        return cls(bands, rows, seed=seed)

    @property
    def num_perm(self) -> int:
        """Signature width this banding consumes."""
        return self.bands * self.rows

    def _mix(self, bands: np.ndarray) -> np.ndarray:
        """Band keys of ``(..., bands, rows)`` signature values."""
        return (self._coefficients * bands).sum(
            axis=-1, dtype=np.uint64
        ) + self._offsets

    def band_keys(self, signature: np.ndarray) -> tuple[int, ...]:
        """One bucket key per band for *signature*.

        The same arithmetic as :meth:`band_key_matrix`, pinned by test,
        on one signature without the batch's blocks (the live-ingest
        path).
        """
        if signature.size != self.num_perm:
            raise ValueError(
                f"signature width {signature.shape} != "
                f"bands*rows = {self.num_perm}"
            )
        return tuple(
            self._mix(signature.reshape(self.bands, self.rows)).tolist()
        )

    def band_key_rows(self, signatures: np.ndarray) -> list[list[int]]:
        """One list of band keys per row of a ``(n, num_perm)`` matrix."""
        return self.band_key_matrix(signatures).tolist()

    def band_key_matrix(self, signatures: np.ndarray) -> np.ndarray:
        """The ``(n, bands)`` uint64 band keys of a ``(n, num_perm)`` matrix.

        Rows are mixed :data:`_BLOCK_ROWS` at a time, so the uint64
        scratch stays bounded for any *n*.
        """
        if signatures.ndim != 2 or signatures.shape[1] != self.num_perm:
            raise ValueError(
                f"signature width {signatures.shape} != "
                f"bands*rows = {self.num_perm}"
            )
        keys = np.empty((len(signatures), self.bands), dtype=np.uint64)
        for low in range(0, len(signatures), _BLOCK_ROWS):
            block = signatures[low:low + _BLOCK_ROWS]
            keys[low:low + len(block)] = self._mix(
                block.reshape(len(block), self.bands, self.rows)
            )
        return keys


def add_postings(
    postings: dict[int, list[_Id]],
    ids: Sequence[_Id],
    key_rows: Sequence[Sequence[int]],
) -> None:
    """Append each id to the bucket of every one of its band keys."""
    for record_id, keys in zip(ids, key_rows):
        for key in keys:
            posting = postings.get(key)
            if posting is None:
                postings[key] = [record_id]
            else:
                posting.append(record_id)


def colliding_ids(
    postings: dict[int, list[str]], keys: Sequence[int]
) -> list[str]:
    """Sorted distinct ids in any of the *keys* buckets."""
    found: set[str] = set()
    for key in keys:
        found.update(postings.get(key, ()))
    return sorted(found)


def merge_segment(
    keys: np.ndarray, rows: np.ndarray, key_matrix: np.ndarray, first_row: int
) -> tuple[np.ndarray, np.ndarray]:
    """A columnar posting segment with *key_matrix*'s postings merged in.

    A segment is two parallel arrays, uint64 band keys and row numbers,
    sorted by (key, row).  Row ``i`` of *key_matrix* is row
    ``first_row + i``, above every row already in the segment, so one
    stable argsort of the concatenated keys keeps each bucket in row
    order.
    """
    count, bands = key_matrix.shape
    keys = np.concatenate((keys, key_matrix.ravel()))
    rows = np.concatenate(
        (rows, np.repeat(np.arange(first_row, first_row + count), bands))
    )
    order = np.argsort(keys, kind="stable")
    return keys[order], rows[order]


def segment_rows(
    keys: np.ndarray, rows: np.ndarray, query: Sequence[int]
) -> list[int]:
    """Rows of a columnar segment posted under any of the *query* keys."""
    query = np.asarray(query, dtype=np.uint64)
    found: list[int] = []
    for low, high in zip(
        np.searchsorted(keys, query, side="left").tolist(),
        np.searchsorted(keys, query, side="right").tolist(),
    ):
        if high > low:
            found.extend(rows[low:high].tolist())
    return found
