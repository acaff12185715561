"""Seeded MinHash signatures over record token sets.

A MinHash signature compresses a token set into ``num_perm`` 64-bit
minima such that the probability two signatures agree at any one
position equals the Jaccard similarity of the underlying sets — so the
fraction of agreeing positions is an unbiased Jaccard estimate with
standard error ``sqrt(J(1-J)/num_perm)``.

Permutations are the classic multiply-shift family ``h_i(x) = a_i*x +
b_i (mod 2**64)`` with odd ``a_i``, derived deterministically from an
explicit seed via :func:`repro._util.derive_rng` (the ``unseeded-rng``
lint rule holds over this package); token base hashes come from
:func:`repro._util.stable_hash`, never the salted builtin ``hash``.
Signatures are therefore bit-identical across processes and platforms.

An **empty token set has no signature** (``signature`` returns
``None``): hashing nothing would give every token-less record the same
constant signature and fuse them all into one universal LSH bucket —
exactly the degenerate blocking bucket the tokenization contract
forbids (see :func:`repro.blocking.token.blocking_tokens`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as np

from repro._util import derive_rng, stable_hash

__all__ = ["MinHasher", "estimated_jaccard", "exact_jaccard"]

#: token columns per multiply-shift block (~3 MB of scratch at 96 perms).
_BLOCK_COLUMNS = 4096


class MinHasher:
    """Computes ``num_perm``-wide MinHash signatures for token sets.

    Instances memoize token base hashes (the blake2b call is the per-
    token cost; corpora reuse a bounded vocabulary), so one hasher
    should be shared across a whole ingestion.  Two hashers with the
    same ``(num_perm, seed)`` produce identical signatures.
    """

    def __init__(self, num_perm: int = 128, seed: int = 0) -> None:
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        rng = derive_rng(seed, "index", "minhash", num_perm)
        # Odd multipliers + offsets, one (num_perm, 1) column each.
        # uint64 arithmetic wraps mod 2**64, which is the hash family.
        self._a = (
            rng.integers(0, 2**62, size=(num_perm, 1), dtype=np.uint64)
            * np.uint64(2)
            + np.uint64(1)
        )
        self._b = rng.integers(0, 2**62, size=(num_perm, 1), dtype=np.uint64)
        self._token_hashes: dict[str, int] = {}

    def _token_hash(self, token: str) -> int:
        cached = self._token_hashes.get(token)
        if cached is None:
            cached = stable_hash("minhash-token", token)
            self._token_hashes[token] = cached
        return cached

    def _product(self, column: np.ndarray) -> np.ndarray:
        """The ``(columns, num_perm)`` hashes of a token-hash *column*."""
        product = column[:, np.newaxis] * self._a.T
        product += self._b.T
        return product

    def signature(self, tokens: Iterable[str]) -> np.ndarray | None:
        """MinHash signature of the distinct *tokens*, or None if empty.

        The result is a ``(num_perm,)`` uint64 array; token order (and
        multiplicity) never affects it.  The same arithmetic as
        :meth:`signatures`, pinned by test: one product and one column
        minimum, without the batch's blocks and set boundaries (this is
        the live-ingest path, one record at a time).
        """
        distinct = set(tokens)
        if not distinct:
            return None
        column = np.fromiter(
            (self._token_hash(t) for t in distinct),
            dtype=np.uint64,
            count=len(distinct),
        )
        return self._product(column).min(axis=0)

    def signatures(
        self, token_lists: Iterable[Iterable[str]]
    ) -> tuple[np.ndarray, list[int]]:
        """Signatures of many token sets in one pass.

        Returns ``(matrix, signed)``: ``signed`` lists the input
        positions that have at least one token, in input order, and row
        ``i`` of the ``(len(signed), num_perm)`` uint64 *matrix* is the
        signature of input ``signed[i]``.  Token-less inputs get no row.

        Every set's token hashes are laid end to end in one column
        vector; each block of at most :data:`_BLOCK_COLUMNS` columns
        takes one contiguous ``(columns, num_perm)`` multiply-shift
        product and one ``np.minimum.reduceat`` down the set boundaries
        inside it, which yields the block's signature rows directly.
        A set cut by a block edge keeps the minimum of its two parts,
        so the result does not depend on the blocking, and scratch
        memory stays bounded however many sets come in.
        """
        signed: list[int] = []
        starts: list[int] = []
        hashes: list[int] = []
        for position, tokens in enumerate(token_lists):
            distinct = set(tokens)
            if distinct:
                signed.append(position)
                starts.append(len(hashes))
                hashes.extend(self._token_hash(t) for t in distinct)
        column = np.fromiter(hashes, dtype=np.uint64, count=len(hashes))
        blocks: list[np.ndarray] = []
        first = 0
        for low in range(0, len(hashes), _BLOCK_COLUMNS):
            high = low + _BLOCK_COLUMNS
            # Sets [first, last) have columns in this block; the first
            # one carries over when it began in an earlier block.
            last = bisect_left(starts, high, first)
            cuts = [start - low for start in starts[first:last]]
            carried = cuts[0] < 0
            cuts[0] = 0
            minima = np.minimum.reduceat(
                self._product(column[low:high]), cuts, axis=0
            )
            if carried:
                np.minimum(minima[0], blocks[-1][-1], out=minima[0])
                blocks[-1] = blocks[-1][:-1]
            blocks.append(minima)
            first = bisect_right(starts, high, first) - 1
        if not blocks:
            return np.empty((0, self.num_perm), dtype=np.uint64), signed
        if len(blocks) == 1:
            return blocks[0], signed
        return np.concatenate(blocks), signed


def estimated_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of agreeing signature positions (unbiased Jaccard estimate)."""
    if a.shape != b.shape:
        raise ValueError(
            f"signature widths differ: {a.shape} vs {b.shape}"
        )
    return float((a == b).mean())


def exact_jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Exact Jaccard similarity of two token sets (1.0 for two empties)."""
    set_a, set_b = set(a), set(b)
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union
