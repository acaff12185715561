"""Bulk insertion: ``add_many`` leaves the state a loop of ``add`` would.

Journal replay and snapshot restore build the MinHash index in one bulk
pass (one signing call, one band-key matrix, one matrix growth).  These
properties pin that pass to the per-record path it replaces:

* signatures and band keys equal a transcription of the per-record
  implementations the bulk forms replaced;
* an index fed by ``add_many`` answers every query, snapshots and
  reports exactly like one fed record by record — across the 256-row
  matrix growth boundary and the 4,096-column signing block;
* a batch with a duplicate id raises before any state changes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import derive_rng
from repro.index import LSHBanding, MinHashCandidateIndex, MinHasher

VOCAB = [f"w{i:03d}" for i in range(240)]
TOKEN_LESS = ("", "!!! ...", "--- ???")


def reference_signature(hasher, tokens):
    """The per-record MinHash signature, as first implemented."""
    distinct = set(tokens)
    if not distinct:
        return None
    hashes = np.fromiter(
        (hasher._token_hash(t) for t in sorted(distinct)),
        dtype=np.uint64,
        count=len(distinct),
    )
    return (hasher._a * hashes[np.newaxis, :] + hasher._b).min(axis=1)


def reference_band_keys(banding, signature):
    """The per-record band keys, as first implemented."""
    mixed = (
        banding._coefficients * signature.reshape(banding.bands, banding.rows)
    ).sum(axis=1, dtype=np.uint64) + banding._offsets
    return tuple(mixed.tolist())


def _description(rng, earlier, wide):
    """One description: token-less, a repeat, wide, or a short phrase."""
    draw = rng.random()
    if wide:
        width = int(rng.integers(1500, 2600))
        offset = int(rng.integers(0, 10_000))
        return " ".join(f"x{offset + j}" for j in range(width))
    if draw < 0.1:
        return TOKEN_LESS[int(rng.integers(len(TOKEN_LESS)))]
    if draw < 0.25 and earlier:
        return earlier[int(rng.integers(len(earlier)))]
    words = rng.choice(VOCAB, size=int(rng.integers(1, 9)), replace=True)
    return " ".join(str(w) for w in words)


@st.composite
def batches(draw):
    """(prefix, batch) of (id, description) pairs with unique ids."""
    seed = draw(st.integers(0, 2**32 - 1))
    prefix_size = draw(st.sampled_from([0, 1, 200, 255, 256]))
    batch_size = draw(st.sampled_from([0, 1, 2, 57, 255, 256, 257, 600]))
    wide = draw(st.sets(st.integers(0, max(batch_size - 1, 0)), max_size=3))
    rng = derive_rng(seed, "index-bulk-test")
    earlier: list[str] = []
    records = []
    for n in range(prefix_size + batch_size):
        description = _description(rng, earlier, n - prefix_size in wide)
        earlier.append(description)
        records.append((f"r{n:04d}", description))
    return records[:prefix_size], records[prefix_size:]


def _index(min_similarity):
    return MinHashCandidateIndex(bands=32, rows=3, min_similarity=min_similarity)


def _state(index):
    return json.dumps(index.snapshot_state(), sort_keys=True), index.stats()


class TestSigningAndBanding:
    @given(
        st.lists(
            st.one_of(
                st.lists(st.sampled_from(VOCAB), max_size=10),
                st.integers(3000, 5000).map(
                    lambda n: [f"x{j}" for j in range(n)]
                ),
            ),
            max_size=12,
        ),
        st.sampled_from([(32, 3), (16, 4), (1, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_forms_equal_the_per_record_transcription(
        self, token_lists, shape
    ):
        bands, rows = shape
        hasher = MinHasher(num_perm=bands * rows, seed=7)
        banding = LSHBanding(bands, rows, seed=7)
        matrix, signed = hasher.signatures(token_lists)
        expected = [reference_signature(hasher, t) for t in token_lists]
        assert signed == [i for i, s in enumerate(expected) if s is not None]
        assert matrix.shape == (len(signed), bands * rows)
        assert matrix.dtype == np.uint64
        for row, position in enumerate(signed):
            np.testing.assert_array_equal(matrix[row], expected[position])
            np.testing.assert_array_equal(
                hasher.signature(token_lists[position]), expected[position]
            )
        key_rows = banding.band_key_rows(matrix)
        assert len(key_rows) == len(signed)
        for row in range(len(signed)):
            reference = reference_band_keys(banding, matrix[row])
            assert tuple(key_rows[row]) == reference
            assert banding.band_keys(matrix[row]) == reference


class TestAddManyEqualsAddLoop:
    @given(batches(), st.sampled_from([0.0, 0.35]))
    @settings(max_examples=25, deadline=None)
    def test_same_state_and_answers(self, records, min_similarity):
        prefix, batch = records
        bulk = _index(min_similarity)
        loop = _index(min_similarity)
        for record_id, description in prefix:
            bulk.add(record_id, description)
            loop.add(record_id, description)
        bulk.add_many(batch)
        for record_id, description in batch:
            loop.add(record_id, description)

        assert _state(bulk) == _state(loop)
        assert len(bulk) == len(loop) == len(prefix) + len(batch)
        for record_id, description in (*prefix, *batch):
            assert bulk.candidates(description, exclude=record_id) == (
                loop.candidates(description, exclude=record_id)
            )
            assert bulk.top_candidates(record_id) == loop.top_candidates(
                record_id
            )

    @given(batches())
    @settings(max_examples=10, deadline=None)
    def test_restore_state_rebuilds_the_same_index(self, records):
        prefix, batch = records
        source = _index(0.35)
        source.add_many([*prefix, *batch])
        restored = _index(0.35)
        restored.restore_state(source.snapshot_state())
        assert _state(restored) == _state(source)
        for record_id, description in batch:
            assert restored.candidates(description, exclude=record_id) == (
                source.candidates(description, exclude=record_id)
            )


class TestDuplicateIds:
    @pytest.mark.parametrize(
        "batch",
        [
            [("a", "acme widget"), ("b", "zenix gadget"), ("a", "acme")],
            [("a", "!!!"), ("a", "!!!")],
            [("c", "acme widget pro"), ("seen", "zenix")],
        ],
    )
    def test_raise_before_any_state_changes(self, batch):
        index = _index(0.35)
        index.add("seen", "acme widget pro 64gb")
        index.add("blank", "...")
        before = _state(index)
        with pytest.raises(ValueError, match="already indexed"):
            index.add_many(batch)
        assert _state(index) == before
        assert len(index) == 2
        assert index.candidates("acme widget", exclude="seen") == ()
