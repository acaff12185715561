"""Bulk insertion: ``add_many`` leaves the state a loop of ``add`` would.

Journal replay and snapshot restore build the MinHash index in one bulk
pass (one signing call, one band-key matrix, one matrix growth).  These
properties pin that pass to the per-record path it replaces:

* signatures and band keys equal a transcription of the per-record
  implementations the bulk forms replaced;
* an index fed by ``add_many`` answers every query, snapshots and
  reports exactly like one fed record by record — across the 256-row
  matrix growth boundary and the 4,096-column signing block;
* an index whose postings sit in both tiers (live ``add`` before and
  after ``add_many``, two ``add_many`` calls, ``restore_state`` then
  live adds) answers exactly like one fed record by record;
* a batch with a duplicate id raises before any state changes.

Live ingest signs and mixes one record without the batch machinery,
floors by an agreement count, and answers the query right after ``add``
from the buckets ``add`` walked; more properties pin those:

* the one-row signature and band keys equal the batch row and the
  per-record transcription, bit for bit;
* the agreement-count floor keeps exactly the counts the float
  ``mean >= min_similarity`` test keeps;
* queries interleaved with live adds, bulk calls, restores, token-less
  adds and probes answer like a fresh index and like brute force over
  band overlap.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import derive_rng
from repro.blocking.token import blocking_tokens
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
    prefix = _records(rng, prefix_size, 0, earlier)
    return prefix, _records(rng, batch_size, prefix_size, earlier, wide)


def _records(rng, count, first, earlier, wide=()):
    """*count* (id, description) pairs, ids from ``r{first:04d}`` on.

    Appends each description to *earlier*, the pool repeats draw from.
    """
    records = []
    for n in range(first, first + count):
        description = _description(rng, earlier, n - first in wide)
        earlier.append(description)
        records.append((f"r{n:04d}", description))
    return records


@st.composite
def tiered(draw):
    """Three record segments, each with the call that indexes it."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = [draw(st.sampled_from([0, 1, 57, 256, 257])) for _ in range(3)]
    calls = [
        draw(st.sampled_from(["add", "add_many", "restore"])),
        draw(st.sampled_from(["add", "add_many"])),
        draw(st.sampled_from(["add", "add_many"])),
    ]
    wide = draw(st.sets(st.integers(0, max(sizes[1] - 1, 0)), max_size=2))
    rng = derive_rng(seed, "index-tier-test")
    earlier: list[str] = []
    segments = [
        _records(
            rng, size, sum(sizes[:position]), earlier,
            wide if position == 1 else (),
        )
        for position, size in enumerate(sizes)
    ]
    return list(zip(calls, segments))


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


    @given(
        st.one_of(
            st.lists(st.sampled_from(VOCAB[:6]), max_size=12),
            st.sampled_from(VOCAB).map(lambda token: [token]),
            st.integers(4090, 4200).map(lambda n: [f"x{j}" for j in range(n)]),
        ),
        st.sampled_from([(32, 3), (16, 4), (1, 7)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_row_forms_equal_the_batch_row(self, tokens, shape):
        bands, rows = shape
        hasher = MinHasher(num_perm=bands * rows, seed=5)
        banding = LSHBanding(bands, rows, seed=5)
        signature = hasher.signature(tokens)
        matrix, signed = hasher.signatures([tokens])
        expected = reference_signature(hasher, tokens)
        if expected is None:
            assert signature is None and signed == []
            return
        assert signature.dtype == np.uint64
        assert signature.shape == (bands * rows,)
        np.testing.assert_array_equal(signature, expected)
        np.testing.assert_array_equal(signature, matrix[0])
        keys = banding.band_keys(signature)
        matrix_keys = banding.band_key_matrix(signature[None])[0]
        assert list(keys) == matrix_keys.tolist()
        assert keys == reference_band_keys(banding, expected)


class TestFloorCount:
    @pytest.mark.parametrize("shape", [(32, 3), (16, 4), (1, 7), (7, 1)])
    def test_agreement_count_keeps_what_the_mean_keeps(self, shape):
        bands, rows = shape
        num_perm = bands * rows
        floors = [0.0, 0.35, 1 / 3, 0.5, 1.0]
        floors += [k / num_perm for k in range(num_perm + 1)]
        for min_similarity in floors:
            index = MinHashCandidateIndex(
                bands=bands, rows=rows, min_similarity=min_similarity
            )
            for count in range(num_perm + 1):
                agree = np.zeros(num_perm, dtype=bool)
                agree[:count] = True
                assert (count >= index._floor_agree) == (
                    agree.mean() >= min_similarity
                ) == (count / num_perm >= min_similarity)


class TestBlockEdges:
    @pytest.mark.parametrize(
        "sizes",
        [
            [4095, 1, 5],
            [4096, 3],
            [4097],
            [1, 4094, 2, 4096, 7],
            [9000, 1],
            [3, 4093, 4096, 4096],
        ],
    )
    def test_signatures_equal_the_reference_across_the_4096_column_edge(
        self, sizes
    ):
        hasher = MinHasher(num_perm=96, seed=3)
        offsets = np.cumsum([0, *sizes])
        token_lists = [
            [f"t{j}" for j in range(low, high)]
            for low, high in zip(offsets[:-1], offsets[1:])
        ]
        matrix, signed = hasher.signatures(token_lists)
        assert signed == list(range(len(sizes)))
        for row, tokens in enumerate(token_lists):
            np.testing.assert_array_equal(
                matrix[row], reference_signature(hasher, tokens)
            )


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


class TestMixedTiers:
    @given(tiered(), st.sampled_from([0.0, 0.35]))
    @settings(max_examples=30, deadline=None)
    def test_same_state_and_answers_as_an_add_loop(
        self, steps, min_similarity
    ):
        mixed = _index(min_similarity)
        loop = _index(min_similarity)
        for call, segment in steps:
            if call == "restore":
                source = _index(min_similarity)
                source.add_many(segment)
                mixed.restore_state(source.snapshot_state())
            elif call == "add_many":
                mixed.add_many(segment)
            else:
                for record_id, description in segment:
                    mixed.add(record_id, description)
            for record_id, description in segment:
                loop.add(record_id, description)

        assert _state(mixed) == _state(loop)
        records = [record for _, segment in steps for record in segment]
        assert len(mixed) == len(loop) == len(records)
        for record_id, description in records:
            assert mixed.candidates(description, exclude=record_id) == (
                loop.candidates(description, exclude=record_id)
            )
            assert mixed.top_candidates(record_id) == loop.top_candidates(
                record_id
            )


class TestTokenLessIdsSurviveRestore:
    def test_restored_index_rejects_a_token_less_id(self):
        index = _index(0.35)
        index.add("blank", "!!!")
        index.add("a", "acme widget")
        restored = _index(0.35)
        restored.restore_state(index.snapshot_state())
        for description in ("...", "acme widget pro"):
            with pytest.raises(ValueError, match="already indexed"):
                restored.add("blank", description)
        assert _state(restored) == _state(index)

    def test_snapshot_without_token_less_records_has_no_id_list(self):
        index = _index(0.35)
        index.add("a", "acme widget")
        assert set(index.snapshot_state()) == {
            "ids", "signatures", "unindexable"
        }


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


def reference_candidates(hasher, banding, indexed, description, exclude,
                         min_similarity):
    """Brute force: ids that share a band key and pass the float floor.

    *indexed* lists the (id, description) pairs in the index.
    """
    signature = reference_signature(hasher, blocking_tokens(description))
    if signature is None:
        return ()
    keys = set(reference_band_keys(banding, signature))
    found = []
    for record_id, other in indexed:
        other_signature = reference_signature(hasher, blocking_tokens(other))
        if (
            record_id != exclude
            and other_signature is not None
            and keys & set(reference_band_keys(banding, other_signature))
            and (other_signature == signature).mean() >= min_similarity
        ):
            found.append(record_id)
    return tuple(sorted(found))


#: what happens between a live ``add`` and the query for its description.
BETWEEN = (
    None, "readd", "token-less", "probe", "add_many", "restore",
)


@st.composite
def live_mixes(draw):
    """A bulk prefix, then (between, exclude) steps around live adds."""
    seed = draw(st.integers(0, 2**32 - 1))
    bulk = draw(st.sampled_from(["add", "add_many", "restore"]))
    prefix_size = draw(st.sampled_from([0, 1, 57, 257]))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(BETWEEN),
                st.sampled_from(["own", "other", None]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return seed, bulk, prefix_size, steps


class TestLiveQueries:
    """Queries interleaved with ``add`` answer like a fresh index."""

    @given(live_mixes(), st.sampled_from([0.0, 0.35, 1 / 3]))
    @settings(max_examples=30, deadline=None)
    def test_answers_equal_a_fresh_index_and_brute_force(
        self, mix, min_similarity
    ):
        seed, bulk, prefix_size, steps = mix
        rng = derive_rng(seed, "index-live-test")
        earlier: list[str] = []

        def fresh_records(count):
            return _records(rng, count, len(earlier), earlier)

        index = _index(min_similarity)
        indexed = fresh_records(prefix_size)
        if bulk == "add_many":
            index.add_many(indexed)
        elif bulk == "restore":
            source = _index(min_similarity)
            source.add_many(indexed)
            index.restore_state(source.snapshot_state())
        else:
            for record_id, description in indexed:
                index.add(record_id, description)

        for between, exclude in steps:
            (record_id, description), = fresh_records(1)
            saved = (index.snapshot_state(), list(indexed))
            index.add(record_id, description)
            indexed.append((record_id, description))
            if between == "readd":
                record_id = f"{record_id}-again"
                index.add(record_id, description)
                indexed.append((record_id, description))
            elif between == "token-less":
                blank = (f"{record_id}-blank", TOKEN_LESS[1])
                index.add(*blank)
                indexed.append(blank)
            elif between == "probe":
                index.candidates(f"{description} zz-probe")
            elif between == "add_many":
                batch = fresh_records(3)
                index.add_many(batch)
                indexed.extend(batch)
            elif between == "restore":
                snapshot, indexed = saved
                index.restore_state(snapshot)
            if exclude == "own":
                exclude = record_id
            elif exclude == "other" and indexed:
                exclude = indexed[int(rng.integers(len(indexed)))][0]
            elif exclude == "other":
                # A restore to an empty prefix leaves no other id.
                exclude = None

            found = index.candidates(description, exclude=exclude)
            fresh = _index(min_similarity)
            for other_id, other in indexed:
                fresh.add(other_id, other)
            fresh.candidates("zz unrelated probe")
            assert found == fresh.candidates(description, exclude=exclude)
            assert found == reference_candidates(
                index.hasher, index.banding, indexed, description,
                exclude, min_similarity,
            )
