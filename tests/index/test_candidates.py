"""MinHashCandidateIndex: the incremental predicate and its invariants."""

import numpy as np
import pytest

from repro.datasets.synthetic import synthetic_dedup_corpus
from repro.index import MinHashCandidateIndex, MinHashBlocker, rank_candidates


def _index(**kwargs):
    kwargs.setdefault("bands", 32)
    kwargs.setdefault("rows", 3)
    return MinHashCandidateIndex(**kwargs)


def _corpus(n=120, seed=11):
    return synthetic_dedup_corpus(n, seed=seed)


class TestAdd:
    def test_duplicate_id_rejected(self):
        index = _index()
        index.add("a", "acme widget")
        with pytest.raises(ValueError, match="already indexed"):
            index.add("a", "acme widget")

    @pytest.mark.parametrize("first", ["!!!", "acme widget"])
    @pytest.mark.parametrize("second", ["...", "acme widget"])
    def test_duplicate_id_rejected_with_or_without_tokens(self, first, second):
        index = _index()
        index.add("a", first)
        before = index.snapshot_state()
        with pytest.raises(ValueError, match="already indexed"):
            index.add("a", second)
        with pytest.raises(ValueError, match="already indexed"):
            index.add_many([("a", second)])
        assert len(index) == 1
        assert index.snapshot_state() == before

    def test_token_less_records_are_unindexable(self):
        index = _index()
        index.add("empty", "!!! ...")
        index.add("real", "acme widget")
        assert index.unindexable == 1
        assert len(index) == 2
        assert index.signature_of("empty") is None
        # A token-less record never blocks with anything — including
        # another token-less record (no degenerate universal bucket).
        assert index.candidates("??? !!!") == ()

    def test_len_counts_everything(self):
        index = _index()
        for i, description in enumerate(["acme widget", "zenix gadget", "..."]):
            index.add(f"r{i}", description)
        assert len(index) == 3


class TestPredicate:
    def test_near_duplicates_are_candidates(self):
        index = _index()
        index.add("a", "acme widget pro 64gb black edition")
        index.add("b", "acme widget pro 64gb black")
        assert "b" in index.candidates(
            "acme widget pro 64gb black edition", exclude="a"
        )

    def test_exclude_drops_self(self):
        index = _index()
        index.add("a", "acme widget pro")
        found = index.candidates("acme widget pro", exclude="a")
        assert "a" not in found

    def test_candidates_sorted(self):
        index = _index()
        for record_id in ("r3", "r1", "r2"):
            index.add(record_id, "acme widget pro 64gb")
        found = index.candidates("acme widget pro 64gb")
        assert list(found) == sorted(found)

    def test_predicate_is_symmetric_over_a_corpus(self):
        """a sees b iff b sees a — the order-invariance prerequisite."""
        corpus = _corpus()
        index = _index(min_similarity=0.35)
        by_id = {record.record_id: record for record in corpus.records}
        for record in corpus.records:
            index.add(record.record_id, record.description)
        for record in corpus.records:
            for other in index.candidates(
                record.description, exclude=record.record_id
            ):
                assert record.record_id in index.candidates(
                    by_id[other].description, exclude=other
                )

    def test_min_similarity_floor_filters(self):
        loose = _index(min_similarity=0.0)
        tight = _index(min_similarity=0.9)
        for index in (loose, tight):
            index.add("a", "acme widget pro 64gb black")
            index.add("b", "acme widget lite 32gb")
        probe = "acme widget pro 64gb black"
        assert "b" in loose.candidates(probe, exclude="a")
        assert "b" not in tight.candidates(probe, exclude="a")

    def test_min_similarity_validation(self):
        with pytest.raises(ValueError, match="min_similarity"):
            _index(min_similarity=1.5)

    def test_bands_rows_must_come_together(self):
        with pytest.raises(ValueError, match="bands/rows"):
            MinHashCandidateIndex(bands=32)


class _CountingHasher:
    """Counts calls through ``MinHasher.signature``, the one-record path.

    ``add`` and ``candidates`` sign one description at a time; only ``add_many`` and ``restore_state`` go through the
    batch ``signatures``, and these tests call neither.
    """

    def __init__(self, index):
        self.calls = 0
        self._signature = index.hasher.signature
        index.hasher.signature = self

    def __call__(self, tokens):
        self.calls += 1
        return self._signature(tokens)


class TestSignatureReuse:
    def test_add_then_query_hashes_once_with_unchanged_answers(self):
        corpus = _corpus()
        index = _index(min_similarity=0.35)
        twin = _index(min_similarity=0.35)
        hashed = _CountingHasher(index)
        for n, record in enumerate(corpus.records, start=1):
            index.add(record.record_id, record.description)
            found = index.candidates(record.description, exclude=record.record_id)
            assert hashed.calls == n
            twin.add(record.record_id, record.description)
            twin.candidates("unrelated probe text")  # a different last hash
            assert found == twin.candidates(
                record.description, exclude=record.record_id
            )

    def test_a_different_description_is_hashed(self):
        corpus = _corpus(40)
        index = _index()
        for record in corpus.records:
            index.add(record.record_id, record.description)
        hashed = _CountingHasher(index)
        index.add("new", "acme widget pro 64gb black")
        probe = "acme widget pro 64gb black edition"
        found = index.candidates(probe)
        assert hashed.calls == 2
        assert "new" in found
        fresh = _index()
        for record in corpus.records:
            fresh.add(record.record_id, record.description)
        fresh.add("new", "acme widget pro 64gb black")
        assert found == fresh.candidates(probe)


class TestTopCandidates:
    @staticmethod
    def _assert_reference_ranking(index, items):
        """Rankings equal :func:`rank_candidates` over brute-force buckets.

        Two records collide iff their band keys share a key.
        """
        signatures = {
            record_id: index.signature_of(record_id) for record_id, _ in items
        }
        keys = {
            record_id: set(index.banding.band_keys(signature))
            for record_id, signature in signatures.items()
        }
        ranked = 0
        for record_id, _ in items[:25]:
            found = sorted(
                other
                for other in keys
                if other != record_id and keys[other] & keys[record_id]
            )
            expected = rank_candidates(
                signatures[record_id],
                [(other, signatures[other]) for other in found],
                k=5,
                min_similarity=index.min_similarity,
            )
            assert index.top_candidates(record_id, k=5) == expected
            ranked += len(expected)
        assert ranked > 0

    def test_matches_rank_candidates_contract(self):
        """The matrix-backed ranking equals the reference implementation."""
        items = [(r.record_id, r.description) for r in _corpus().records]
        index = _index(min_similarity=0.2)
        for record_id, description in items:
            index.add(record_id, description)
        self._assert_reference_ranking(index, items)

    def test_columnar_tier_matches_rank_candidates_contract(self):
        """The same contract when ``add_many`` posts every record."""
        items = [(r.record_id, r.description) for r in _corpus().records]
        index = _index(min_similarity=0.2)
        index.add_many(items)
        self._assert_reference_ranking(index, items)

    def test_unknown_record_is_empty(self):
        assert _index().top_candidates("ghost") == ()

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            _index().top_candidates("a", k=0)


class TestStats:
    def test_snapshot_shape(self):
        index = _index()
        index.add("a", "acme widget")
        index.add("b", "...")
        stats = index.stats()
        assert stats["records"] == 2
        assert stats["indexed"] == 1
        assert stats["unindexable"] == 1
        assert stats["bands"] == 32 and stats["rows"] == 3
        assert stats["postings"] == 32  # one signature, one posting per band

    def test_signature_of_returns_a_copy(self):
        index = _index()
        index.add("a", "acme widget")
        signature = index.signature_of("a")
        signature[:] = 0
        assert not np.array_equal(index.signature_of("a"), signature)


class TestBlocker:
    def test_blocks_near_duplicate_pairs(self):
        from repro.datasets.schema import Record

        def rec(record_id, description):
            return Record(
                record_id=record_id,
                attributes={"title": description},
                description=description,
            )

        left = [
            rec("0", "acme widget pro 64gb"),
            rec("1", "zenix gadget mini red"),
        ]
        right = [
            rec("0", "acme widget pro 64gb black"),
            rec("1", "zenix gadget mini"),
            rec("2", "wholly unrelated thing"),
        ]
        result = MinHashBlocker(k=2, threshold=0.3).block(left, right)
        assert (0, 0) in result.candidates
        assert (1, 1) in result.candidates
        assert all(j != 2 for _, j in result.candidates)

    def test_deterministic(self):
        corpus = _corpus(n=60)
        records = list(corpus.records)
        left, right = records[:30], records[30:]
        first = MinHashBlocker(k=5, threshold=0.3).block(left, right)
        second = MinHashBlocker(k=5, threshold=0.3).block(left, right)
        assert first.candidates == second.candidates

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            MinHashBlocker(k=0)
        with pytest.raises(ValueError, match="bands/rows"):
            MinHashBlocker(bands=8)
