"""ResolutionStore over MinHash blocking: order invariance, parity with
exhaustive resolution.

The shuffle tests mirror ``tests/resolve/test_incremental.py`` but swap
the injected candidate index for :class:`repro.index
.MinHashCandidateIndex` — the store's 5-shuffle invariant must hold for
*any* pairwise-symmetric predicate, and these tests pin that the
MinHash/LSH predicate actually is one.
"""

import pytest

from repro._util import derive_rng
from repro.datasets.synthetic import synthetic_dedup_corpus
from repro.engine import MatchingEngine
from repro.index import MinHashCandidateIndex
from repro.index.protocol import CandidateIndex
from repro.resolve import ResolutionStore

from tests.engine.doubles import JaccardBackend, ParityBackend


def _minhash_index():
    return MinHashCandidateIndex(bands=32, rows=3, min_similarity=0.35)


def _store(engine=None, **kwargs):
    kwargs.setdefault("chunk_size", 4)
    kwargs.setdefault("index", _minhash_index())
    if engine is None:
        engine = MatchingEngine(backend=ParityBackend())
    return ResolutionStore(engine, **kwargs)


def _records(n=40, seed=5):
    return list(synthetic_dedup_corpus(n, seed=seed).records)


class ExhaustiveIndex(CandidateIndex):
    """Every indexed record is a candidate — quadratic ground truth."""

    def __init__(self):
        self._ids = []

    def add(self, record_id, description):
        self._ids.append(record_id)

    def candidates(self, description, exclude=None):
        return tuple(sorted(i for i in self._ids if i != exclude))


class TestOrderInvariance:
    @pytest.mark.parametrize("order_seed", range(5))
    def test_insertion_order_invariance(self, order_seed):
        records = _records()
        reference = _store(short_circuit=False)
        reference.ingest_all(records)

        shuffled = list(records)
        derive_rng(4242, "minhash-ingest-order", order_seed).shuffle(shuffled)
        store = _store(short_circuit=False)
        store.ingest_all(shuffled)

        assert store.clustering() == reference.clustering()
        assert store.decisions() == reference.decisions()
        assert store.golden_records() == reference.golden_records()

    @pytest.mark.parametrize("order_seed", range(3))
    def test_short_circuit_preserves_the_clustering(self, order_seed):
        records = _records()
        derive_rng(4243, "minhash-sc-order", order_seed).shuffle(records)
        exhaustive = _store(short_circuit=False)
        exhaustive.ingest_all(records)
        shortcut = _store(short_circuit=True)
        shortcut.ingest_all(records)

        assert shortcut.clustering() == exhaustive.clustering()


class TestParityWithExhaustiveResolution:
    def test_minhash_blocking_reproduces_exhaustive_clustering(self):
        """On a small corpus the MinHash-blocked store's clustering is
        byte-identical to deciding every pair.

        The matcher is the Jaccard oracle (match iff overlap >= 0.5): a
        symmetric, deterministic function of the pair, so the only way
        the clusterings can differ is a positive edge the MinHash
        predicate failed to propose — the end-to-end acceptance bar for
        swapping the blocking backend under the store.
        """
        records = _records(n=60, seed=3)
        exhaustive = ResolutionStore(
            MatchingEngine(backend=JaccardBackend(threshold=0.5)),
            index=ExhaustiveIndex(), chunk_size=8, short_circuit=False,
        )
        exhaustive.ingest_all(records)

        blocked = ResolutionStore(
            MatchingEngine(backend=JaccardBackend(threshold=0.5)),
            index=MinHashCandidateIndex(bands=42, rows=3),
            chunk_size=8, short_circuit=False,
        )
        blocked.ingest_all(records)

        assert blocked.clustering() == exhaustive.clustering()
        # And it got there with strictly fewer engine decisions.
        assert blocked.engine_calls < exhaustive.engine_calls

    def test_min_shared_untouched_by_injection(self):
        """The default token index still honours min_shared."""
        store = ResolutionStore(MatchingEngine(backend=ParityBackend()))
        from repro.resolve import TokenCandidateIndex

        assert isinstance(store._index, TokenCandidateIndex)


class TestBandKeysPerIngest:
    @staticmethod
    def _count(monkeypatch, owner, name):
        """Count the calls through ``owner.name``; returns the tally."""
        calls = []
        method = getattr(owner, name)

        def counting(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_stream_ingest_mixes_one_band_key_row_per_record(
        self, monkeypatch
    ):
        """``add`` and the store's query after it hash and mix once."""
        from repro.index.lsh import LSHBanding
        from repro.index.minhash import MinHasher

        signed = self._count(monkeypatch, MinHasher, "signature")
        mixed = self._count(monkeypatch, LSHBanding, "band_keys")
        records = _records(100)
        _store(short_circuit=True).ingest_all(records)
        assert len(signed) / len(records) == 1.0
        assert len(mixed) / len(records) == 1.0

    def test_stream_ingest_looks_up_no_key_to_answer_its_query(
        self, monkeypatch
    ):
        """The store's query after ``add`` unions the buckets it joined."""
        walks = self._count(
            monkeypatch, MinHashCandidateIndex, "_colliding_rows"
        )
        results = _store(short_circuit=True).ingest_all(_records(100))
        assert sum(result.candidates for result in results) > 0
        assert walks == []
