"""Tests for the incremental ResolutionStore.

The engine is backed by :class:`tests.engine.doubles.ParityBackend` — a
deterministic pure function of the prompt — so every assertion about
order invariance is exercised against a model whose answer is *not*
symmetric in (left, right): exactly the property the store's canonical
pair orientation must neutralize.
"""

import shutil

import pytest

from repro._util import derive_rng
from repro.datasets.schema import Record
from repro.engine import MatchingEngine
from repro.engine.engine import MatchResult
from repro.faults import synthetic_records
from repro.faults.journal import JournalWriter
from repro.resolve import (
    ResolutionStore,
    TokenCandidateIndex,
    decision_score,
)

from tests.engine.doubles import JaccardBackend, ParityBackend

GROUPS = ("alpha", "bravo", "carol", "delta")


def _records(n=16):
    """n records in 4 token groups, all sharing the token 'widget'."""
    return [
        Record(
            record_id=f"r{i:02d}",
            attributes={"group": GROUPS[i % 4]},
            description=f"widget {GROUPS[i % 4]} series model {i}",
        )
        for i in range(n)
    ]


def _store(**kwargs):
    kwargs.setdefault("chunk_size", 4)
    return ResolutionStore(MatchingEngine(backend=ParityBackend()), **kwargs)


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            _store(mode="agglomerative")

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_size"):
            _store(chunk_size=0)

    def test_duplicate_ingest_rejected(self):
        store = _store()
        record = _records(1)[0]
        store.ingest(record)
        with pytest.raises(ValueError, match="already ingested"):
            store.ingest(record)


class TestIngestion:
    def test_membership_and_results(self):
        store = _store()
        records = _records(6)
        results = store.ingest_all(records)
        assert len(store) == 6
        assert "r03" in store and "r99" not in store
        assert store.records() == tuple(records)
        for result, record in zip(results, records):
            assert result.record_id == record.record_id
            cluster = store.clustering().cluster_of(record.record_id)
            assert store._cluster_of(record.record_id) == (
                cluster[0], len(cluster)
            )
        # The reported cluster id is the canonical min member.
        last = results[-1]
        assert last.cluster_id == min(
            store.clustering().cluster_of(last.record_id)
        )

    def test_every_candidate_pair_is_decided_exactly_once(self):
        store = _store(short_circuit=False)
        store.ingest_all(_records(8))
        # All 8 records share 'widget', so every unordered pair is a
        # candidate; each must appear once in the decision log.
        keys = [d.key for d in store.decisions()]
        assert len(keys) == len(set(keys)) == 8 * 7 // 2
        assert store.engine_calls == 28

    @pytest.mark.parametrize("order_seed", range(5))
    def test_insertion_order_invariance(self, order_seed):
        records = _records(14)
        reference = _store(short_circuit=False)
        reference.ingest_all(records)

        shuffled = list(records)
        derive_rng(4242, "ingest-order", order_seed).shuffle(shuffled)
        store = _store(short_circuit=False)
        store.ingest_all(shuffled)

        assert store.clustering() == reference.clustering()
        assert store.decisions() == reference.decisions()
        assert store.golden_records() == reference.golden_records()

    @pytest.mark.parametrize("order_seed", range(3))
    def test_short_circuit_preserves_the_clustering(self, order_seed):
        records = list(_records(14))
        derive_rng(4243, "sc-order", order_seed).shuffle(records)
        exhaustive = _store(short_circuit=False)
        exhaustive.ingest_all(records)
        shortcut = _store(short_circuit=True)
        shortcut.ingest_all(records)

        assert shortcut.clustering() == exhaustive.clustering()
        assert shortcut.short_circuited > 0
        assert (
            shortcut.engine_calls + shortcut.short_circuited
            == exhaustive.engine_calls
        )


class TestIngestResultCluster:
    """``IngestResult.cluster_id``/``cluster_size`` read the live component."""

    @staticmethod
    def _stream(seed, n=60):
        """Records over four small vocabularies, so clusters chain and merge."""
        rng = derive_rng(seed, "ingest-result-stream")
        records = []
        for i in range(n):
            family = int(rng.integers(4))
            vocab = [f"f{family}t{j}" for j in range(8)]
            records.append(Record(
                record_id=f"s{int(rng.integers(10_000)):04d}-{i:03d}",
                attributes={},
                description=" ".join(rng.choice(vocab, size=4, replace=False)),
            ))
        return records

    @pytest.mark.parametrize("seed", range(4))
    def test_cluster_fields_equal_the_component(self, seed):
        store = ResolutionStore(
            MatchingEngine(backend=JaccardBackend(threshold=0.5)), chunk_size=4
        )
        records = self._stream(seed)
        store.add_must_link(records[-1].record_id, records[0].record_id)
        sizes = set()
        for record in records:
            result = store.ingest(record)
            component = store._uf.component_of(record.record_id)
            assert result.cluster_id == component[0]
            assert result.cluster_size == len(component)
            assert component == store.clustering().cluster_of(record.record_id)
            sizes.add(result.cluster_size)
        assert len(sizes) > 2  # the stream grew clusters of several sizes


class _CountingIndex(TokenCandidateIndex):
    """Token index that counts ``candidates`` calls per probe description."""

    def __init__(self) -> None:
        super().__init__()
        self.queries: dict[str, int] = {}

    def candidates(self, description, exclude=None):
        self.queries[description] = self.queries.get(description, 0) + 1
        return super().candidates(description, exclude=exclude)


class TestIndexQueries:
    def test_one_query_per_ingest_below_chunk_size(self):
        index = _CountingIndex()
        store = _store(index=index, chunk_size=32, short_circuit=False)
        records = _records(16)
        store.ingest_all(records)
        # Record i has i candidates, all fewer than chunk_size.
        assert index.queries == {r.description: 1 for r in records}
        assert store.engine_calls == 16 * 15 // 2

    def test_one_query_per_ingest_with_short_circuiting(self):
        """Both rounds of representative-first scoring share one scan."""
        index = _CountingIndex()
        store = _store(index=index, chunk_size=32, short_circuit=True)
        records = _records(16)
        store.ingest_all(records)
        assert store.short_circuited > 0
        assert index.queries == {r.description: 1 for r in records}
        assert store.engine_calls + store.short_circuited == 16 * 15 // 2

    def test_a_scan_cut_at_chunk_size_is_resumed(self):
        index = _CountingIndex()
        store = _store(index=index, chunk_size=4, short_circuit=False)
        records = _records(16)
        store.ingest_all(records)
        # Record i's i candidates take ceil(i / 4) chunks, all drawn from
        # one scan: no record arrives meanwhile, so a re-scan finds nothing.
        assert index.queries == {r.description: 1 for r in records}
        keys = [d.key for d in store.decisions()]
        assert len(keys) == len(set(keys)) == 16 * 15 // 2


class _ArrivalEngine:
    """Engine whose first ``match_pairs`` call ingests one more record.

    The nested ingest starts while the store is deciding another
    record's chunk: a second writer inside the first.
    """

    def __init__(self, arrival: Record) -> None:
        self.inner = MatchingEngine(backend=JaccardBackend())
        self.arrival: Record | None = arrival
        self.store: ResolutionStore | None = None

    def match_pairs(self, pairs):
        if self.arrival is not None:
            arrival, self.arrival = self.arrival, None
            self.store.ingest(arrival)
        return self.inner.match_pairs(pairs)


class _FailingOnceEngine:
    """Engine whose *fail_at*-th ``match_pairs`` call raises."""

    def __init__(self, fail_at: int) -> None:
        self.inner = MatchingEngine(backend=ParityBackend())
        self.fail_at = fail_at
        self.calls = 0

    def match_pairs(self, pairs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ConnectionError("engine unavailable")
        return self.inner.match_pairs(pairs)


class TestOneWriter:
    @pytest.mark.parametrize("fail_at", [1, 6, 7])
    def test_a_retried_ingest_resumes_its_record(
        self, tmp_path, fail_at
    ):
        """The retry decides what recovery from the same journal decides."""
        records = synthetic_records(12)
        path = tmp_path / "live.jsonl"
        copy = tmp_path / "copy.jsonl"
        store = ResolutionStore(
            _FailingOnceEngine(fail_at), journal=path, chunk_size=2
        )
        for i, record in enumerate(records):
            try:
                store.ingest(record)
            except ConnectionError:
                break
        else:
            pytest.fail("the engine never failed")
        failed = records[i]
        shutil.copy(path, copy)
        renamed = Record(record_id=failed.record_id, attributes={},
                         description="something else")
        with pytest.raises(ValueError, match="already ingested"):
            store.ingest(renamed)
        store.ingest(failed)  # the retry resumes the record
        with pytest.raises(ValueError, match="already ingested"):
            store.ingest(failed)  # now committed
        for record in records[i + 1:]:
            store.ingest(record)
        store.close()

        with ResolutionStore.recover(
            copy, MatchingEngine(backend=ParityBackend()), chunk_size=2
        ) as recovered:
            for record in records[i + 1:]:
                recovered.ingest(record)
        assert store.clustering() == recovered.clustering()
        assert store.decision_log() == recovered.decision_log()
        assert store._committed == recovered._committed == {
            r.record_id for r in records
        }
        assert (store.engine_calls, store.short_circuited) == (
            recovered.engine_calls, recovered.short_circuited
        )
        assert path.read_bytes() == copy.read_bytes()

    def test_a_reentrant_ingest_raises(self):
        early = [
            Record(record_id=f"e{i}", attributes={},
                   description=f"widget {group} series")
            for i, group in enumerate(GROUPS[:2])
        ]
        arrival = Record(record_id="a", attributes={},
                         description="widget delta series")
        engine = _ArrivalEngine(arrival)
        store = ResolutionStore(engine, short_circuit=False)
        engine.store = store
        store.ingest(early[0])  # no candidates yet, so no engine call
        with pytest.raises(RuntimeError, match="one writer"):
            store.ingest(early[1])
        # The nested ingest touched nothing, and the store takes the
        # next write once the failed one has unwound.
        assert "a" not in store
        assert store._index.candidates(arrival.description) == ("e0", "e1")
        assert store.ingest(arrival).candidates == 2

    def test_a_closed_journaled_store_refuses_writes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        records = _records(3)
        store = _store(journal=path)
        store.ingest_all(records[:2])
        store.close()
        journal = path.read_bytes()
        with pytest.raises(ValueError, match="closed"):
            store.ingest(records[2])
        with pytest.raises(ValueError, match="closed"):
            store.add_must_link("r00", "r01")
        assert store.records() == tuple(records[:2])
        assert store.must_link == ()
        assert path.read_bytes() == journal
        assert len(store.clustering().elements) == 2  # reads still work

    def test_a_failed_record_append_leaves_the_store_untouched(
        self, tmp_path, monkeypatch
    ):
        records = _records(4)
        clean_path = tmp_path / "clean.jsonl"
        with _store(journal=clean_path) as clean:
            clean.ingest_all(records)
        path = tmp_path / "wal.jsonl"
        store = _store(journal=path)
        store.ingest_all(records[:2])
        append = JournalWriter.append
        failed = []

        def append_failing_once(writer, entry):
            if entry["type"] == "record" and not failed:
                failed.append(entry["record_id"])
                raise OSError("no space left on device")
            append(writer, entry)

        monkeypatch.setattr(JournalWriter, "append", append_failing_once)
        with pytest.raises(OSError):
            store.ingest(records[2])
        assert failed == ["r02"]
        assert "r02" not in store
        assert store._index.candidates(records[2].description) == (
            "r00", "r01"
        )
        store.ingest_all(records[2:])  # the retry goes through
        store.close()
        assert path.read_bytes() == clean_path.read_bytes()


class TestConstraintsAndModes:
    def test_must_link_joins_token_disjoint_records(self):
        a = Record(record_id="a", attributes={}, description="red apple")
        b = Record(record_id="b", attributes={}, description="blue bicycle")
        store = _store(must_link=[("a", "b")])
        store.ingest(a)
        store.ingest(b)
        assert store.clustering().cluster_of("a") == ("a", "b")

    def test_cannot_link_disables_short_circuit_and_separates(self):
        store = _store(cannot_link=[("r00", "r04")])
        assert store.short_circuit is False
        store.ingest_all(_records(8))
        assignments = store.clustering().assignments()
        assert assignments["r00"] != assignments["r04"]

    def test_correlation_mode_never_short_circuits(self):
        store = _store(mode="correlation")
        assert store.short_circuit is False
        store.ingest_all(_records(8))
        assert store.short_circuited == 0
        assert len(store.clustering().elements) == 8


class TestTokenCandidateIndex:
    def test_min_shared_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenCandidateIndex(min_shared=0)

    def test_candidates_sorted_and_thresholded(self):
        index = TokenCandidateIndex(min_shared=2)
        index.add("x", "widget alpha series")
        index.add("y", "widget bravo series")
        index.add("z", "gadget bravo lineup")
        # 'widget series' shared with x and y; only one token with z.
        assert index.candidates("widget charlie series") == ("x", "y")

    def test_exclude_drops_the_probe_itself(self):
        index = TokenCandidateIndex()
        index.add("x", "widget alpha")
        assert index.candidates("widget alpha", exclude="x") == ()


class TestDecisionScore:
    @pytest.mark.parametrize(
        "source,score",
        [("backend", 1.0), ("cache", 1.0), ("fallback", 0.5)],
    )
    def test_source_weights(self, source, score):
        result = MatchResult(
            left="a", right="b", response="Yes.", decision=True, source=source
        )
        assert decision_score(result) == score
