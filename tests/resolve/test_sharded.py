"""Sharded ResolutionStore: routing, shard-count invariance, kill/resume.

The load-bearing claim is **K shards ≡ 1 shard ≡ unsharded**: clustering
and golden records must be byte-identical for every shard count and
insertion order, including runs where shards die and resume mid-ingest.
The engine is deterministic (parity of the prompt hash), so any drift
would be the sharding layer's fault.
"""

import pytest

from repro.engine import MatchingEngine
from repro.engine.retry import RetryPolicy
from repro.faults import ParityBackend, synthetic_records
from repro.faults.harness import resolution_snapshot
from repro.index import MinHashCandidateIndex
from repro.resolve import ResolutionStore, TokenCandidateIndex
from repro.resolve.sharded import (
    ShardedResolutionStore,
    route_record,
    shard_journal_path,
)


def make_engine(seed=0):
    return MatchingEngine(
        backend=ParityBackend(), retry=RetryPolicy(timeout=1.0, seed=seed)
    )


def unsharded_reference(records):
    with ResolutionStore(make_engine()) as store:
        store.ingest_all(records)
        return resolution_snapshot(store)


def global_view(store):
    """The sharded analogue of ``resolution_snapshot`` minus decisions.

    Shard decision logs may legitimately differ from the unsharded log
    (short-circuiting fires at different moments); the byte-identity
    claim is over what consumers observe — clustering and goldens.
    """
    return {
        "clusters": [list(c) for c in store.clustering().clusters],
        "golden": {
            cid: record.description
            for cid, record in sorted(store.golden_records().items())
        },
    }


class TestRouting:
    def test_owners_cover_blocking_keys(self):
        router = TokenCandidateIndex()
        for record in synthetic_records(20):
            owners = route_record(record, 4, router)
            assert owners == tuple(sorted(set(owners)))
            assert all(0 <= o < 4 for o in owners)
            expected = {k % 4 for k in router.blocking_keys(record.description)}
            assert set(owners) == expected

    def test_keyless_record_gets_one_durability_shard(self):
        from repro.datasets.schema import Record

        router = TokenCandidateIndex()
        record = Record(record_id="x1", attributes={}, description="")
        owners = route_record(record, 4, router)
        assert len(owners) == 1
        # Routing is a pure function: same record, same home shard.
        assert owners == route_record(record, 4, router)

    def test_candidate_pairs_co_occur_in_some_shard(self):
        # The correctness keystone: any pair the index would surface must
        # share at least one owner shard, for every shard count.
        router = TokenCandidateIndex()
        records = synthetic_records(30)
        for shards in (2, 3, 4, 7):
            owners = {
                r.record_id: set(route_record(r, shards, router))
                for r in records
            }
            with ResolutionStore(make_engine(), short_circuit=False) as ref:
                ref.ingest_all(records)
                for decision in ref.decisions():
                    assert owners[decision.left] & owners[decision.right], (
                        f"candidate pair {decision.key} split across "
                        f"disjoint shards at K={shards}"
                    )


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_clustering_identical_for_every_shard_count(
        self, tmp_path, shards
    ):
        records = synthetic_records(30)
        reference = unsharded_reference(records)
        with ShardedResolutionStore(
            make_engine(), tmp_path / f"k{shards}", shards=shards
        ) as store:
            store.ingest_all(records)
            view = global_view(store)
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]

    def test_insertion_order_invariant(self, tmp_path):
        records = synthetic_records(24)
        reference = unsharded_reference(records)
        reordered = list(reversed(records))
        with ShardedResolutionStore(
            make_engine(), tmp_path / "rev", shards=4
        ) as store:
            store.ingest_all(reordered)
            view = global_view(store)
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]

    def test_minhash_index_factory(self, tmp_path):
        records = synthetic_records(24)

        def factory():
            return MinHashCandidateIndex(num_perm=32, threshold=0.3)

        with ResolutionStore(make_engine(), index=factory()) as ref_store:
            ref_store.ingest_all(records)
            reference = resolution_snapshot(ref_store)
        with ShardedResolutionStore(
            make_engine(), tmp_path / "mh", shards=4, index_factory=factory
        ) as store:
            store.ingest_all(records)
            view = global_view(store)
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]


class TestLifecycle:
    def test_shards_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ShardedResolutionStore(make_engine(), tmp_path, shards=0)

    def test_engine_count_must_match_shards(self, tmp_path):
        with pytest.raises(ValueError, match="engines"):
            ShardedResolutionStore(
                [make_engine(), make_engine()], tmp_path, shards=4
            )

    def test_ingest_is_idempotent_per_shard(self, tmp_path):
        records = synthetic_records(8)
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=3
        ) as store:
            store.ingest_all(records)
            before = global_view(store)
            store.ingest(records[0])  # re-ingest: skipped on every owner
            assert global_view(store) == before

    def test_stats_report_per_shard_counters(self, tmp_path):
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=3
        ) as store:
            store.ingest_all(synthetic_records(12))
            stats = store.stats()
            assert stats["shards"] == 3
            assert stats["records"] == 12
            assert stats["dead_shards"] == []
            assert len(stats["per_shard"]) == 3
            assert sum(s["records"] for s in stats["per_shard"]) >= 12


class TestRecovery:
    def test_whole_fleet_recovers_byte_identical(self, tmp_path):
        records = synthetic_records(24)
        reference = unsharded_reference(records)
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=4
        ) as store:
            store.ingest_all(records)
        recovered = ShardedResolutionStore.recover(
            tmp_path, make_engine(), shards=4
        )
        try:
            view = global_view(recovered)
        finally:
            recovered.close()
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]

    def test_recover_infers_shard_count_from_journals(self, tmp_path):
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=3
        ) as store:
            store.ingest_all(synthetic_records(9))
        recovered = ShardedResolutionStore.recover(tmp_path, make_engine())
        try:
            assert recovered.shards == 3
        finally:
            recovered.close()

    def test_recover_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no shard journals"):
            ShardedResolutionStore.recover(tmp_path, make_engine())

    def test_compacted_fleet_recovers_byte_identical(self, tmp_path):
        records = synthetic_records(24)
        reference = unsharded_reference(records)
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=4
        ) as store:
            store.ingest_all(records[:12])
            store.compact()
            store.ingest_all(records[12:])
        recovered = ShardedResolutionStore.recover(
            tmp_path, make_engine(), shards=4
        )
        try:
            view = global_view(recovered)
        finally:
            recovered.close()
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]
        for i in range(4):
            assert shard_journal_path(tmp_path, i).exists()


class TestKillResume:
    def test_dead_shard_backlogs_then_catches_up(self, tmp_path):
        records = synthetic_records(24)
        reference = unsharded_reference(records)
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=4
        ) as store:
            store.ingest_all(records[:8])
            store.kill_shard(1)
            deferred = 0
            for record in records[8:16]:
                deferred += 1 in store.ingest(record).deferred
            assert store.stats()["dead_shards"] == [1]
            store.resume_shard(1)
            assert store.stats()["backlogged"] == 0
            store.ingest_all(records[16:])
            view = global_view(store)
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]

    def test_kill_dead_shard_rejected(self, tmp_path):
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=2
        ) as store:
            store.kill_shard(0)
            with pytest.raises(ValueError, match="already dead"):
                store.kill_shard(0)

    def test_resume_live_shard_rejected(self, tmp_path):
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=2
        ) as store:
            with pytest.raises(ValueError, match="still alive"):
                store.resume_shard(0)

    def test_killing_two_shards_still_converges(self, tmp_path):
        records = synthetic_records(30)
        reference = unsharded_reference(records)
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=4
        ) as store:
            store.ingest_all(records[:10])
            store.kill_shard(0)
            store.kill_shard(2)
            store.ingest_all(records[10:20])
            store.resume_shard(0)
            store.resume_shard(2)
            store.ingest_all(records[20:])
            view = global_view(store)
        assert view["clusters"] == reference["clusters"]
        assert view["golden"] == reference["golden"]


class TestRedrain:
    def test_redrain_after_clean_recovery_delivers_nothing(self, tmp_path):
        # The incremental re-drain contract: once every shard already
        # knows every cross-shard pair, recovery delivers zero merges.
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=4
        ) as store:
            store.ingest_all(synthetic_records(24))
        recovered = ShardedResolutionStore.recover(
            tmp_path, make_engine(), shards=4
        )
        try:
            delivered = []
            recovered._deliver = lambda source, pair: delivered.append(pair)
            recovered._redrain()
            assert delivered == []
        finally:
            recovered.close()
