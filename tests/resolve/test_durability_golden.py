"""Golden durability bytes: journal and snapshot files are pinned by digest.

Journals and snapshots are the store's on-disk contract — a recovered
store, a compacted journal, and any external reader all depend on their
exact bytes.  These digests pin them for three representative stores
built from the same seeded workload, so a refactor of the encoders
(record, decision, must-link, components, index state) cannot drift the
format silently.  If a digest changes on purpose, the format changed:
bump the journal/snapshot version and regenerate the digests.
"""

import hashlib

import pytest

from repro.engine import MatchingEngine
from repro.engine.retry import RetryPolicy
from repro.faults import ParityBackend, synthetic_records
from repro.index import MinHashCandidateIndex
from repro.resolve import ResolutionStore, TokenCandidateIndex
from repro.resolve.sharded import ShardedResolutionStore
from repro.resolve.snapshot import snapshot_path_for

RECORDS = synthetic_records(40, seed=3)
#: ten records past the pinned store, for continuing a recovered one.
MORE = synthetic_records(50, seed=3)[40:]
MUST_LINK = [("r001", "r038")]
#: snapshot bytes of the uninterrupted 40-record MinHash store.
MINHASH_STATE = "4bcbf41c584a780af6584b16e8d2210b3289070e3b5355cd2d6f1638e62abb46"


def make_engine():
    return MatchingEngine(
        backend=ParityBackend(), retry=RetryPolicy(timeout=1.0, seed=0)
    )


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def store_digests(tmp_path, index):
    """Journal + snapshot digests of a store with both must-link kinds.

    Thirty records go in, a runtime must-link is added, the store is
    checkpointed, and the last ten records land in the journal suffix.
    """
    path = tmp_path / "wal.jsonl"
    with ResolutionStore(
        make_engine(),
        index=index,
        journal=path,
        must_link=MUST_LINK,
    ) as store:
        store.ingest_all(RECORDS[:30])
        assert store.add_must_link("r004", "r027")
        store.snapshot()
        store.ingest_all(RECORDS[30:])
    return {
        "journal": sha256(path),
        "snapshot": sha256(snapshot_path_for(path)),
    }


class TestDurabilityGolden:
    def test_token_index_store(self, tmp_path):
        assert store_digests(tmp_path, TokenCandidateIndex()) == {
            "journal": "c91efc7dadbb7d7835a6b728b566eedcc0d73d77cfc49559d8203feaae27030e",
            "snapshot": "7561c062fe3fbf71e563abde30bc8bca086679c07910d4f68786ea73d4f2f5ed",
        }

    def test_minhash_index_store(self, tmp_path):
        assert store_digests(tmp_path, MinHashCandidateIndex()) == {
            "journal": "3994755b988d8b41b3c07d9162d46f6b0e016421064ca87fded7964f2e27f43c",
            "snapshot": "774a031ce9d515b633ac7644bb68aa30283066c56f2d8e012eafe8c4f07cf7a0",
        }

    @pytest.mark.parametrize("snapshot", ["moved-away", "kept"])
    def test_minhash_recovery_rebuilds_the_same_store(
        self, tmp_path, snapshot
    ):
        """Full replay and snapshot + suffix both rebuild the pinned store.

        The recovered store snapshots to the bytes of the uninterrupted
        one, and ten more records decide exactly as in a run that never
        stopped.
        """
        path = tmp_path / "wal.jsonl"
        store_digests(tmp_path, MinHashCandidateIndex())
        if snapshot == "moved-away":
            snapshot_path_for(path).rename(tmp_path / "moved.snapshot")
        with ResolutionStore.recover(
            path, make_engine(), index=MinHashCandidateIndex(),
            must_link=MUST_LINK,
        ) as store:
            assert sha256(store.snapshot(tmp_path / "state")) == MINHASH_STATE
            store.ingest_all(MORE)
            recovered = store.decision_log()
        with ResolutionStore(
            make_engine(), index=MinHashCandidateIndex(), must_link=MUST_LINK,
        ) as uninterrupted:
            uninterrupted.ingest_all(RECORDS[:30])
            uninterrupted.add_must_link("r004", "r027")
            uninterrupted.ingest_all([*RECORDS[30:], *MORE])
            assert recovered == uninterrupted.decision_log()

    def test_sharded_directory(self, tmp_path):
        with ShardedResolutionStore(
            make_engine(), tmp_path, shards=3
        ) as store:
            store.ingest_all(RECORDS[:30])
            store.snapshot()
            store.ingest_all(RECORDS[30:])
        digests = {
            path.name: sha256(path) for path in sorted(tmp_path.iterdir())
        }
        assert digests == {
            "shard-000.journal": "b76824fe31858145e66023563288ac22187679628e6d5e5cc0bb5641518e8ef0",
            "shard-000.journal.snapshot": "a3c2deede011c6ff3d301928adfd16827a88589bec2da3284e768945e62398eb",
            "shard-001.journal": "3ba8fa29b3e36eff24ee9ff8f58297390d4df86ca802f59ec6786590e0367314",
            "shard-001.journal.snapshot": "f6e2cd5abd4d624be4ae0ea46f7523ea2d018008447102058bcfa0a34e1015e9",
            "shard-002.journal": "11f166df0f06f890f44d4a2efc53cc0d5bdbcbd7e8ced1507d5af7f9cfcea06a",
            "shard-002.journal.snapshot": "c5b94fd08b0b45cb84ee80b2cf1df6be7c0bffdf726df3545cb9f782618db862",
        }
