"""Golden durability bytes: journal and snapshot files are pinned by digest.

Journals and snapshots are the store's on-disk contract — a recovered
store, a compacted journal, and any external reader all depend on their
exact bytes.  These digests pin them for two representative stores
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
from repro.resolve.snapshot import snapshot_path_for

RECORDS = synthetic_records(40, seed=3)
#: ten records past the pinned store, for continuing a recovered one.
MORE = synthetic_records(50, seed=3)[40:]
MUST_LINK = [("r001", "r038")]
#: snapshot bytes of the uninterrupted 40-record MinHash store.
MINHASH_STATE = "dd92c696060917387dbf2fdcdb88e0ffba7684a626c86afeb0f6bb996584cb59"


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
            "journal": "5ac52bc63550fddd17e2c386710460f8ce7b5d1239ce61c4a203a5c8aeab99a9",
            "snapshot": "afbd3645ca3dbbf239af82076560e115371bde819199ffc7a3d1157aebfec893",
        }

    def test_minhash_index_store(self, tmp_path):
        assert store_digests(tmp_path, MinHashCandidateIndex()) == {
            "journal": "a87117b4821197595d8318080f8fc2aa9e815e191f5ef8a0b06f8842fcc36b0a",
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
