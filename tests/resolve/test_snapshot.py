"""Snapshot/compaction: checkpointed stores recover byte-identical.

Every round-trip here follows the same script — build a journaled store,
checkpoint it, "crash" (drop the in-memory object), recover, and compare
the full observable state against an uninterrupted reference.  The
snapshot is only correct if that comparison is *exact*: clustering,
decision log, and golden records.
"""

import json

import pytest

from repro.engine import MatchingEngine
from repro.engine.retry import RetryPolicy
from repro.faults import JournalError, ParityBackend, synthetic_records
from repro.faults.harness import resolution_snapshot
from repro.faults.journal import journal_header
from repro.index import MinHashCandidateIndex
from repro.resolve import ResolutionStore, TokenCandidateIndex
from repro.resolve.snapshot import (
    SNAPSHOT_VERSION,
    load_snapshot,
    snapshot_path_for,
    write_snapshot_doc,
)


def make_engine(seed=0):
    return MatchingEngine(
        backend=ParityBackend(), retry=RetryPolicy(timeout=1.0, seed=seed)
    )


def journaled_store(path, **kwargs):
    kwargs.setdefault("index", TokenCandidateIndex())
    return ResolutionStore(make_engine(), journal=path, **kwargs)


def roundtrip(tmp_path, records, compact=False, index_factory=None, **kwargs):
    """Ingest, checkpoint, crash, recover; return (reference, recovered)."""
    factory = index_factory or TokenCandidateIndex
    path = tmp_path / "wal.jsonl"
    store = journaled_store(path, index=factory(), **kwargs)
    store.ingest_all(records)
    reference = resolution_snapshot(store)
    if compact:
        store.compact()
    else:
        store.snapshot()
    store.close()
    recovered = ResolutionStore.recover(
        path, make_engine(), index=factory(), **kwargs
    )
    try:
        return reference, resolution_snapshot(recovered)
    finally:
        recovered.close()


class TestSnapshotRoundTrip:
    def test_empty_store(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.snapshot()
        store.close()
        recovered = ResolutionStore.recover(path, make_engine())
        try:
            assert len(recovered) == 0
            assert recovered.decisions() == ()
        finally:
            recovered.close()

    def test_single_record(self, tmp_path):
        reference, recovered = roundtrip(tmp_path, synthetic_records(1))
        assert recovered == reference

    def test_many_records(self, tmp_path):
        reference, recovered = roundtrip(tmp_path, synthetic_records(24))
        assert recovered == reference

    def test_constraints_survive(self, tmp_path):
        records = synthetic_records(12)
        reference, recovered = roundtrip(
            tmp_path, records,
            must_link=(("r000", "r011"),),
            cannot_link=(("r001", "r002"),),
        )
        assert recovered == reference

    def test_minhash_index_backend(self, tmp_path):
        reference, recovered = roundtrip(
            tmp_path, synthetic_records(24),
            index_factory=lambda: MinHashCandidateIndex(
                num_perm=32, threshold=0.3
            ),
        )
        assert recovered == reference

    def test_recovered_store_continues_identically(self, tmp_path):
        records = synthetic_records(24)
        with ResolutionStore(make_engine()) as full:
            full.ingest_all(records)
            reference = resolution_snapshot(full)
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(records[:12])
        store.snapshot()
        store.close()
        recovered = ResolutionStore.recover(path, make_engine())
        try:
            recovered.ingest_all(records[12:])
            assert resolution_snapshot(recovered) == reference
        finally:
            recovered.close()


    def test_restored_decision_log_matches_field_for_field(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(24))
        before = store.decision_log()
        assert before
        store.compact()
        store.close()
        recovered = ResolutionStore.recover(path, make_engine())
        try:
            after = recovered.decision_log()
        finally:
            recovered.close()
        assert after == before
        for old, new in zip(before, after, strict=True):
            assert (new.left, new.right, new.match, new.score, new.source) == (
                old.left, old.right, old.match, old.score, old.source
            )
            assert type(new.match) is bool
            assert type(new.score) is float
            assert type(new.source) is str
            assert new.key == old.key
            assert new.as_entry() == old.as_entry()
            assert hash(new) == hash(old)


class TestCompaction:
    def test_compact_swaps_journal_for_suffix_only_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(12))
        seq = store.journal_seq()
        assert seq > 0
        store.compact()
        header = journal_header(path)
        assert header["basis"] == seq
        # Only the header remains: retired history lives in the snapshot.
        assert len(path.read_text().splitlines()) == 1
        assert store.journal_seq() == seq  # monotonic across the swap
        store.close()

    def test_compact_roundtrip(self, tmp_path):
        reference, recovered = roundtrip(
            tmp_path, synthetic_records(24), compact=True
        )
        assert recovered == reference

    def test_ingest_after_compact_recovers(self, tmp_path):
        records = synthetic_records(24)
        with ResolutionStore(make_engine()) as full:
            full.ingest_all(records)
            reference = resolution_snapshot(full)
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(records[:12])
        store.compact()
        store.ingest_all(records[12:])  # journal suffix past the snapshot
        store.close()
        recovered = ResolutionStore.recover(path, make_engine())
        try:
            assert resolution_snapshot(recovered) == reference
        finally:
            recovered.close()

    def test_repeated_compaction_keeps_sequence_monotonic(self, tmp_path):
        records = synthetic_records(18)
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        last = 0
        for i in range(3):
            store.ingest_all(records[i * 6 : (i + 1) * 6])
            store.compact()
            seq = store.journal_seq()
            assert seq >= last
            last = seq
        reference = resolution_snapshot(store)
        store.close()
        recovered = ResolutionStore.recover(path, make_engine())
        try:
            assert resolution_snapshot(recovered) == reference
        finally:
            recovered.close()


class TestQuiescence:
    def test_snapshot_requires_a_journal(self):
        store = ResolutionStore(make_engine())
        with pytest.raises(ValueError, match="journal"):
            store.snapshot()

    def test_snapshot_refuses_inflight_ingest(self, tmp_path):
        """A snapshot taken from inside an engine call is refused."""
        refusals = []

        class SnapshottingEngine:
            def __init__(self):
                self.inner = make_engine()

            def match_pairs(self, pairs):
                with pytest.raises(ValueError, match="quiescent") as info:
                    store.snapshot()
                refusals.append(info.value)
                return self.inner.match_pairs(pairs)

        path = tmp_path / "wal.jsonl"
        store = ResolutionStore(SnapshottingEngine(), journal=path)
        try:
            store.ingest_all(synthetic_records(4))
            assert refusals  # the engine was asked, and refused each time
            assert not snapshot_path_for(path).exists()
            store.snapshot()  # quiescent again once ingest returned
        finally:
            store.close()


class TestValidation:
    def write_doc(self, tmp_path, **overrides):
        doc = {
            "kind": "resolve-snapshot",
            "version": SNAPSHOT_VERSION,
            "mode": "transitive",
            "seq": 0,
            "records": [],
            "decisions": [],
            "must_link": [],
            "cannot_link": [],
            "components": [],
            "engine_calls": 0,
            "short_circuited": 0,
            "index": {"class": "TokenCandidateIndex", "state": None},
        }
        doc.update(overrides)
        path = tmp_path / "wal.jsonl.snapshot"
        write_snapshot_doc(path, doc)
        return path

    def test_wrong_kind_rejected(self, tmp_path):
        path = self.write_doc(tmp_path, kind="eval-snapshot")
        with pytest.raises(JournalError, match="not a resolution snapshot"):
            load_snapshot(path, mode="transitive")

    def test_wrong_version_rejected(self, tmp_path):
        path = self.write_doc(tmp_path, version=99)
        with pytest.raises(JournalError, match="version"):
            load_snapshot(path, mode="transitive")

    def test_mode_mismatch_rejected(self, tmp_path):
        path = self.write_doc(tmp_path, mode="correlation")
        with pytest.raises(JournalError, match="mode"):
            load_snapshot(path, mode="transitive")

    def test_garbage_rejected_with_path(self, tmp_path):
        path = tmp_path / "wal.jsonl.snapshot"
        path.write_text("not json\n")
        with pytest.raises(JournalError) as excinfo:
            load_snapshot(path, mode="transitive")
        assert excinfo.value.path == path
        assert excinfo.value.lineno == 1

    def test_index_class_mismatch_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path, index=MinHashCandidateIndex(num_perm=32))
        store.ingest_all(synthetic_records(6))
        store.snapshot()
        store.close()
        with pytest.raises(JournalError, match="MinHashCandidateIndex"):
            ResolutionStore.recover(
                path, make_engine(), index=TokenCandidateIndex()
            )

    def test_blank_journal_with_snapshot_rejected(self, tmp_path):
        # A snapshot without its journal means the journal file was lost:
        # recovering "empty" would silently drop the checkpointed state.
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(6))
        store.snapshot()
        store.close()
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="snapshot exists"):
            ResolutionStore.recover(path, make_engine())

    def test_journal_basis_past_snapshot_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(6))
        store.compact()
        store.close()
        snap_path = snapshot_path_for(path)
        doc = json.loads(snap_path.read_text())
        doc["seq"] = doc["seq"] - 1  # snapshot now claims less than basis
        write_snapshot_doc(snap_path, doc)
        with pytest.raises(JournalError, match="basis"):
            ResolutionStore.recover(path, make_engine())

    def test_decision_on_a_missing_record_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(6))
        store.snapshot()
        store.close()
        snap_path = snapshot_path_for(path)
        doc = json.loads(snap_path.read_text())
        dropped = doc["decisions"][0]["left"]
        doc["records"] = [
            r for r in doc["records"] if r["record_id"] != dropped
        ]
        write_snapshot_doc(snap_path, doc)
        with pytest.raises(JournalError, match="does not hold") as info:
            ResolutionStore.recover(path, make_engine())
        assert info.value.path == snap_path


class TestComponentsField:
    def test_snapshot_materializes_the_partition(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(12))
        store.snapshot()
        clusters = [list(c) for c in store.clustering().clusters]
        store.close()
        doc = json.loads(snapshot_path_for(path).read_text())
        assert sorted(map(sorted, doc["components"])) == sorted(
            map(sorted, clusters)
        )

    def test_snapshot_without_components_rejected(self, tmp_path):
        # Every snapshot materializes the partition; one without it is
        # not a format this store writes, so recovery refuses it.
        path = tmp_path / "wal.jsonl"
        store = journaled_store(path)
        store.ingest_all(synthetic_records(12))
        store.snapshot()
        store.close()
        snap_path = snapshot_path_for(path)
        doc = json.loads(snap_path.read_text())
        del doc["components"]
        write_snapshot_doc(snap_path, doc)
        with pytest.raises(JournalError, match="components"):
            ResolutionStore.recover(path, make_engine())
