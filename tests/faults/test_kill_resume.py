"""Crash/recovery: journaled runs resume byte-identical after being killed."""

import json

import pytest

from repro.datasets.schema import Split
from repro.engine import MatchingEngine
from repro.engine.retry import RetryPolicy
from repro.eval.evaluator import evaluate_model
from repro.faults import (
    CrashingBackend,
    ParityBackend,
    SimulatedCrash,
    kill_resume_roundtrip,
    synthetic_records,
)
from repro.faults import journal
from repro.faults.harness import resolution_snapshot
from repro.llm.model import build_model
from repro.resolve import ResolutionStore


def make_engine(seed=0, backend=None):
    return MatchingEngine(
        backend=backend if backend is not None else ParityBackend(),
        retry=RetryPolicy(timeout=1.0, seed=seed),
    )


class TestKillResumeRoundtrip:
    def test_crash_looped_ingestion_matches_uninterrupted_run(self, tmp_path):
        outcome = kill_resume_roundtrip(
            tmp_path / "wal.jsonl", seed=0, record_count=30, kill_every=3
        )
        assert outcome["crashes"] > 0, "the kill switch never engaged"
        assert outcome["identical"] is True
        assert outcome["resumed"] == outcome["reference"]

    def test_kill_every_must_make_progress(self, tmp_path):
        with pytest.raises(ValueError, match="kill_every"):
            kill_resume_roundtrip(tmp_path / "wal.jsonl", kill_every=0)


class TestTornTailRecovery:
    def reference_for(self, records, seed):
        store = ResolutionStore(make_engine(seed))
        store.ingest_all(records)
        return resolution_snapshot(store)

    def finish(self, store, records):
        for record in records:
            if record.record_id not in store:
                store.ingest(record)
        return resolution_snapshot(store)

    def assert_repaired(self, path, seed, reference):
        # Recovery truncated the torn tail before appending: the finished
        # journal parses clean and recovers to the same state again.
        _, torn = journal.read_journal(path)
        assert torn is False
        again = ResolutionStore.recover(path, make_engine(seed))
        try:
            assert resolution_snapshot(again) == reference
        finally:
            again.close()

    def test_truncated_json_tail_is_redone_on_recovery(self, tmp_path):
        seed, records = 3, synthetic_records(24, seed=3)
        reference = self.reference_for(records, seed)
        path = tmp_path / "wal.jsonl"
        store = ResolutionStore(make_engine(seed), journal=path)
        for record in records[:12]:
            store.ingest(record)
        # A crash mid-append: half a decision line, no trailing newline.
        with open(path, "ab") as handle:
            handle.write(b'{"type": "decision", "left": "r0')
        resumed = ResolutionStore.recover(path, make_engine(seed))
        assert self.finish(resumed, records) == reference
        self.assert_repaired(path, seed, reference)

    def test_missing_final_newline_is_redone_on_recovery(self, tmp_path):
        # The strongest torn-write shape: the last *real* entry parses as
        # JSON but its acknowledging newline never hit the disk, so the
        # work it describes must be forgotten and redone.
        seed, records = 4, synthetic_records(24, seed=4)
        reference = self.reference_for(records, seed)
        path = tmp_path / "wal.jsonl"
        store = ResolutionStore(make_engine(seed), journal=path)
        for record in records[:12]:
            store.ingest(record)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        path.write_bytes(raw[:-1])  # chop the final fsync'd newline
        resumed = ResolutionStore.recover(path, make_engine(seed))
        assert self.finish(resumed, records) == reference
        self.assert_repaired(path, seed, reference)

    def test_fresh_store_refuses_an_existing_journal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = ResolutionStore(make_engine(), journal=path)
        store.ingest_all(synthetic_records(6))
        # Silently appending a second run would interleave two histories.
        with pytest.raises(ValueError, match="recover"):
            ResolutionStore(make_engine(), journal=path)


class TestDecisionEndpoints:
    def test_a_decision_on_an_unjournaled_record_is_rejected(self, tmp_path):
        """Record b, a decision on (a, b), b's commit: a has no line."""
        path = tmp_path / "wal.jsonl"
        entries = [
            {"type": "header", "version": journal.JOURNAL_VERSION,
             "kind": "resolve", "mode": "transitive",
             "index": "TokenCandidateIndex"},
            {"type": "record", "record_id": "b", "description": "widget b",
             "attributes": {}},
            {"type": "decision", "left": "a", "right": "b", "match": True,
             "score": 1.0, "source": "backend"},
            {"type": "commit", "record_id": "b", "candidates": 1,
             "engine_calls": 1, "short_circuited": 0},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        with pytest.raises(journal.JournalError, match="no record line") as info:
            ResolutionStore.recover(path, make_engine())
        assert info.value.path == path


class TestOneParse:
    """An untorn journal is parsed once on recovery and never repaired."""

    def spied_recover(self, monkeypatch, path):
        calls = {"read_journal": 0, "repair": 0}

        def counted(name):
            real = getattr(journal, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(journal, name, counted(name))
        store = ResolutionStore.recover(path, make_engine())
        try:
            return calls, resolution_snapshot(store)
        finally:
            store.close()

    def test_full_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        with ResolutionStore(make_engine(), journal=path) as store:
            store.ingest_all(synthetic_records(12))
            reference = resolution_snapshot(store)
        before = path.read_bytes()
        calls, recovered = self.spied_recover(monkeypatch, path)
        assert calls == {"read_journal": 1, "repair": 0}
        assert recovered == reference
        assert path.read_bytes() == before

    def test_compacted_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.jsonl"
        records = synthetic_records(12)
        with ResolutionStore(make_engine(), journal=path) as store:
            store.ingest_all(records[:6])
            store.compact()
            store.ingest_all(records[6:])
            reference = resolution_snapshot(store)
        calls, recovered = self.spied_recover(monkeypatch, path)
        assert calls == {"read_journal": 1, "repair": 0}
        assert recovered == reference


class TestEvalJournalResume:
    CHUNK = 4

    def split(self, product_split):
        return Split(name="eval-journal", pairs=product_split.pairs[:40])

    def test_killed_evaluation_resumes_to_identical_scores(
        self, tmp_path, product_split
    ):
        split = self.split(product_split)
        model = build_model("gpt-4o-mini")

        clean_path = tmp_path / "clean.jsonl"
        clean = evaluate_model(
            model, split, engine=make_engine(),
            journal=clean_path, journal_chunk=self.CHUNK,
        )

        # The same evaluation, but the backend dies after 3 batches.
        crash_path = tmp_path / "crash.jsonl"
        crasher = make_engine(
            backend=CrashingBackend(ParityBackend(), kill_after=3)
        )
        with pytest.raises(SimulatedCrash):
            evaluate_model(
                model, split, engine=crasher,
                journal=crash_path, journal_chunk=self.CHUNK,
            )
        journaled = crash_path.read_text().count('"type": "prediction"')
        assert 0 < journaled < len(split.pairs), "crash landed mid-run"

        resumed = evaluate_model(
            model, split, engine=make_engine(),
            journal=crash_path, journal_chunk=self.CHUNK,
        )
        assert resumed.scores == clean.scores
        # Entries are appended in index order, so a resumed journal is
        # byte-identical to one written by an uninterrupted run.
        assert crash_path.read_bytes() == clean_path.read_bytes()

    def test_torn_prediction_tail_is_repaired_on_resume(
        self, tmp_path, product_split
    ):
        split = self.split(product_split)
        model = build_model("gpt-4o-mini")
        clean_path = tmp_path / "clean.jsonl"
        clean = evaluate_model(
            model, split, engine=make_engine(),
            journal=clean_path, journal_chunk=self.CHUNK,
        )
        crash_path = tmp_path / "crash.jsonl"
        crasher = make_engine(
            backend=CrashingBackend(ParityBackend(), kill_after=3)
        )
        with pytest.raises(SimulatedCrash):
            evaluate_model(
                model, split, engine=crasher,
                journal=crash_path, journal_chunk=self.CHUNK,
            )
        # A crash mid-append: half a prediction line, no trailing newline.
        with open(crash_path, "ab") as handle:
            handle.write(b'{"decision": true, "index": 1')
        assert journal.read_journal(crash_path)[1] is True

        resumed = evaluate_model(
            model, split, engine=make_engine(),
            journal=crash_path, journal_chunk=self.CHUNK,
        )
        assert resumed.scores == clean.scores
        assert crash_path.read_bytes() == clean_path.read_bytes()

    def test_completed_journal_short_circuits_prediction(
        self, tmp_path, product_split
    ):
        split = self.split(product_split)
        model = build_model("gpt-4o-mini")
        path = tmp_path / "wal.jsonl"
        first = evaluate_model(
            model, split, engine=make_engine(),
            journal=path, journal_chunk=self.CHUNK,
        )
        before = path.read_bytes()

        class Exploding:
            name = "exploding"

            def generate(self, prompts):
                raise AssertionError("a finished journal must not re-predict")

        replayed = evaluate_model(
            model, split, engine=make_engine(backend=Exploding()),
            journal=path, journal_chunk=self.CHUNK,
        )
        assert replayed.scores == first.scores
        assert path.read_bytes() == before  # nothing appended

    def test_journal_pinned_to_its_evaluation(self, tmp_path, product_split):
        from repro.faults import JournalError

        split = self.split(product_split)
        model = build_model("gpt-4o-mini")
        path = tmp_path / "wal.jsonl"
        evaluate_model(model, split, engine=make_engine(),
                       journal=path, journal_chunk=self.CHUNK)
        other = Split(name="other-split", pairs=product_split.pairs[:40])
        with pytest.raises(JournalError, match="does not match"):
            evaluate_model(model, other, engine=make_engine(),
                           journal=path, journal_chunk=self.CHUNK)
