"""Representative-first scoring: the two rounds, and crashes inside them.

A probe record's candidates span four existing clusters.  Round A asks
one representative per cluster (its lowest-id member); a yes there
leaves the cluster's other members to be skipped.  Round B asks every
pending member of each cluster that answered no, all in one batch or
cut at ``chunk_size``.  A kill after any journal entry of the probe
must resume to the journal and snapshot bytes of a run that never
stopped, with every batch whole and with batches cut at ``chunk_size``.
"""

import json
from dataclasses import dataclass, field

import pytest

from repro.datasets.schema import Record
from repro.engine import MatchingEngine
from repro.prompts.builder import extract_entities
from repro.resolve import ResolutionStore


def _record(record_id):
    return Record(
        record_id=record_id, attributes={}, description=f"widget {record_id}"
    )


#: clusters a (4 members), b (2) and d (2) are built from must-links, c
#: is a singleton; every record shares the token "widget".
EARLY = [_record(i) for i in ("a1", "a2", "a3", "a4", "b1", "b2", "c1",
                              "d1", "d2")]
MUST_LINK = [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("b1", "b2"),
             ("d1", "d2")]
PROBE = _record("p0")
LATER = [_record("q0")]
#: the only pairs the scripted model calls a match.
MATCHES = {frozenset({"a2", "p0"}), frozenset({"c1", "p0"}),
           frozenset({"d1", "p0"}), frozenset({"b2", "q0"})}
#: the probe's decisions in journal order: round A asks a1, b1, c1, d1;
#: d2 is skipped after d1's yes; round B asks a and b's other members —
#: a3 and a4 too, although a2 said yes in the same round.
PROBE_ASKS = [("a1", "p0"), ("b1", "p0"), ("c1", "p0"), ("d1", "p0"),
              ("a2", "p0"), ("a3", "p0"), ("a4", "p0"), ("b2", "p0")]


@dataclass
class ScriptedBackend:
    """Answers Yes exactly for the pairs in :data:`MATCHES`."""

    name: str = "scripted"
    calls: int = field(default=0, init=False)

    def generate(self, prompts):
        self.calls += 1
        answers = []
        for prompt in prompts:
            left, right = extract_entities(prompt)
            pair = frozenset({left.split()[1], right.split()[1]})
            answers.append("Yes." if pair in MATCHES else "No.")
        return answers


def _engine():
    return MatchingEngine(backend=ScriptedBackend())


def _ingest(store):
    for record in [*EARLY, PROBE, *LATER]:
        if record.record_id not in store:
            store.ingest(record)


def _uninterrupted(tmp_path, chunk_size):
    path = tmp_path / "clean.jsonl"
    with ResolutionStore(
        _engine(), journal=path, must_link=MUST_LINK, chunk_size=chunk_size
    ) as store:
        _ingest(store)
        snapshot = store.snapshot(tmp_path / "clean.state").read_bytes()
    return path.read_bytes(), snapshot


@pytest.mark.parametrize("chunk_size", [1, 2, 32])
def test_probe_runs_both_rounds(chunk_size):
    store = ResolutionStore(
        _engine(), must_link=MUST_LINK, chunk_size=chunk_size
    )
    for record in EARLY:
        store.ingest(record)
    before = len(store.decision_log())
    result = store.ingest(PROBE)
    asked = [d.key for d in store.decision_log()[before:]]
    assert asked == PROBE_ASKS
    assert (result.candidates, result.engine_calls, result.short_circuited) \
        == (9, 8, 1)
    assert result.cluster_id == "a1" and result.cluster_size == 8


@pytest.mark.parametrize("chunk_size", [1, 2, 32])
def test_a_kill_at_any_probe_entry_resumes_byte_identically(
    tmp_path, chunk_size
):
    """Cut the journal after each probe entry, recover, and finish.

    Every entry is fsynced before the next one is written, so a journal
    prefix is exactly what a kill leaves on disk.  At every prefix the
    recovered clusters hold only recovered records.
    """
    journal, snapshot = _uninterrupted(tmp_path, chunk_size)
    lines = journal.splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    first = next(
        i for i, e in enumerate(entries)
        if e.get("type") == "record" and e["record_id"] == "p0"
    )
    last = next(
        i for i, e in enumerate(entries)
        if e.get("type") == "commit" and e["record_id"] == "p0"
    )
    assert [
        (e["left"], e["right"]) for e in entries[first:last]
        if e["type"] == "decision"
    ] == PROBE_ASKS
    for cut in range(first, last + 1):
        path = tmp_path / f"killed-{cut}.jsonl"
        path.write_bytes(b"".join(lines[: cut + 1]))
        with ResolutionStore.recover(
            path, _engine(), must_link=MUST_LINK, chunk_size=chunk_size
        ) as store:
            clustered = {rid for c in store.clustering().clusters for rid in c}
            assert clustered == {r.record_id for r in store.records()}, cut
            _ingest(store)
            state = store.snapshot(tmp_path / f"killed-{cut}.state")
        assert path.read_bytes() == journal, f"journal differs after {cut}"
        assert state.read_bytes() == snapshot, f"snapshot differs after {cut}"
