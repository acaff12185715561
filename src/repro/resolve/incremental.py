"""Incremental entity resolution: stream records into live clusters.

:class:`ResolutionStore` is the online counterpart of the batch
pipeline: records arrive one at a time, each is blocked against the
records already ingested through a pluggable
:class:`~repro.index.protocol.CandidateIndex` (shared-token inverted
index by default, MinHash/LSH via
:class:`repro.index.MinHashCandidateIndex`), the surviving candidate
pairs are decided by the :class:`~repro.engine.MatchingEngine` in
micro-batched chunks, and the cluster structure updates in place.

**Order invariance (transitive mode).**  The candidate predicate is a
symmetric function of the two records alone (share ≥ ``min_shared``
tokens, or band collision plus a similarity floor), so over a full
ingestion the set of candidate edges is the same for every insertion
order; the engine's decision for a pair is a
deterministic function of the pair; and connected components are a
function of the positive-edge *set*.  Cluster-aware short-circuiting
preserves this: a pair is only skipped when its endpoints are connected
(or will be, once the record's own matches join the union-find), and
for transitive closure such a decision cannot change the
partition (a positive union would be a no-op, a negative is ignored) —
so every insertion order, with or without short-circuiting, yields the
same clustering as one batch run.  Correlation mode aggregates *all*
decisions as evidence, so there short-circuiting is disabled and the
clustering is recomputed from the full (sorted) decision log.

**Representative-first scoring.**  With short-circuiting on, a record's
pending candidates are grouped by their current cluster and asked in
two rounds (:meth:`ResolutionStore._next_batch`).  Round A asks one
representative, the lowest-id pending member, of every cluster the
record has no answer from; round B, only once round A is empty, asks
every pending member of the clusters that answered no.  A cluster that
answered yes is now the record's own, so its other members are skipped.
The rounds change which pairs are asked, never the partition: the
record joins cluster C exactly when some pair with C is a match (a
cluster that answered no has all its members asked), and a pair is
skipped only when its endpoints end up connected anyway: the partner
sits in the record's own cluster or in one that answered yes.  So the
invariance argument above holds unchanged.

**Durability.**  ``journal=`` write-ahead-logs every record, decision,
commit, and must-link to an fsync'd JSONL file
(:mod:`repro.faults.journal`); :meth:`recover` rebuilds a killed store
and finishes its in-flight work byte-identically.  Every write is
journaled before it is applied: ``ingest`` appends the record line
before the record enters the record table, the index or the
union-find, each decision chunk before it joins the decision log, and
``add_must_link`` its pair before the union.  So every journal prefix
names each record before any decision on it, and a failed append
leaves the store as it was.  The round rule reads
only journaled state: the candidate set, the union-find, and the
record's own answers.  A record's matches join the union-find only
after its last answer, live and on recovery alike, so the clusters it
groups by do not move while it is decided, and an answer changes only
its own cluster's round.  A run killed anywhere inside the rounds
therefore resumes with the pairs an uninterrupted run would have asked
next, in the same order, and its ``commit`` entry counts the answers
journaled before the kill.

:meth:`snapshot` checkpoints the live state (records, decisions,
constraints, candidate index) at the current journal sequence, and
:meth:`compact` additionally swaps the journal for a fresh suffix-only
file — after which recovery is O(live state + suffix), never O(full
history).  See :mod:`repro.resolve.snapshot` and DESIGN.md §18.

**One writer.**  A store is a single-writer object, like a ``dict``:
``ingest``, ``add_must_link``, ``snapshot`` and ``compact`` must not
run concurrently, and the store takes no lock.  With one writer a
record's candidate set cannot change while it is decided, so the index
is queried once per record.  A write that starts while an ingest is
deciding its record (an engine that calls back into the store) raises
instead of interleaving, and ``snapshot``/``compact`` refuse a store
that is mid-ingest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Sequence

from repro.blocking.token import blocking_tokens
from repro.concurrency import idempotent
from repro.datasets.schema import Record
from repro.engine.engine import MatchingEngine, MatchResult
from repro.index.protocol import CandidateIndex
from repro.resolve.canonical import golden_records
from repro.resolve.clusterer import Clustering, PairDecision, cluster
from repro.resolve.snapshot import (
    SNAPSHOT_VERSION,
    load_snapshot,
    snapshot_path_for,
    write_snapshot_doc,
)
from repro.resolve.uf import UnionFind

__all__ = ["IngestResult", "ResolutionStore", "TokenCandidateIndex", "decision_score"]

#: evidence weight per decision source: degraded fallback answers count
#: half — the threshold matcher is the engine's emergency path, not the
#: model (see DESIGN.md §9), so its verdicts should not veto or force
#: merges as strongly as real completions.
_SOURCE_SCORES = {"backend": 1.0, "cache": 1.0, "fallback": 0.5}


def decision_score(result: MatchResult) -> float:
    """Evidence weight of one engine answer (keyed on its source)."""
    return _SOURCE_SCORES.get(result.source, 1.0)


def _normalize_source(source: str) -> str:
    """Collapse ``cache`` answers to ``backend`` in the decision log.

    A cache hit *is* a backend answer (same completion, same decision) —
    it only reached this store through the engine's memo table.  Folding
    the two keeps a journaled run byte-identical whether it was
    interrupted or not: a resumed run starts with a cold cache, so the
    same logical answer may arrive via either source.
    """
    return "backend" if source == "cache" else source


def _record_entry(record: Record) -> dict:
    """JSON-ready record fields shared by journal entries and snapshots."""
    return {
        "record_id": record.record_id,
        "description": record.description,
        "attributes": dict(record.attributes),
    }


def _record_from(entry: dict) -> Record:
    """Decode :func:`_record_entry` output (journal or snapshot)."""
    return Record(
        record_id=str(entry["record_id"]),
        attributes=dict(entry.get("attributes") or {}),
        description=str(entry["description"]),
    )


def _must_pair(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) must-link pair; a record cannot link itself."""
    if a == b:
        raise ValueError(f"must-link pair of {a!r} with itself")
    return (a, b) if a < b else (b, a)


class TokenCandidateIndex(CandidateIndex):
    """Inverted index serving a *pairwise* shared-token candidate predicate.

    Two records are candidates when their descriptions share at least
    ``min_shared`` distinct blocking tokens.  The predicate depends only
    on the two records — no collection-level frequency pruning — which is
    what makes the incremental candidate edge set insertion-order-
    invariant.  The index takes no lock: its one caller is a
    :class:`ResolutionStore`'s one writer.  The MinHash/LSH counterpart
    with the same contract is
    :class:`repro.index.MinHashCandidateIndex`.
    """

    def __init__(self, min_shared: int = 1) -> None:
        if min_shared <= 0:
            raise ValueError("min_shared must be positive")
        self.min_shared = min_shared
        self._postings: dict[str, list[str]] = {}

    def add(self, record_id: str, description: str) -> None:
        """Index one record's description tokens."""
        for token in sorted(set(blocking_tokens(description))):
            self._postings.setdefault(token, []).append(record_id)

    def candidates(self, description: str, exclude: str | None = None) -> tuple[str, ...]:
        """Sorted ids of indexed records sharing ≥ ``min_shared`` tokens."""
        shared: dict[str, int] = {}
        for token in sorted(set(blocking_tokens(description))):
            for record_id in self._postings.get(token, ()):
                shared[record_id] = shared.get(record_id, 0) + 1
        return tuple(
            sorted(
                record_id
                for record_id, count in shared.items()
                if count >= self.min_shared and record_id != exclude
            )
        )

    def snapshot_state(self) -> dict:
        """JSON-ready postings map (see :mod:`repro.resolve.snapshot`)."""
        return {"postings": {t: list(ids) for t, ids in self._postings.items()}}

    def restore_state(self, state: dict) -> None:
        """Rebuild the postings map from :meth:`snapshot_state` output."""
        self._postings = {
            token: list(ids) for token, ids in state["postings"].items()
        }


@dataclass(frozen=True)
class IngestResult:
    """What one ``ingest`` call did."""

    record_id: str
    #: candidate records the blocker surfaced for this record.
    candidates: int
    #: engine decisions actually requested.
    engine_calls: int
    #: candidate pairs skipped because their endpoints were co-clustered.
    short_circuited: int
    #: canonical id of the cluster the record landed in.
    cluster_id: str
    #: size of that cluster after the update.
    cluster_size: int


class ResolutionStore:
    """Live entity-resolution state: records in, clusters out (one writer)."""

    def __init__(
        self,
        engine: MatchingEngine,
        mode: str = "transitive",
        min_agreement: float = 0.5,
        chunk_size: int = 32,
        short_circuit: bool = True,
        must_link: Iterable[tuple[str, str]] = (),
        cannot_link: Iterable[tuple[str, str]] = (),
        journal: str | Path | None = None,
        index: CandidateIndex | None = None,
        _recovering: bool = False,
    ) -> None:
        if mode not in ("transitive", "correlation"):
            raise ValueError(f"unknown resolution mode {mode!r}")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.engine = engine
        self.mode = mode
        self.min_agreement = min_agreement
        self.chunk_size = chunk_size
        #: skipping is only sound for transitive closure without
        #: cannot-links (see module docstring).
        self.short_circuit = (
            short_circuit and mode == "transitive" and not tuple(cannot_link)
        )
        self.cannot_link = tuple(sorted({tuple(sorted(p)) for p in cannot_link}))
        self._records: dict[str, Record] = {}
        #: blocking-strategy injection point: any CandidateIndex whose
        #: predicate is a symmetric function of the two records alone
        #: preserves the store's insertion-order invariance (see the
        #: module docstring).
        self._index = index if index is not None else TokenCandidateIndex()
        self._uf = UnionFind()
        self._decisions: list[PairDecision] = []
        self._compared: set[tuple[str, str]] = set()
        self._must_pairs: set[tuple[str, str]] = set()
        self._must_by_member: dict[str, list[str]] = {}
        self._committed: set[str] = set()
        #: True while a record is being decided and committed; a write
        #: or snapshot then would break the one-writer contract.
        self._ingesting = False
        #: True once ``close`` released a journal: writes would go
        #: unjournaled, so they are refused.
        self._closed = False
        self.engine_calls = 0
        self.short_circuited = 0
        for a, b in must_link:
            self._apply_must_link(a, b)
        self._journal = None
        #: global journal sequence of the first entry the current writer
        #: will append (bumped by recovery replay and compaction).
        self._seq_at_open = 0
        if journal is not None:
            from repro.faults.journal import JournalWriter

            path = Path(journal)
            if not _recovering and path.exists() and path.stat().st_size:
                raise ValueError(
                    f"journal {path} already has entries; resume it with "
                    f"ResolutionStore.recover() instead"
                )
            self._journal = JournalWriter(
                path,
                header={
                    "kind": "resolve",
                    "mode": mode,
                    "index": type(self._index).__name__,
                },
            )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    @idempotent
    def close(self) -> None:
        """Release the write-ahead journal handle.

        Idempotent; a store built without a journal is a no-op.  The
        store stays readable after close, but a journaled store refuses
        further writes: ``ingest`` and ``add_must_link`` raise
        ``ValueError`` instead of accepting what the journal would not
        hold.
        """
        if self._journal is not None:
            self._journal.close()
            self._journal = None
            self._closed = True

    def __enter__(self) -> "ResolutionStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_writable(self) -> None:
        """Refuse a write during an ingest or after ``close``."""
        if self._ingesting:
            raise RuntimeError(
                "ResolutionStore has one writer: a write started while an "
                "ingest was deciding its record"
            )
        if self._closed:
            raise ValueError("ResolutionStore is closed: its journal takes no writes")

    # ------------------------------------------------------------ constraints

    def _register_must_link(self, a: str, b: str) -> tuple[str, str] | None:
        """Record a must-link pair in the bookkeeping, without any union.

        Returns the canonical pair, or None when it was already known.
        """
        pair = _must_pair(a, b)
        if pair in self._must_pairs:
            return None
        self._must_pairs.add(pair)
        self._must_by_member.setdefault(pair[0], []).append(pair[1])
        self._must_by_member.setdefault(pair[1], []).append(pair[0])
        return pair

    def _apply_must_link(self, a: str, b: str) -> None:
        """Register a must-link pair; union it if both sides are present."""
        pair = self._register_must_link(a, b)
        if pair and pair[0] in self._records and pair[1] in self._records:
            self._uf.union(pair[0], pair[1])

    def add_must_link(self, a: str, b: str) -> bool:
        """Add one must-link constraint at runtime (journaled, idempotent).

        The pair joins one cluster without an engine call, now if both
        records are present, otherwise when the second one arrives.
        Returns False (and journals nothing) when the pair was already
        constrained.  The pair is journaled before the union.
        """
        self._check_writable()
        pair = _must_pair(a, b)
        if pair in self._must_pairs:
            return False
        if self._journal is not None:
            self._journal.append(
                {"type": "must_link", "left": pair[0], "right": pair[1]}
            )
        self._apply_must_link(*pair)
        return True

    @property
    def must_link(self) -> tuple:
        """Every must-link constraint (constructor plus runtime), sorted."""
        return tuple(sorted(self._must_pairs))

    # -------------------------------------------------------------- ingestion

    def ingest(self, record: Record) -> IngestResult:
        """Add one record: journal → block → decide → update clusters.

        The record line is journaled before the record enters the store,
        so a failed append leaves the store untouched and the same record
        can be ingested again.  An ingest that raised while deciding
        (the engine failed) leaves its record journaled but uncommitted;
        ingesting the same record again resumes it from its journaled
        answers, as :meth:`recover` would.  Raises ``RuntimeError`` when
        called while another ingest is deciding its record (the store
        has one writer), and ``ValueError`` for a committed or different
        record under a known id, or a closed journaled store.
        """
        self._check_writable()
        record_id = record.record_id
        known = self._records.get(record_id)
        if known is not None:
            if record_id in self._committed or known != record:
                raise ValueError(f"record {record_id!r} already ingested")
            candidates, calls, skipped = self._finish(
                record, self._answers_of(record_id)
            )
        else:
            if self._journal is not None:
                # Write-ahead: the record is acknowledged before any of
                # its comparisons run, so a crash mid-comparison leaves
                # it journaled-but-uncommitted and ``recover`` (or a
                # second ingest) finishes it.
                self._journal.append(
                    {"type": "record", **_record_entry(record)}
                )
            self._records[record_id] = record
            self._index.add(record_id, record.description)
            self._uf.add(record_id)
            for partner in self._must_by_member.get(record_id, ()):
                if partner in self._records:
                    self._uf.union(record_id, partner)
            candidates, calls, skipped = self._finish(record)
        cluster_id, cluster_size = self._cluster_of(record_id)
        return IngestResult(
            record_id=record_id,
            candidates=candidates,
            engine_calls=calls,
            short_circuited=skipped,
            cluster_id=cluster_id,
            cluster_size=cluster_size,
        )

    def _decide_candidates(
        self, record: Record, carried: Sequence[tuple[str, bool]] = ()
    ) -> tuple[int, int, int]:
        """Block *record* and decide its pending pairs until none remain.

        Returns ``(candidates, engine_calls, short_circuited)`` for this
        record.  Shared by :meth:`ingest` and crash recovery:
        pairs whose decisions are already journaled sit in ``_compared``
        and are never re-asked, so finishing an uncommitted record after
        a crash decides exactly the pairs the interrupted run had not yet
        acknowledged.  *carried* lists the ``(partner, match)`` answers
        the interrupted run journaled for this record; they count as
        this record's own, so the rounds and the commit entry match an
        uninterrupted run's.

        Which pairs go to the engine next is :meth:`_next_batch`'s rule.
        The record's matches join the union-find only after its last
        answer, so the clusters it groups its candidates by stay put
        while it is being decided.  The index is queried once: with one
        writer no record arrives mid-decision, so every ``chunk_size``
        batch is drawn from the same scan.
        """
        record_id = record.record_id
        #: partner id -> match, for every answer this record got so far.
        verdicts: dict[str, bool] = dict(carried)
        #: pairs skipped so far; they count in the store's totals only
        #: once the record is decided, as recovery counts them.
        passed: set[tuple[str, str]] = set()
        candidates = calls = len(verdicts)
        skipped = 0
        others = self._index.candidates(record.description, exclude=record_id)
        while True:
            todo, remaining, shorted = self._next_batch(
                record_id, others, verdicts, passed
            )
            candidates += len(todo) + shorted
            skipped += shorted
            if not todo:
                break
            results = self.engine.match_pairs(
                [(left, right) for _, left, right in todo]
            )
            calls += len(results)
            decided: list[tuple[str, PairDecision]] = []
            for (other, _, _), result in zip(todo, results):
                first, second = sorted((record_id, other))
                decided.append(
                    (
                        other,
                        PairDecision(
                            left=first,
                            right=second,
                            match=result.decision,
                            score=decision_score(result),
                            source=_normalize_source(result.source),
                        ),
                    )
                )
            if self._journal is not None:
                # Journal (and fsync) the chunk before applying it: once a
                # decision is visible in memory it must survive a crash.
                for _, decision in decided:
                    self._journal.append(
                        {"type": "decision", **decision.as_entry()}
                    )
            self.engine_calls += len(results)
            for other, decision in decided:
                self._decisions.append(decision)
                self._compared.add((decision.left, decision.right))
                verdicts[other] = decision.match
            if not remaining:
                break
        self.short_circuited += skipped
        if self.mode == "transitive":
            for other, match in verdicts.items():
                if match:
                    self._uf.union(record_id, other)
        return candidates, calls, skipped

    def _next_batch(
        self,
        record_id: str,
        others: tuple[str, ...],
        verdicts: dict[str, bool],
        passed: set[tuple[str, str]],
    ) -> tuple[list[tuple[str, str, str]], int, int]:
        """Choose the next pairs of *record_id* to ask the engine about.

        *others* is the record's sorted candidate list, *verdicts* its
        answers so far and *passed* the pairs it skipped so far (this
        call adds the ones it skips).  Returns ``(todo, remaining,
        short_circuited)``: at most ``chunk_size`` ``(other, prompt-left,
        prompt-right)`` entries in id order, how many pending pairs wait
        for a later batch, and how many pairs this call skipped.  The prompt
        descriptions follow the canonical (sorted) pair, not arrival: the
        model's answer is not symmetric in its arguments, so a fixed
        orientation is what keeps each decision, and so the clustering,
        insertion-order-free.

        Without short-circuiting every pending pair is asked.  With it,
        the pending partners are grouped by their current cluster:

        * round A asks one representative, the lowest-id pending member,
          of every cluster the record has no answer from yet;
        * round B, once round A is empty, asks every pending member of
          the clusters that answered no at least once;
        * the pending members of a cluster that answered only yes, and
          of the record's own cluster, are skipped.
        """
        def pair_of(other: str) -> tuple[str, str]:
            if record_id < other:
                return record_id, other
            return other, record_id

        compared = self._compared
        shorted = 0
        if not self.short_circuit:
            fresh = [o for o in others if pair_of(o) not in compared]
            asked = fresh[: self.chunk_size]
            remaining = len(fresh) - len(asked)
        else:
            find = self._uf.find
            said_no = {find(o) for o, yes in verdicts.items() if not yes}
            connected = {find(record_id)} | {
                find(o) for o, yes in verdicts.items() if yes
            }
            #: cluster id -> its lowest-id pending member (others is
            #: sorted, so the first one seen).
            round_a: dict[str, str] = {}
            round_b: list[str] = []
            waiting = 0
            for other in others:
                pair = pair_of(other)
                if pair in compared or pair in passed:
                    continue
                cluster = find(other)
                if cluster in said_no:
                    round_b.append(other)
                elif cluster in connected:
                    passed.add(pair)
                    shorted += 1
                    continue
                else:
                    round_a.setdefault(cluster, other)
                waiting += 1
            asked = (list(round_a.values()) if round_a else round_b)[
                : self.chunk_size
            ]
            remaining = waiting - len(asked)
        todo = []
        for other in asked:
            left, right = pair_of(other)
            todo.append((
                other,
                self._records[left].description,
                self._records[right].description,
            ))
        return todo, remaining, shorted

    def ingest_all(self, records: Sequence[Record]) -> list[IngestResult]:
        """Ingest records in order (a convenience over repeated ``ingest``)."""
        return [self.ingest(record) for record in records]

    # ------------------------------------------------------------- durability

    def journal_seq(self) -> int:
        """Global journal sequence: entries acknowledged since journal birth.

        Monotonic across compactions (a compacted journal's header
        carries the sequence it starts at as ``basis``).  Zero for a
        store without a journal.
        """
        if self._journal is None:
            return self._seq_at_open
        return self._seq_at_open + self._journal.entries

    def snapshot(self, path: str | Path | None = None) -> Path:
        """Checkpoint live state at the current journal sequence.

        The store must be journaled and quiescent (no ingest deciding a
        record): the snapshot's ``seq`` claims to cover exactly the
        journal prefix ``[0, seq)``, which only holds when no
        acknowledged-but-unapplied (or applied-but-unacknowledged) work
        exists.  Returns the path written.  See
        :mod:`repro.resolve.snapshot` for the format.
        """
        if self._journal is None:
            raise ValueError("snapshot requires a journaled store")
        if self._ingesting:
            raise ValueError(
                "snapshot requires a quiescent store (an ingest is deciding "
                "its record)"
            )
        target = (
            Path(path) if path is not None
            else snapshot_path_for(self._journal.path)
        )
        return write_snapshot_doc(target, self._snapshot_doc())

    def _snapshot_doc(self) -> dict:
        """JSON-ready live state (store quiescent)."""
        index_state = None
        state_of = getattr(self._index, "snapshot_state", None)
        if callable(state_of):
            index_state = state_of()
        return {
            "kind": "resolve-snapshot",
            "version": SNAPSHOT_VERSION,
            "mode": self.mode,
            "seq": self.journal_seq(),
            "records": [
                {
                    **_record_entry(record),
                    "committed": record.record_id in self._committed,
                }
                for record in self._records.values()
            ],
            "decisions": [d.as_entry() for d in self._decisions],
            "must_link": [list(pair) for pair in sorted(self._must_pairs)],
            "cannot_link": [list(pair) for pair in self.cannot_link],
            # Materialized partition: restore loads this directly
            # instead of replaying one union per positive decision.
            "components": self._uf.snapshot_state(),
            "engine_calls": self.engine_calls,
            "short_circuited": self.short_circuited,
            "index": {
                "class": type(self._index).__name__,
                "state": index_state,
            },
        }

    def compact(self) -> Path:
        """Snapshot, then swap the journal for a suffix-only file.

        After compaction the journal on disk contains only entries past
        the snapshot (none, immediately after), with ``"basis"`` in its
        header recording the global sequence it starts at — so recovery
        cost is O(live state + suffix) no matter how long the store has
        been running.  Crash-safe at every step: the snapshot write is
        atomic, and the journal swap is a single ``os.replace`` (a crash
        in between leaves the old full journal, which recovery handles
        by skipping the first ``seq - basis`` entries).

        Like :meth:`snapshot`, requires a journaled, quiescent store.
        """
        from repro.faults.journal import JOURNAL_VERSION, JournalWriter

        snapshot_path = self.snapshot()
        seq = self.journal_seq()
        journal_path = self._journal.path
        index_name = type(self._index).__name__
        self._journal.close()
        header = {
            "type": "header",
            "version": JOURNAL_VERSION,
            "kind": "resolve",
            "mode": self.mode,
            "index": index_name,
            "basis": seq,
        }
        # The header-only journal is one JSON line, written as atomically
        # as a snapshot document.
        write_snapshot_doc(journal_path, header)
        self._journal = JournalWriter(journal_path)
        self._seq_at_open = seq
        return snapshot_path

    # --------------------------------------------------------------- recovery

    @classmethod
    def recover(
        cls,
        path: str | Path,
        engine: MatchingEngine,
        **kwargs: object,
    ) -> "ResolutionStore":
        """Rebuild a journaled store after a crash and finish in-flight work.

        Loads the sibling snapshot when one exists (see :meth:`snapshot`)
        and replays only the journal suffix past it; otherwise replays
        the full journal.  Either way the journal is parsed once; when
        that parse saw a torn final line (only a crash mid-append leaves
        one), :func:`~repro.faults.journal.repair` truncates it from the
        file before the store reopens it for appending.  The union-find,
        candidate index and compared-pair state are re-derived from the
        parsed entries, and the comparison loop re-runs for any record
        whose ``commit`` entry never made it to disk.
        Journaled pairs are never re-asked, so the recovered store — and
        the continued run — is byte-identical to one that was never
        interrupted (decision sources are cache-normalized for exactly
        this reason).  The returned store keeps journaling to the same
        file.

        A journal whose header's configuration (kind, mode or index
        class) does not match the resuming store raises a structured
        :class:`~repro.faults.journal.JournalError` carrying the
        offending path and line number.  A journal with no
        acknowledged header — the process died between creating the file
        and fsyncing the header — recovers as an *empty* store, not a
        corrupt one.
        """
        from repro.faults.journal import (
            JournalError,
            journal_header,
            read_journal,
            repair,
        )

        path = Path(path)
        mode = str(kwargs.get("mode", "transitive"))
        snap_path = snapshot_path_for(path)
        state = load_snapshot(snap_path, mode=mode) if snap_path.exists() else None

        with open(path, "rb") as handle:
            first = handle.readline()
        if not first.endswith(b"\n"):
            # Torn header: the journal never acknowledged anything.
            if state is not None:
                raise JournalError(
                    f"{path}: journal has no header but a snapshot exists "
                    f"at {snap_path} (journal file was lost or replaced)",
                    path=path,
                    lineno=1,
                )
            repair(path)
            return cls(engine, journal=path, _recovering=True, **kwargs)  # type: ignore[arg-type]

        entries, torn = read_journal(
            path, expect={"kind": "resolve", "mode": mode}
        )
        if torn:
            # Only a crash mid-append leaves a torn tail; an untorn
            # journal is read once and left as it is.
            repair(path)
        header = journal_header(path)
        basis = header.get("basis", 0)
        if not isinstance(basis, int) or basis < 0:
            raise JournalError(
                f"{path}: journal header basis {basis!r} is not a "
                f"non-negative integer",
                path=path,
                lineno=1,
            )
        store = cls(engine, journal=path, _recovering=True, **kwargs)  # type: ignore[arg-type]
        recovered = False
        try:
            index_cls = type(store._index).__name__
            if "index" in header and header["index"] != index_cls:
                raise JournalError(
                    f"{path}: journal was written through index "
                    f"{header['index']!r} but the resuming store is "
                    f"configured with {index_cls!r}",
                    path=path,
                    lineno=1,
                )
            skip = 0
            pending_snapshot: list[Record] = []
            if state is not None:
                if basis > state["seq"]:
                    raise JournalError(
                        f"{path}: journal basis {basis} is past the snapshot "
                        f"sequence {state['seq']} — entries are missing",
                        path=path,
                        lineno=1,
                    )
                skip = state["seq"] - basis
                if skip > len(entries):
                    raise JournalError(
                        f"{path}: snapshot covers sequence {state['seq']} but "
                        f"the journal only holds {basis + len(entries)} "
                        f"entries",
                        path=path,
                        lineno=1,
                    )
                pending_snapshot = store._restore_snapshot(snap_path, state)
            pending = store._replay(path, entries[skip:], pending_snapshot)
            store._seq_at_open = basis + len(entries)
            for record, carried in pending:
                store._finish(record, carried)
            recovered = True
        finally:
            if not recovered:
                store.close()
        return store

    def _restore_snapshot(self, path: Path, state: dict) -> list[Record]:
        """Load a validated snapshot document; returns uncommitted records."""
        from repro.faults.journal import JournalError

        index_meta = state.get("index") or {}
        index_cls = type(self._index).__name__
        if index_meta.get("class") != index_cls:
            raise JournalError(
                f"{path}: snapshot was taken through index "
                f"{index_meta.get('class')!r} but the resuming store is "
                f"configured with {index_cls!r}",
                path=path,
                lineno=1,
            )
        snapshot_cannot = tuple(
            tuple(pair) for pair in state.get("cannot_link", [])
        )
        if snapshot_cannot != self.cannot_link:
            raise JournalError(
                f"{path}: snapshot cannot-link constraints "
                f"{snapshot_cannot!r} do not match the resuming store's "
                f"{self.cannot_link!r}",
                path=path,
                lineno=1,
            )
        components = state.get("components")
        if components is None:
            raise JournalError(
                f"{path}: snapshot has no materialized components",
                path=path,
                lineno=1,
            )
        records = [_record_from(entry) for entry in state["records"]]
        committed = {
            str(entry["record_id"])
            for entry in state["records"]
            if entry.get("committed", True)
        }
        decisions, keys = PairDecision.adopt_entries(state["decisions"])
        index_state = index_meta.get("state")
        for record in records:
            self._records[record.record_id] = record
        for left, right in keys:
            if left not in self._records or right not in self._records:
                raise JournalError(
                    f"{path}: snapshot decision ({left!r}, {right!r}) names "
                    f"a record the snapshot does not hold",
                    path=path,
                    lineno=1,
                )
        restore = getattr(self._index, "restore_state", None)
        if index_state is not None and callable(restore):
            restore(index_state)
        else:
            # No serialized index state: rebuild it by re-indexing
            # every record in insertion order (same end state, pays
            # tokenization/hashing again).
            self._index.add_many(
                (record.record_id, record.description)
                for record in records
            )
        # Materialized partition: load it flat and register the
        # must-link bookkeeping without re-running a union per pair —
        # connectivity is already in the components.
        self._uf.restore_state(components)
        for a, b in state.get("must_link", []):
            self._register_must_link(str(a), str(b))
        self._decisions.extend(decisions)
        self._compared.update(keys)
        self._committed |= committed
        self.engine_calls = int(state.get("engine_calls", len(decisions)))
        self.short_circuited = int(state.get("short_circuited", 0))
        return [r for r in records if r.record_id not in committed]

    def _replay(
        self,
        path: Path,
        entries: list[dict],
        pending: Sequence[Record] = (),
    ) -> list[tuple[Record, list[tuple[str, bool]]]]:
        """Apply journal *entries* on top of any restored snapshot state.

        *pending* carries snapshot-era uncommitted records; the combined
        (insertion-ordered) list of records still lacking a ``commit``
        entry is returned for :meth:`_finish`, each with the
        ``(partner, match)`` answers journaled on its behalf.  A decision
        belongs to its later-journaled endpoint, the record whose scan
        found it (the one whose entries it sits between).  A decision
        whose endpoint has no record line here and no snapshot record
        raises :class:`~repro.faults.journal.JournalError`.
        """
        from repro.faults.journal import JournalError

        records: list[Record] = []
        committed: set[str] = set()
        decisions: list[PairDecision] = []
        must_pairs: list[tuple[str, str]] = []
        skipped = 0
        for entry in entries:
            kind = entry.get("type")
            if kind == "record":
                records.append(_record_from(entry))
            elif kind == "decision":
                decisions.append(
                    PairDecision(
                        left=str(entry["left"]),
                        right=str(entry["right"]),
                        match=bool(entry["match"]),
                        score=float(entry["score"]),
                        source=str(entry["source"]),
                    )
                )
            elif kind == "commit":
                committed.add(str(entry["record_id"]))
                skipped += int(entry.get("short_circuited", 0))
            elif kind == "must_link":
                must_pairs.append((str(entry["left"]), str(entry["right"])))
            else:
                raise JournalError(
                    f"{path}: unknown journal entry type {kind!r}",
                    path=path,
                )
        fresh: set[str] = set()
        for record in records:
            record_id = record.record_id
            if record_id in self._records or record_id in fresh:
                raise JournalError(
                    f"{path}: record {record_id!r} journaled twice",
                    path=path,
                )
            fresh.add(record_id)
        # One bulk index build; the loop below keeps the per-record
        # union-find and must-link order of a live ingest.
        self._index.add_many(
            (record.record_id, record.description) for record in records
        )
        for record in records:
            self._records[record.record_id] = record
            self._uf.add(record.record_id)
            for partner in self._must_by_member.get(record.record_id, ()):
                if partner in self._records:
                    self._uf.union(record.record_id, partner)
        for a, b in must_pairs:
            self._apply_must_link(a, b)
        unfinished = [
            r for r in (*pending, *records) if r.record_id not in committed
        ]
        #: journal position of each record line; snapshot records rank -1.
        arrival = {record.record_id: i for i, record in enumerate(records)}
        carried: dict[str, list[tuple[str, bool]]] = {
            r.record_id: [] for r in unfinished
        }
        for decision in decisions:
            key = left, right = decision.key
            at_left = arrival.get(left, -1)
            at_right = arrival.get(right, -1)
            if (at_left < 0 and left not in self._records) or (
                at_right < 0 and right not in self._records
            ):
                raise JournalError(
                    f"{path}: decision {key!r} names a record with no "
                    f"record line or snapshot record",
                    path=path,
                )
            self._decisions.append(decision)
            self._compared.add(key)
            owner = right if at_right > at_left else left
            if owner in carried:
                # An unfinished record's matches join the union-find
                # when _finish completes it, as in a live ingest.
                partner = right if owner == left else left
                carried[owner].append((partner, decision.match))
            elif self.mode == "transitive" and decision.match:
                self._uf.union(left, right)
        self.engine_calls += len(decisions)
        self.short_circuited += skipped
        self._committed |= committed
        return [(r, carried[r.record_id]) for r in unfinished]

    def _answers_of(self, record_id: str) -> list[tuple[str, bool]]:
        """The ``(partner, match)`` answers an uncommitted record got
        before its ingest raised: its decisions with the records that
        arrived before it."""
        earlier = set(takewhile(lambda rid: rid != record_id, self._records))
        answers = []
        for decision in self._decisions:
            left, right = decision.key
            if left == record_id and right in earlier:
                answers.append((right, decision.match))
            elif right == record_id and left in earlier:
                answers.append((left, decision.match))
        return answers

    def _finish(
        self, record: Record, carried: Sequence[tuple[str, bool]] = ()
    ) -> tuple[int, int, int]:
        """Decide one indexed record's pairs, then journal its commit.

        Returns :meth:`_decide_candidates`'s counts.  Used by
        :meth:`ingest` and to complete journaled-but-uncommitted records
        after recovery; there the record resumes from its *carried*
        journaled answers, and pairs the crashed run short-circuited
        (never journaled) are re-examined and re-skipped, so the commit
        entry and the store-level totals match an uninterrupted run's.
        """
        self._ingesting = True
        try:
            candidates, calls, skipped = self._decide_candidates(
                record, carried
            )
            if self._journal is not None:
                self._journal.append(
                    {
                        "type": "commit",
                        "record_id": record.record_id,
                        "candidates": candidates,
                        "engine_calls": calls,
                        "short_circuited": skipped,
                    }
                )
        finally:
            self._ingesting = False
        self._committed.add(record.record_id)
        return candidates, calls, skipped

    # --------------------------------------------------------------- read-outs

    def _cluster_of(self, record_id: str) -> tuple[str, int]:
        """Canonical id and size of one record's current cluster.

        Transitive mode without cannot-links reads the live union-find in
        O(1); otherwise the authoritative (constraint-respecting)
        clustering is recomputed from the decision log.
        """
        if self.mode == "transitive" and not self.cannot_link:
            return self._uf.find(record_id), self._uf.size_of(record_id)
        cluster = self.clustering().cluster_of(record_id)
        return cluster[0], len(cluster)

    def _present_constraints(
        self, pairs: tuple[tuple[str, str], ...]
    ) -> tuple[tuple[str, str], ...]:
        """Constraints whose endpoints have both been ingested."""
        return tuple(
            (a, b) for a, b in pairs
            if a in self._records and b in self._records
        )

    def clustering(self) -> Clustering:
        """The current entity partition over every ingested record."""
        must = self._present_constraints(self.must_link)
        cannot = self._present_constraints(self.cannot_link)
        return cluster(
            self.mode, tuple(self._records), self._decisions, must, cannot,
            self.min_agreement,
        )

    def golden_records(self) -> dict[str, Record]:
        """Cluster id → golden record for the current partition."""
        return golden_records(self.clustering(), self._records)

    def decisions(self) -> tuple[PairDecision, ...]:
        """Every engine decision so far, in canonical sorted order."""
        return tuple(sorted(self._decisions, key=lambda d: (d.key, d.source)))

    def decision_log(self) -> tuple[PairDecision, ...]:
        """Every engine decision so far, in append (journal) order.

        The log order is itself deterministic for a given journal, and
        skipping the canonical sort makes this the cheap accessor for
        bulk consumers such as benchmarks that walk the whole history.
        """
        return tuple(self._decisions)

    def records(self) -> tuple[Record, ...]:
        """Ingested records, sorted by record id."""
        return tuple(
            self._records[record_id] for record_id in sorted(self._records)
        )
