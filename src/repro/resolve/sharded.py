"""Sharded, durable entity resolution: N journal-backed stores, one clustering.

:class:`ShardedResolutionStore` partitions an online resolution workload
over ``K`` independent :class:`~repro.resolve.incremental.ResolutionStore`
shards, each with its own write-ahead journal (and snapshot) in one
directory — so shards crash, recover, and compact independently, and
recovery parallelizes across them.

**Routing: replicate on blocking keys.**  A record is ingested into
*every* shard that owns one of its blocking keys (``key % K``, a pure
function of the key).  Keys come from the candidate index itself
(:meth:`~repro.index.protocol.CandidateIndex.blocking_keys`): stable
token hashes for the shared-token index, LSH band keys for the MinHash
index — so for any pair the index would ever surface as candidates, the
two key sets intersect, and the pair **co-occurs in at least one
shard**, where the full pairwise predicate (and the engine) decides it.
A record with no blocking keys is a candidate for nothing; it is stored
on a single hash-routed shard purely for durability.

**Why K shards ≡ 1 shard (byte-identical clustering).**  Candidacy is a
symmetric function of the two records alone and the engine is
deterministic per pair, so the union of shard-local positive decisions
spans the same connectivity as the unsharded run's: every unsharded
candidate pair is a candidate in some shard, where it is either decided
(same verdict) or short-circuited — and a shard only short-circuits a
pair whose endpoints are already connected by genuine global positive
edges (its own decisions plus delivered cross-shard merges, below).
Connected components over the union therefore equal the unsharded
components, and :meth:`clustering` — computed from the deduplicated
global decision set plus user constraints — is byte-identical for every
shard count, insertion order, and kill/resume schedule.  See DESIGN.md
§18 for the worked argument.

**Cross-shard merge delivery.**  Each positive decision is delivered
as soon as its shard returns it — deterministically, in decision order,
to co-owning shards in ascending shard order — as an idempotent
journaled must-link (:meth:`ResolutionStore.add_must_link`).  Delivery
never changes the clustering (the pair is already a global positive
edge); it teaches sibling shards about connectivity they did not decide
themselves, so their short-circuiting saves the duplicate engine calls
replication would otherwise cost.  Delivery to a dead shard is simply
skipped: :meth:`resume_shard` re-drains the full decision history
(idempotence makes that free of duplicates).

**Crash model.**  :meth:`kill_shard` drops a shard exactly as a process
death would — the journal handle closes, nothing else is flushed —
while the other shards keep ingesting; records routed to a dead shard
wait in a per-shard backlog.  :meth:`resume_shard` recovers the shard
from its journal (snapshot-aware, torn-tail repairing), re-drains
merges, and replays the backlog.  :meth:`recover` rebuilds the whole
fleet, repairing and replaying **all shards concurrently** before one
final re-drain.

The wrapper itself is synchronized externally (one ingesting driver);
the per-shard stores keep their own locks, so reads and recovery can
still overlap shard-internally.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro._util import stable_hash
from repro.concurrency import idempotent
from repro.datasets.schema import Record
from repro.engine.engine import MatchingEngine
from repro.index.protocol import CandidateIndex
from repro.resolve.canonical import golden_records
from repro.resolve.clusterer import Clustering, PairDecision, cluster
from repro.resolve.incremental import ResolutionStore, TokenCandidateIndex

__all__ = [
    "ShardedIngestResult",
    "ShardedResolutionStore",
    "route_record",
    "shard_journal_path",
]


def shard_journal_path(directory: str | Path, shard: int) -> Path:
    """Canonical journal path of one shard within a store directory."""
    return Path(directory) / f"shard-{shard:03d}.journal"


def route_record(
    record: Record, shards: int, router: CandidateIndex
) -> tuple[int, ...]:
    """Owner shards of one record: ``key % shards`` over its blocking keys.

    A pure function of the record's description (plus its id for the
    key-less durability fallback), shared by the façade's router and by
    external ingest drivers — e.g. one journal-writer process per shard —
    that must agree with it byte-for-byte.  Key-less records (no blocking
    tokens) are candidates for nothing; they get a single hash-routed
    home shard for durability only.
    """
    keys = router.blocking_keys(record.description)
    if not keys:
        return (stable_hash("route", record.record_id) % shards,)
    return tuple(sorted({key % shards for key in keys}))


@dataclass(frozen=True)
class ShardedIngestResult:
    """What one sharded ``ingest`` call did, aggregated over owner shards."""

    record_id: str
    #: shard numbers the record was routed to (replication set).
    owners: tuple
    #: owner shards that were dead — the record is backlogged there.
    deferred: tuple
    #: summed over owner shards (replication makes these ≥ the unsharded
    #: run's per-record numbers; cross-shard must-links claw most back).
    candidates: int
    engine_calls: int
    short_circuited: int
    #: canonical pairs newly decided as matches across all owner shards.
    merges: tuple


class ShardedResolutionStore:
    """K independent journal-backed resolution shards behind one façade."""

    _shards: "list[ResolutionStore | None]"

    def __init__(
        self,
        engines: MatchingEngine | Sequence[MatchingEngine],
        directory: str | Path,
        shards: int = 4,
        mode: str = "transitive",
        index_factory: Callable[[], CandidateIndex] | None = None,
        min_agreement: float = 0.5,
        chunk_size: int = 32,
        short_circuit: bool = True,
        must_link: Iterable[tuple[str, str]] = (),
        cannot_link: Iterable[tuple[str, str]] = (),
        _stores: "list[ResolutionStore] | None" = None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.directory = Path(directory)
        self.shards = shards
        self.mode = mode
        self._index_factory = index_factory or TokenCandidateIndex
        #: routing-only index instance — never ingested into; its
        #: ``blocking_keys`` must be a pure function of the description,
        #: which every CandidateIndex implementation guarantees.
        self._router = self._index_factory()
        self._store_kwargs = {
            "mode": mode,
            "min_agreement": min_agreement,
            "chunk_size": chunk_size,
            "short_circuit": short_circuit,
            "must_link": tuple(must_link),
            "cannot_link": tuple(cannot_link),
        }
        self._engines = self._spread_engines(engines, shards)
        if _stores is not None:
            self._shards = list(_stores)
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._shards = [
                ResolutionStore(
                    self._engines[i],
                    index=self._index_factory(),
                    journal=shard_journal_path(self.directory, i),
                    journal_meta={"shard": i, "shards": shards},
                    **self._store_kwargs,
                )
                for i in range(shards)
            ]
        #: records routed to a dead shard, replayed on resume (in order).
        self._backlog: dict[int, list[Record]] = {i: [] for i in range(shards)}
        #: replication set per record id (pure function of the
        #: description, cached so merge delivery never re-tokenizes).
        self._owners: dict[str, tuple[int, ...]] = {}
        for shard in self._shards:
            for record in shard.records():
                if record.record_id not in self._owners:
                    self._owners[record.record_id] = self._route(record)

    @staticmethod
    def _spread_engines(
        engines: MatchingEngine | Sequence[MatchingEngine], shards: int
    ) -> "list[MatchingEngine]":
        if isinstance(engines, MatchingEngine):
            return [engines] * shards
        spread = list(engines)
        if len(spread) != shards:
            raise ValueError(
                f"got {len(spread)} engines for {shards} shards "
                f"(pass one shared engine, or exactly one per shard)"
            )
        return spread

    # ---------------------------------------------------------------- routing

    def _route(self, record: Record) -> tuple[int, ...]:
        """Owner shards of one record (see :func:`route_record`)."""
        return route_record(record, self.shards, self._router)

    def owners_of(self, record: Record) -> tuple[int, ...]:
        """The (cached) replication set of a record."""
        owners = self._owners.get(record.record_id)
        if owners is None:
            owners = self._route(record)
            self._owners[record.record_id] = owners
        return owners

    def _deliver(self, source: int, pair: tuple[str, str]) -> None:
        """Hand one merge to every live co-owning shard except its source."""
        left_owners = self._owners.get(pair[0], ())
        right_owners = self._owners.get(pair[1], ())
        for target in sorted(set(left_owners) & set(right_owners)):
            if target == source:
                continue
            shard = self._shards[target]
            if shard is None:
                # Dead shard: resume_shard re-drains the full decision
                # history, so dropping the delivery here loses nothing.
                continue
            shard.add_must_link(pair[0], pair[1])

    # -------------------------------------------------------------- ingestion

    def ingest(self, record: Record) -> ShardedIngestResult:
        """Route one record to its owner shards and propagate its merges.

        Idempotent per shard (a shard that already holds the record is
        skipped), so a driver that crashed mid-call can simply re-ingest
        the same record after recovery.  Owner shards that are currently
        dead defer the record to their backlog.
        """
        owners = self.owners_of(record)
        deferred: list[int] = []
        candidates = engine_calls = short_circuited = 0
        merges: list[tuple[str, str]] = []
        for owner in owners:
            shard = self._shards[owner]
            if shard is None:
                self._backlog[owner].append(record)
                deferred.append(owner)
                continue
            if record.record_id in shard:
                continue
            result = shard.ingest(record)
            candidates += result.candidates
            engine_calls += result.engine_calls
            short_circuited += result.short_circuited
            for pair in result.merges:
                if pair not in merges:
                    merges.append(pair)
                if self.mode == "transitive":
                    self._deliver(owner, pair)
        return ShardedIngestResult(
            record_id=record.record_id,
            owners=owners,
            deferred=tuple(deferred),
            candidates=candidates,
            engine_calls=engine_calls,
            short_circuited=short_circuited,
            merges=tuple(merges),
        )

    def ingest_all(self, records: Sequence[Record]) -> "list[ShardedIngestResult]":
        """Ingest records in order."""
        return [self.ingest(record) for record in records]

    def __len__(self) -> int:
        return len(self._known_records())

    def __contains__(self, record_id: str) -> bool:
        return any(
            shard is not None and record_id in shard for shard in self._shards
        )

    # ------------------------------------------------------------- durability

    def snapshot(self) -> "list[Path]":
        """Checkpoint every live shard (see ``ResolutionStore.snapshot``)."""
        return [
            shard.snapshot() for shard in self._shards if shard is not None
        ]

    def compact(self) -> "list[Path]":
        """Snapshot + journal-swap every live shard."""
        return [
            shard.compact() for shard in self._shards if shard is not None
        ]

    def kill_shard(self, shard: int) -> None:
        """Simulate one shard's process dying mid-run.

        The journal handle closes (exactly what the OS would do) and the
        shard's in-memory state is discarded; every other shard keeps
        serving.  Records routed here meanwhile accumulate in the
        backlog until :meth:`resume_shard`.
        """
        store = self._shards[shard]
        if store is None:
            raise ValueError(f"shard {shard} is already dead")
        store.close()
        self._shards[shard] = None

    def resume_shard(
        self, shard: int, engine: MatchingEngine | None = None
    ) -> None:
        """Recover one dead shard from its journal and catch it up.

        Recovery repairs the torn tail, loads the shard snapshot if one
        exists, replays the journal suffix, and finishes interrupted
        ingests; then the full cross-shard decision history is re-drained
        (idempotent) and the backlog replayed, so the resumed shard is
        byte-identical to one that never died.  The recovered store is
        owned by (and reachable through) this façade, which closes it.
        """
        if self._shards[shard] is not None:
            raise ValueError(f"shard {shard} is still alive")
        if engine is not None:
            self._engines[shard] = engine
        store = ResolutionStore.recover(
            shard_journal_path(self.directory, shard),
            self._engines[shard],
            index=self._index_factory(),
            journal_meta={"shard": shard, "shards": self.shards},
            **self._store_kwargs,
        )
        self._shards[shard] = store
        self._redrain()
        backlog = self._backlog[shard]
        while backlog:
            record = backlog.pop(0)
            if record.record_id not in store:
                result = store.ingest(record)
                if self.mode == "transitive":
                    for pair in result.merges:
                        self._deliver(shard, pair)

    def _redrain(self) -> None:
        """Re-deliver positive decisions a shard is actually missing.

        Idempotent (receiving shards dedup), deterministic (shards in
        ascending order, decisions in canonical order), and the recovery
        counterpart of per-ingest delivery: it repairs any must-link a
        shard missed while it was dead.  Incremental: the decision
        history is consulted in full, but a pair is only delivered when
        some live co-owner does not already know it — after a clean
        recovery that is zero deliveries, so re-drain cost tracks the
        missing knowledge, not the history length.
        """
        if self.mode != "transitive":
            return
        known: "list[set | None]" = [
            None if shard is None else shard.known_pairs()
            for shard in self._shards
        ]
        seen: set = set()
        for owner, shard in enumerate(self._shards):
            if shard is None:
                continue
            for decision in shard.decision_log():
                if not decision.match:
                    continue
                left, right = decision.left, decision.right
                key = (left, right) if left <= right else (right, left)
                if key in seen:
                    continue
                seen.add(key)
                left_owners = self._owners.get(key[0], ())
                right_owners = self._owners.get(key[1], ())
                for target in set(left_owners) & set(right_owners):
                    if target == owner:
                        continue
                    pairs = known[target]
                    if pairs is None or key in pairs:
                        continue
                    # _deliver fans out to every live co-owner, so one
                    # delivery per missing pair is enough.
                    self._deliver(owner, key)
                    break

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        engines: MatchingEngine | Sequence[MatchingEngine],
        shards: int | None = None,
        **kwargs: object,
    ) -> "ShardedResolutionStore":
        """Rebuild a whole sharded store, recovering all shards in parallel.

        Every shard journal repairs its torn tail, loads its snapshot,
        and replays its suffix **concurrently** (they are independent
        files and independent stores); one re-drain afterwards
        restores cross-shard connectivity knowledge.  ``shards`` defaults
        to the number of ``shard-*.journal`` files present.
        """
        directory = Path(directory)
        if shards is None:
            shards = len(sorted(directory.glob("shard-*.journal")))
            if shards == 0:
                raise ValueError(f"no shard journals under {directory}")
        engine_list = cls._spread_engines(engines, shards)
        factory = kwargs.get("index_factory") or TokenCandidateIndex
        store_kwargs = {
            key: kwargs[key]
            for key in (
                "mode", "min_agreement", "chunk_size", "short_circuit",
                "must_link", "cannot_link",
            )
            if key in kwargs
        }
        recovered: "list[ResolutionStore | None]" = [None] * shards

        def recover_shard(i: int) -> None:
            recovered[i] = ResolutionStore.recover(
                shard_journal_path(directory, i),
                engine_list[i],
                index=factory(),  # type: ignore[operator]
                journal_meta={"shard": i, "shards": shards},
                **store_kwargs,  # type: ignore[arg-type]
            )

        try:
            with ThreadPoolExecutor(max_workers=min(shards, 8)) as pool:
                # list() propagates the first per-shard failure.
                list(pool.map(recover_shard, range(shards)))
        except BaseException:
            for shard in recovered:
                if shard is not None:
                    shard.close()
            raise
        store = cls(
            engine_list,
            directory,
            shards=shards,
            _stores=recovered,  # type: ignore[arg-type]
            **kwargs,  # type: ignore[arg-type]
        )
        store._redrain()
        return store

    @idempotent
    def close(self) -> None:
        """Close every live shard journal."""
        for shard in self._shards:
            if shard is not None:
                shard.close()

    def __enter__(self) -> "ShardedResolutionStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- read-outs

    def _known_records(self) -> "dict[str, Record]":
        """Union of records across live shards (replication deduplicated)."""
        known: dict[str, Record] = {}
        for shard in self._shards:
            if shard is None:
                continue
            for record in shard.records():
                known.setdefault(record.record_id, record)
        return known

    def decisions(self) -> tuple[PairDecision, ...]:
        """The global decision set: shard decisions deduplicated by pair.

        A replicated pair may be decided by more than one shard; the
        engine is deterministic per pair, so the copies agree and the
        first (lowest shard number) is kept.
        """
        merged: dict[tuple[str, str], PairDecision] = {}
        for shard in self._shards:
            if shard is None:
                continue
            for decision in shard.decisions():
                merged.setdefault(decision.key, decision)
        return tuple(
            sorted(merged.values(), key=lambda d: (d.key, d.source))
        )

    def clustering(self) -> Clustering:
        """The global partition over every record on a live shard.

        Computed from the deduplicated decision set plus the *user's*
        constraints — cross-shard delivered must-links are derived from
        decisions already in the set, so they are deliberately not
        re-added here.
        """
        records = self._known_records()
        elements = tuple(sorted(records))
        decisions = self.decisions()
        present = set(records)
        must = tuple(
            (a, b)
            for a, b in self._store_kwargs["must_link"]
            if a in present and b in present
        )
        cannot = tuple(
            (a, b)
            for a, b in self._store_kwargs["cannot_link"]
            if a in present and b in present
        )
        return cluster(
            self.mode, elements, decisions, must, cannot,
            float(self._store_kwargs["min_agreement"]),
        )

    def golden_records(self) -> "dict[str, Record]":
        """Cluster id → golden record for the current global partition."""
        return golden_records(self.clustering(), self._known_records())

    def stats(self) -> "dict[str, object]":
        """Aggregate and per-shard operational counters."""
        per_shard: list[dict[str, object] | None] = []
        for shard in self._shards:
            if shard is None:
                per_shard.append(None)
                continue
            per_shard.append(
                {
                    "records": len(shard),
                    "decisions": len(shard.decisions()),
                    "engine_calls": shard.engine_calls,
                    "short_circuited": shard.short_circuited,
                    "journal_seq": shard.journal_seq(),
                }
            )
        return {
            "shards": self.shards,
            "mode": self.mode,
            "records": len(self),
            "decisions": len(self.decisions()),
            "dead_shards": [
                i for i, shard in enumerate(self._shards) if shard is None
            ],
            "backlogged": sum(len(b) for b in self._backlog.values()),
            "per_shard": per_shard,
        }
