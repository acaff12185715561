"""Chaos invariant harness: sweep fault rates, assert engine guarantees.

The harness runs the two online workloads — engine matching
(:meth:`~repro.engine.MatchingEngine.match_pairs`) and incremental
resolution (:meth:`~repro.resolve.incremental.ResolutionStore.ingest_all`)
— against a :class:`~repro.faults.backend.FaultyBackend` over a grid of
seeds and fault rates, and checks the invariants the engine promises no
matter how the backend misbehaves:

* **No request lost or answered twice** — one result per input pair, in
  input order, each with a legal source.
* **Exact counter conservation** — ``backend + fallback + cache`` answers
  equal ``requests``, and every balance the engine declares in
  :attr:`~repro.engine.stats.EngineStats.RULES` holds (e.g. per-class
  error counters sum to ``retries + failures``).
* **Fallback fidelity** — every degraded answer equals what a standalone
  :class:`~repro.baselines.threshold.ThresholdMatcher` says for that pair.
* **Transparency at rate 0** — wrapping the backend with a zero-rate
  plan changes nothing, byte for byte (responses, decisions, sources,
  clusterings).
* **Determinism** — the whole chaos run is a pure function of
  ``(seed, fault_rate, workload)``; reports carry a stable fingerprint
  so two runs can be compared bit-for-bit.

Violations are *collected*, not raised: a :class:`ChaosReport` with a
non-empty ``violations`` tuple is a failing run, and the CLI / CI job
turn that into a non-zero exit.  Time is simulated throughout
(:class:`~repro.faults.clock.ManualClock`), so a sweep costs milliseconds
and injected timeouts are exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro._util import derive_rng, stable_hash
from repro.baselines.threshold import ThresholdMatcher
from repro.datasets.schema import EntityPair, Record, Split
from repro.engine.engine import MatchingEngine, MatchResult
from repro.engine.retry import CircuitBreaker, RetryPolicy
from repro.faults.backend import CrashingBackend, FaultyBackend, SimulatedCrash
from repro.faults.clock import ManualClock
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.resolve.incremental import ResolutionStore

__all__ = [
    "ChaosReport",
    "ParityBackend",
    "build_chaos_engine",
    "chaos_engine_on",
    "chaos_match",
    "chaos_resolve",
    "kill_resume_roundtrip",
    "resolution_snapshot",
    "sweep",
    "synthetic_pairs",
    "synthetic_records",
]

#: simulated-time knobs: an injected timeout advances the clock past the
#: per-attempt budget *and* past the breaker cooldown, so opened circuits
#: can recover within a run instead of pinning everything to fallback.
_TIMEOUT_BUDGET = 1.0
_TIMEOUT_ADVANCE = 2.5
_COOLDOWN = 2.0

_VALID_SOURCES = ("backend", "cache", "fallback")


# ------------------------------------------------------------------ workloads

_VOCAB = (
    "acme", "anvil", "turbo", "widget", "gadget", "ultra", "mini", "max",
    "laptop", "phone", "router", "camera", "mixer", "drill", "kettle",
)


def synthetic_records(count: int, seed: int = 0, duplicates: int = 3) -> list[Record]:
    """Deterministic dedup workload: families of near-duplicate records.

    Records in one family share a three-token base description (so token
    blocking surfaces them as candidates) plus a per-record variant token
    drawn from the seeded stream.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = derive_rng(seed, "chaos-records")
    records = []
    for i in range(count):
        family = i // max(duplicates, 1)
        base = [_VOCAB[(family * 3 + j) % len(_VOCAB)] for j in range(3)]
        variant = _VOCAB[int(rng.integers(len(_VOCAB)))]
        records.append(
            Record(
                record_id=f"r{i:03d}",
                attributes={"family": str(family)},
                description=" ".join(base + [variant, f"rev{i % max(duplicates, 1)}"]),
            )
        )
    return records


def synthetic_pairs(count: int, seed: int = 0) -> list[tuple[str, str]]:
    """Deterministic matching workload with natural repeats.

    Pairs are drawn (with replacement) from a small record pool, so a
    realistic share of them are exact repeats — which is what exercises
    the cache and in-flight dedup paths under chaos.
    """
    records = synthetic_records(max(8, count // 2), seed=seed)
    rng = derive_rng(seed, "chaos-pairs")
    pairs = []
    for _ in range(count):
        a = int(rng.integers(len(records)))
        b = int(rng.integers(len(records)))
        pairs.append((records[a].description, records[b].description))
    return pairs


class ParityBackend:
    """Deterministic inner backend: the answer is a pure function of the
    prompt (stable-hash parity), so any two runs — sequential, threaded,
    resumed — must agree bit-for-bit."""

    name = "parity"

    def generate(self, prompts: list[str]) -> list[str]:
        return [
            "Yes." if stable_hash(prompt) % 2 == 0 else "No."
            for prompt in prompts
        ]


# -------------------------------------------------------------------- engine


def build_chaos_engine(
    plan: FaultPlan,
    inner=None,
    failure_threshold: int = 3,
) -> tuple[MatchingEngine, FaultyBackend, ManualClock]:
    """Engine over a fault-injected backend, fully on simulated time."""
    clock = ManualClock()
    backend = FaultyBackend(
        inner if inner is not None else ParityBackend(),
        plan,
        clock=clock,
        timeout_advance=_TIMEOUT_ADVANCE,
    )
    engine = chaos_engine_on(backend, clock, plan.seed, failure_threshold)
    return engine, backend, clock


def chaos_engine_on(backend, clock: ManualClock, seed: int, failure_threshold: int = 3) -> MatchingEngine:
    """The harness's fixed engine configuration over any backend.

    The rate-0 transparency check compares a wrapped engine against an
    un-wrapped one, so both must share every other knob — batch size
    changes which repeated prompt is deduped in-flight versus
    answered from the cache, which is a legitimate (and observable)
    source difference.
    """
    engine = MatchingEngine(
        backend=backend,
        # Small micro-batches: more backend calls per run means more
        # fault draws, so a modest workload still exercises every kind.
        batch_size=8,
        retry=RetryPolicy(timeout=_TIMEOUT_BUDGET, seed=seed),
        breaker=CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown=_COOLDOWN,
            clock=clock,
        ),
        clock=clock,
        sleep=clock.sleep,
    )
    return engine


# -------------------------------------------------------------------- report


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos run (one workload × one seed × one rate)."""

    kind: str
    seed: int
    fault_rate: float
    requests: int
    #: answers by source ("backend" / "cache" / "fallback").
    sources: dict
    #: fault kind → injections performed by the faulty backend.
    injected: dict
    #: engine counter snapshot (``EngineStats.as_dict``: no timings).
    stats: dict
    #: cluster count (resolve runs only).
    clusters: int | None
    #: human-readable invariant violations; empty means the run passed.
    violations: tuple
    #: stable hash of every decision the run produced.
    fingerprint: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "requests": self.requests,
            "sources": dict(self.sources),
            "injected": dict(self.injected),
            "stats": dict(self.stats),
            "clusters": self.clusters,
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
            "ok": self.ok,
        }


# ---------------------------------------------------------------- invariants


def _match_conservation_violations(
    engine: MatchingEngine, results: Sequence[MatchResult]
) -> list[str]:
    """Source-level conservation for the raw ``match_pairs`` shape."""
    violations = engine.stats.violations()
    stats = engine.stats.as_dict()
    sources = Counter(result.source for result in results)
    answered = sum(sources[s] for s in _VALID_SOURCES)
    if answered != stats["requests"]:
        violations.append(
            f"conservation: backend+cache+fallback answers {answered} "
            f"!= requests {stats['requests']}"
        )
    for source in sources:
        if source not in _VALID_SOURCES:
            violations.append(f"illegal result source {source!r}")
    if sources["cache"] != stats["cache_hits"]:
        violations.append(
            f"cache answers {sources['cache']} != cache_hits "
            f"{stats['cache_hits']}"
        )
    if sources["fallback"] != stats["fallbacks"]:
        violations.append(
            f"fallback answers {sources['fallback']} != fallbacks counter "
            f"{stats['fallbacks']}"
        )
    return violations


def _resolve_conservation_violations(
    engine: MatchingEngine, decisions: Sequence
) -> list[str]:
    """Conservation for the resolution shape (cache-normalized sources)."""
    violations = engine.stats.violations()
    stats = engine.stats.as_dict()
    sources = Counter(decision.source for decision in decisions)
    if len(decisions) != stats["requests"]:
        violations.append(
            f"{len(decisions)} decisions recorded for {stats['requests']} "
            f"engine requests"
        )
    if sources["fallback"] != stats["fallbacks"]:
        violations.append(
            f"fallback decisions {sources['fallback']} != fallbacks counter "
            f"{stats['fallbacks']}"
        )
    # The store folds "cache" into "backend", so the remaining answers
    # must all be backend-sourced and complement the fallbacks exactly.
    if sources["backend"] != stats["requests"] - stats["fallbacks"]:
        violations.append(
            f"backend decisions {sources['backend']} != requests - fallbacks "
            f"({stats['requests']} - {stats['fallbacks']})"
        )
    for source in sources:
        if source not in ("backend", "fallback"):
            violations.append(f"illegal decision source {source!r}")
    return violations


def _fallback_violations(results: Sequence[MatchResult]) -> list[str]:
    """Degraded answers must equal the standalone threshold baseline."""
    degraded = [r for r in results if r.source == "fallback"]
    if not degraded:
        return []
    pairs = [
        EntityPair(
            pair_id=f"check-{i}",
            left=Record(record_id=f"c-{i}-l", attributes={}, description=r.left),
            right=Record(record_id=f"c-{i}-r", attributes={}, description=r.right),
            label=False,
        )
        for i, r in enumerate(degraded)
    ]
    expected = ThresholdMatcher().predict(Split(name="fallback-check", pairs=pairs))
    return [
        f"fallback decision for pair {i} is {result.decision}, "
        f"standalone ThresholdMatcher says {bool(want)}"
        for i, (result, want) in enumerate(zip(degraded, expected))
        if result.decision != bool(want)
    ]


def _results_fingerprint(results: Sequence[MatchResult]) -> str:
    return f"{stable_hash(*((r.decision, r.source, r.response) for r in results)):016x}"


# ------------------------------------------------------------------ chaos runs


def chaos_match(
    seed: int = 0,
    fault_rate: float = 0.0,
    kinds: tuple = FAULT_KINDS,
    pair_count: int = 96,
    pairs: "list[tuple[str, str]] | None" = None,
) -> ChaosReport:
    """One matching chaos run: fault-injected ``match_pairs`` + invariants."""
    if pairs is None:
        pairs = synthetic_pairs(pair_count, seed=seed)
    plan = FaultPlan(seed=seed, fault_rate=fault_rate, kinds=kinds)
    engine, backend, _ = build_chaos_engine(plan)
    results = engine.match_pairs(pairs)

    violations: list[str] = []
    if len(results) != len(pairs):
        violations.append(
            f"{len(pairs)} pairs in, {len(results)} answers out"
        )
    violations += _match_conservation_violations(engine, results)
    violations += _fallback_violations(results)
    if fault_rate == 0.0:
        # Transparency: the wrapper at rate 0 must change nothing.
        plain = chaos_engine_on(ParityBackend(), ManualClock(), seed)
        baseline = plain.match_pairs(pairs)
        if baseline != results:
            violations.append(
                "rate-0 run differs from the un-wrapped engine's answers"
            )

    return ChaosReport(
        kind="match",
        seed=seed,
        fault_rate=fault_rate,
        requests=len(pairs),
        sources=dict(Counter(r.source for r in results)),
        injected=backend.injected_counts(),
        stats=engine.stats.as_dict(),
        clusters=None,
        violations=tuple(violations),
        fingerprint=_results_fingerprint(results),
    )


def chaos_resolve(
    seed: int = 0,
    fault_rate: float = 0.0,
    kinds: tuple = FAULT_KINDS,
    record_count: int = 30,
    records: "list[Record] | None" = None,
    journal: "str | Path | None" = None,
) -> ChaosReport:
    """One resolution chaos run: fault-injected ``ingest_all`` + invariants."""
    if records is None:
        records = synthetic_records(record_count, seed=seed)
    plan = FaultPlan(seed=seed, fault_rate=fault_rate, kinds=kinds)
    engine, backend, _ = build_chaos_engine(plan)
    with ResolutionStore(engine, journal=journal) as store:
        store.ingest_all(records)
        clustering = store.clustering()
        decisions = store.decisions()

    violations: list[str] = []
    clustered = sorted(m for cluster in clustering.clusters for m in cluster)
    if clustered != sorted(r.record_id for r in records):
        violations.append(
            "clustering is not a partition of the ingested records"
        )
    keys = [d.key for d in decisions]
    if len(keys) != len(set(keys)):
        violations.append("some candidate pair was decided twice")
    violations += _resolve_conservation_violations(engine, decisions)
    if fault_rate == 0.0:
        with ResolutionStore(
            chaos_engine_on(ParityBackend(), ManualClock(), seed)
        ) as plain:
            plain.ingest_all(records)
            plain_clustering = plain.clustering()
            plain_decisions = plain.decisions()
        if plain_clustering != clustering:
            violations.append(
                "rate-0 clustering differs from the un-wrapped engine's"
            )
        if plain_decisions != decisions:
            violations.append(
                "rate-0 decision log differs from the un-wrapped engine's"
            )

    return ChaosReport(
        kind="resolve",
        seed=seed,
        fault_rate=fault_rate,
        requests=len(records),
        sources=dict(Counter(d.source for d in decisions)),
        injected=backend.injected_counts(),
        stats=engine.stats.as_dict(),
        clusters=len(clustering.clusters),
        violations=tuple(violations),
        fingerprint=f"{stable_hash(clustering.clusters, tuple(decisions)):016x}",
    )


# ------------------------------------------------------------------ sweeping


def sweep(
    seeds: Sequence[int] = (0, 1, 2),
    rates: Sequence[float] = (0.0, 0.3),
    kinds: tuple = FAULT_KINDS,
    pair_count: int = 96,
    record_count: int = 30,
) -> list[ChaosReport]:
    """The full chaos grid: both workloads × every seed × every rate."""
    reports = []
    for seed in seeds:
        for rate in rates:
            reports.append(
                chaos_match(
                    seed=seed, fault_rate=rate, kinds=kinds,
                    pair_count=pair_count,
                )
            )
            reports.append(
                chaos_resolve(
                    seed=seed, fault_rate=rate, kinds=kinds,
                    record_count=record_count,
                )
            )
    return reports


# ------------------------------------------------------------- kill / resume


def resolution_snapshot(store: ResolutionStore) -> dict:
    """Canonical JSON-ready view of a store's final state.

    This is the object kill/resume byte-identity is asserted over:
    clustering, decision log, and golden records — everything a consumer
    of the store can observe.
    """
    return {
        "clusters": [list(cluster) for cluster in store.clustering().clusters],
        "decisions": [d.as_entry() for d in store.decisions()],
        "golden": {
            cluster_id: record.description
            for cluster_id, record in sorted(store.golden_records().items())
        },
    }


def kill_resume_roundtrip(
    journal: "str | Path",
    seed: int = 0,
    record_count: int = 30,
    kill_every: int = 3,
    max_incarnations: int = 1000,
) -> dict:
    """Crash-loop an ingestion and prove the resumed result is identical.

    Runs the reference ingestion uninterrupted, then replays the same
    workload through a :class:`CrashingBackend` that dies every
    *kill_every* backend batches, recovering from the journal after each
    death, until the run completes.  Returns both snapshots plus crash
    accounting; ``identical`` is the byte-identity verdict.
    """
    if kill_every < 1:
        raise ValueError("kill_every must be at least 1 (0 never progresses)")
    records = synthetic_records(record_count, seed=seed)

    with ResolutionStore(
        MatchingEngine(
            backend=ParityBackend(),
            retry=RetryPolicy(timeout=_TIMEOUT_BUDGET, seed=seed),
        )
    ) as reference_store:
        reference_store.ingest_all(records)
        reference = resolution_snapshot(reference_store)

    path = Path(journal)
    crashes = 0
    resumed: dict | None = None
    for _ in range(max_incarnations):
        engine = MatchingEngine(
            backend=CrashingBackend(ParityBackend(), kill_after=kill_every),
            retry=RetryPolicy(timeout=_TIMEOUT_BUDGET, seed=seed),
        )
        store: ResolutionStore | None = None
        try:
            if path.exists() and path.stat().st_size:
                store = ResolutionStore.recover(path, engine)
            else:
                store = ResolutionStore(engine, journal=path)
            for record in records:
                if record.record_id not in store:
                    store.ingest(record)
        except SimulatedCrash:
            crashes += 1
            continue
        finally:
            # Each incarnation's journal handle dies with it, exactly as
            # a real process death would drop the fd — resume must work
            # from the on-disk journal alone.  (A closed store stays
            # readable, so the snapshot below still works.)
            if store is not None:
                store.close()
        resumed = resolution_snapshot(store)
        break
    else:  # pragma: no cover — kill_every >= 1 guarantees progress
        raise RuntimeError("kill/resume loop failed to converge")

    assert resumed is not None
    return {
        "seed": seed,
        "records": record_count,
        "kill_every": kill_every,
        "crashes": crashes,
        "identical": resumed == reference,
        "reference": reference,
        "resumed": resumed,
    }
