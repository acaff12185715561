"""Durability: sharded recovery time — full journal replay vs snapshot.

One journal-writer **process per shard** (``multiprocessing`` fork, the
deployment shape the sharded store is built for) ingests a seeded
synthetic corpus routed by blocking key, each worker journaling — and,
in the snapshot variants, compacting — its own shard independently.
The parent then measures :meth:`ShardedResolutionStore.recover` wall
time over the resulting directory at three snapshot coverages of the
same corpus:

* ``replay``   — no snapshot: recovery replays the full journal history.
* ``half``     — each shard compacted halfway through ingest: recovery
  loads the snapshot and replays only the second half of the history.
* ``snapshot`` — each shard compacted at the end: recovery loads live
  state and replays a near-empty suffix.

Recovery cost therefore tracks the journal *suffix past the snapshot*,
not the total history: the ``snapshot`` row stays near the live-state
floor as history grows, while ``replay`` grows with every entry ever
journaled.  Every recovery is verified byte-identical (clusters and
golden records) against an unsharded uninterrupted reference before its
timing is reported.  The smoke gate asserts snapshot recovery is ≥3×
faster than full replay.

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_shard_recovery --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_shard_recovery.py -q
"""

from __future__ import annotations

import argparse
import multiprocessing
import tempfile
import time
from pathlib import Path

from repro.engine.engine import MatchingEngine
from repro.engine.retry import RetryPolicy
from repro.eval.reports import format_table
from repro.faults.harness import (
    ParityBackend,
    resolution_snapshot,
    synthetic_records,
)
from repro.resolve.incremental import ResolutionStore, TokenCandidateIndex
from repro.resolve.sharded import (
    ShardedResolutionStore,
    route_record,
    shard_journal_path,
)

from benchmarks._output import emit, emit_json, publish

SHARDS = 4
SEED = 0
FULL_SCALES = (240, 480, 960)
SMOKE_SCALES = (240,)
COVERAGES = (("replay", 0.0), ("half", 0.5), ("snapshot", 1.0))
TRIALS = 5
GATE_RATIO = 3.0


def _engine() -> MatchingEngine:
    return MatchingEngine(
        backend=ParityBackend(),
        retry=RetryPolicy(timeout=1.0, seed=SEED),
    )


def _ingest_shard_worker(
    directory: str, shard: int, shards: int,
    record_count: int, seed: int, compact_at: int,
) -> None:
    """One shard's journal-writer process: ingest its routed subset.

    Workers share no state — each owns exactly one journal file — so the
    only cross-process contract is the routing function.  ``compact_at``
    records (of the *global* corpus position) triggers this shard's own
    mid-run compaction; 0 disables it.
    """
    router = TokenCandidateIndex()
    store = ResolutionStore(
        _engine(),
        index=TokenCandidateIndex(),
        journal=shard_journal_path(directory, shard),
        journal_meta={"shard": shard, "shards": shards},
    )
    try:
        for position, record in enumerate(
            synthetic_records(record_count, seed=seed)
        ):
            if compact_at and position == compact_at:
                store.compact()
            if shard in route_record(record, shards, router):
                store.ingest(record)
    finally:
        store.close()


def _build_directory(
    directory: Path, record_count: int, coverage: float,
) -> None:
    """Multi-process ingest into *directory*, then one settling recovery.

    The settle pass delivers the cross-shard must-links the independent
    writer processes could not exchange and journals them, so the timed
    recoveries below all start from the same caught-up on-disk state a
    single-process run would have left behind.  Full coverage compacts
    *inside* the settle pass — after those deliveries — so the snapshot
    really covers the final state and the replay suffix is empty.
    """
    compact_at = int(record_count * coverage) if 0.0 < coverage < 1.0 else 0
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(
            target=_ingest_shard_worker,
            args=(
                str(directory), shard, SHARDS,
                record_count, SEED, compact_at,
            ),
        )
        for shard in range(SHARDS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        if worker.exitcode != 0:
            raise RuntimeError(
                f"shard ingest worker exited with {worker.exitcode}"
            )
    with ShardedResolutionStore.recover(
        directory, _engine(), shards=SHARDS
    ) as store:
        if coverage >= 1.0:
            store.compact()


def _reference(record_count: int) -> dict:
    """Clusters and golden records of an unsharded uninterrupted run."""
    with ResolutionStore(_engine()) as store:
        store.ingest_all(synthetic_records(record_count, seed=SEED))
        return resolution_snapshot(store)


def _journal_entries(directory: Path) -> int:
    return sum(
        max(len(path.read_bytes().splitlines()) - 1, 0)
        for path in directory.glob("shard-*.journal")
    )


def _timed_recovery(directory: Path, reference: dict, trials: int) -> float:
    """Best-of-*trials* wall time of one full sharded recovery (seconds)."""
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        store = ShardedResolutionStore.recover(
            directory, _engine(), shards=SHARDS
        )
        elapsed = time.perf_counter() - start
        try:
            recovered = resolution_snapshot(store)
        finally:
            store.close()
        assert recovered["clusters"] == reference["clusters"]
        assert recovered["golden"] == reference["golden"]
        best = min(best, elapsed)
    return best


def run_recovery_sweep(
    scales: tuple = FULL_SCALES, trials: int = TRIALS
) -> dict:
    """Recovery time per (history length × snapshot coverage) cell."""
    rows: list[dict] = []
    for record_count in scales:
        reference = _reference(record_count)
        by_coverage: dict[str, float] = {}
        entries: dict[str, int] = {}
        for label, coverage in COVERAGES:
            with tempfile.TemporaryDirectory() as tmp:
                directory = Path(tmp)
                _build_directory(directory, record_count, coverage)
                entries[label] = _journal_entries(directory)
                by_coverage[label] = _timed_recovery(
                    directory, reference, trials
                )
        rows.append(
            {
                "records": record_count,
                "journal_entries": entries["replay"],
                "suffix_entries": entries,
                "recover_s": {k: round(v, 4) for k, v in by_coverage.items()},
                "speedup_snapshot": round(
                    by_coverage["replay"] / by_coverage["snapshot"], 2
                ),
                "speedup_half": round(
                    by_coverage["replay"] / by_coverage["half"], 2
                ),
            }
        )
    return {
        "shards": SHARDS,
        "seed": SEED,
        "trials": trials,
        "gate_ratio": GATE_RATIO,
        "rows": rows,
    }


def _render(payload: dict) -> str:
    rows = []
    for row in payload["rows"]:
        recover = row["recover_s"]
        rows.append(
            [
                row["records"],
                row["journal_entries"],
                f"{recover['replay'] * 1000:.1f}",
                f"{recover['half'] * 1000:.1f}",
                f"{recover['snapshot'] * 1000:.1f}",
                f"{row['speedup_snapshot']:.2f}x",
            ]
        )
    return format_table(
        ["records", "history", "replay ms", "half ms", "snapshot ms",
         "speedup"],
        rows,
        title=(
            f"Sharded recovery vs journal history "
            f"({payload['shards']} shards, one writer process per shard, "
            f"best of {payload['trials']})"
        ),
    )


def test_snapshot_recovery_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: run_recovery_sweep(SMOKE_SCALES), rounds=1, iterations=1
    )
    assert payload["rows"][0]["speedup_snapshot"] >= GATE_RATIO
    emit_json("bench_shard_recovery", payload)
    emit("bench_shard_recovery", _render(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            f"small CI workload (scales {SMOKE_SCALES} instead of "
            f"{FULL_SCALES}) with the ≥{GATE_RATIO:.0f}x snapshot gate"
        ),
    )
    args = parser.parse_args(argv)
    payload = run_recovery_sweep(SMOKE_SCALES if args.smoke else FULL_SCALES)
    gate = payload["rows"][0]["speedup_snapshot"]
    publish(
        "bench_shard_recovery", payload, _render(payload), smoke=args.smoke
    )
    if gate < GATE_RATIO:
        print(
            f"bench_shard_recovery: snapshot recovery only {gate:.2f}x "
            f"faster than full replay (gate: {GATE_RATIO:.0f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
