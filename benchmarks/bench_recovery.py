"""Durability: recovery time — full journal replay vs snapshot.

One journaled :class:`ResolutionStore` ingests a seeded synthetic corpus
and, in the snapshot variants, compacts its journal.  The bench then
measures :meth:`ResolutionStore.recover` wall time over the resulting
journal at three snapshot coverages of the same corpus:

* ``replay``   — no snapshot: recovery replays the full journal history.
* ``half``     — compacted halfway through ingest: recovery loads the
  snapshot and replays only the second half of the history.
* ``snapshot`` — compacted at the end: recovery loads live state and
  replays an empty suffix.

Recovery cost therefore tracks the journal *suffix past the snapshot*,
not the total history: the ``snapshot`` row stays near the live-state
floor as history grows, while ``replay`` grows with every entry ever
journaled.  Every recovery is verified byte-identical (clusters and
golden records) against an uninterrupted reference before its timing is
reported.  The smoke gate asserts snapshot recovery is ≥3× faster than
full replay.

The history grows with the square of the records: ``ParityBackend``
says yes to about half the pairs, so every record ends in one cluster,
the ``rev{i % 3}`` token makes each record a candidate of a third of the
records before it, and each no from the cluster's representative makes
the store ask the cluster's other candidate members (2,437 / 9,162 /
38,214 decisions at 120 / 240 / 480 records).

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_recovery --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q
"""

from __future__ import annotations

import argparse
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
from repro.resolve.incremental import ResolutionStore

from benchmarks._output import publish

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


def _build_journal(journal: Path, record_count: int, coverage: float) -> None:
    """Ingest the corpus into one journaled store, compacting per coverage.

    Half coverage compacts before the middle record; full coverage
    compacts after the last, so its journal is header-only.
    """
    compact_at = int(record_count * coverage)
    with ResolutionStore(_engine(), journal=journal) as store:
        for position, record in enumerate(
            synthetic_records(record_count, seed=SEED)
        ):
            if 0 < compact_at == position:
                store.compact()
            store.ingest(record)
        if coverage >= 1.0:
            store.compact()


def _reference(record_count: int) -> dict:
    """Clusters and golden records of an uninterrupted in-memory run."""
    with ResolutionStore(_engine()) as store:
        store.ingest_all(synthetic_records(record_count, seed=SEED))
        return resolution_snapshot(store)


def _journal_entries(journal: Path) -> int:
    return max(len(journal.read_bytes().splitlines()) - 1, 0)


def _timed_recovery(journal: Path, reference: dict, trials: int) -> float:
    """Best-of-*trials* wall time of one full recovery (seconds)."""
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        store = ResolutionStore.recover(journal, _engine())
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
                journal = Path(tmp) / "store.journal"
                _build_journal(journal, record_count, coverage)
                entries[label] = _journal_entries(journal)
                by_coverage[label] = _timed_recovery(
                    journal, reference, trials
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
            f"Recovery vs journal history (one journaled store, "
            f"best of {payload['trials']})"
        ),
    )


def test_snapshot_recovery_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: run_recovery_sweep(SMOKE_SCALES), rounds=1, iterations=1
    )
    assert payload["rows"][0]["speedup_snapshot"] >= GATE_RATIO
    publish("bench_recovery", payload, _render(payload), smoke=True)


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
    publish("bench_recovery", payload, _render(payload), smoke=args.smoke)
    if gate < GATE_RATIO:
        print(
            f"bench_recovery: snapshot recovery only {gate:.2f}x "
            f"faster than full replay (gate: {GATE_RATIO:.0f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
