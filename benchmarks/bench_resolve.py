"""Extension: entity-resolution throughput and short-circuit savings.

A dedup workload (the record collections behind an abt-buy split) runs
through the full resolution pipeline — blocking, engine decisions,
transitive-closure clustering — under both blocking backends (the
shared-token inverted index and the MinHash/LSH top-k blocker from
``repro.index``), each twice: once deciding every candidate pair, once
with cluster-aware short-circuiting (pairs whose endpoints earlier
decisions already co-clustered are skipped before they cost an engine
call).  For every backend the benchmark asserts the exhaustive and
short-circuited runs produce the *identical* clustering and reports
candidate volume, records/sec, and the engine-call saving.

A store leg streams the same records one at a time through a
:class:`~repro.resolve.ResolutionStore` over the MinHash/LSH candidate
index, once asking every candidate pair and once with representative-
first scoring (one member per existing cluster first, its other members
only after a no, connected pairs skipped).  It asserts the same
clustering and that asked plus skipped pairs equal the exhaustive run's
pairs, and reports the pairs asked per record.

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_resolve --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_resolve.py -q
"""

from __future__ import annotations

import argparse
import time

from repro.blocking import TokenBlocker
from repro.datasets.registry import load_dataset
from repro.datasets.schema import Split
from repro.engine import MatchingEngine
from repro.eval.reports import format_table
from repro.datasets.schema import Record
from repro.index import MinHashBlocker, MinHashCandidateIndex
from repro.resolve import (
    ResolutionStore,
    cluster_scores,
    gold_clustering,
    resolve_blocking,
    split_records,
)

from benchmarks._output import publish

MODEL = "llama-3.1-8b"
FULL_PAIRS = 400
SMOKE_PAIRS = 120
#: MinHash blocking operating point for this workload: k deep enough to
#: cover abt-buy's near-duplicates, solver threshold loose enough for
#: its noisy descriptions.
MINHASH_K = 10
MINHASH_THRESHOLD = 0.35


def _workload(pairs: int) -> Split:
    return Split(
        name="abt-buy-dedup",
        pairs=load_dataset("abt-buy").test.pairs[:pairs],
    )


def _blockers() -> tuple[tuple[str, object], ...]:
    return (
        ("token", TokenBlocker()),
        ("minhash", MinHashBlocker(k=MINHASH_K, threshold=MINHASH_THRESHOLD)),
    )


def run_resolution(pairs: int) -> dict[str, object]:
    """Resolve the workload per blocker, exhaustively and short-circuited."""
    split = _workload(pairs)
    left, right = split_records(split)
    gold = gold_clustering(split)

    payload: dict[str, object] = {
        "model": MODEL,
        "pairs": pairs,
        "minhash_k": MINHASH_K,
        "minhash_threshold": MINHASH_THRESHOLD,
        "blockers": {},
    }
    for name, blocker in _blockers():
        blocking = blocker.block(left, right)
        runs: dict[bool, dict[str, object]] = {}
        for short_circuit in (False, True):
            engine = MatchingEngine.for_model(MODEL)
            # Warm process-global lazy state (tokenizer/embedding
            # tables) so the first timed run is not charged for
            # one-off setup.
            engine.match_pair(
                left[0].description, right[0].description
            )
            engine.reset_stats()
            started = time.perf_counter()
            report = resolve_blocking(
                engine, blocking, short_circuit=short_circuit
            )
            elapsed = time.perf_counter() - started
            runs[short_circuit] = {
                "report": report,
                "seconds": elapsed,
                "stats": engine.stats,
            }

        exhaustive = runs[False]["report"]
        shortcut = runs[True]["report"]
        # The acceptance bar: skipping co-clustered pairs must not
        # change the final clustering, only the number of engine calls.
        assert shortcut.clustering == exhaustive.clustering
        assert (
            shortcut.engine_calls + shortcut.short_circuited
            == exhaustive.engine_calls
        )

        records = len(shortcut.clustering.elements)
        saving = (
            shortcut.short_circuited / exhaustive.engine_calls
            if exhaustive.engine_calls
            else 0.0
        )
        scores = cluster_scores(shortcut.clustering, gold)
        payload["blockers"][name] = {
            "records": records,
            "candidates": len(blocking.candidates),
            "clusters": len(shortcut.clustering),
            "exhaustive_engine_calls": exhaustive.engine_calls,
            "short_circuit_engine_calls": shortcut.engine_calls,
            "short_circuited": shortcut.short_circuited,
            "engine_call_saving": round(saving, 4),
            "exhaustive_records_per_sec": round(
                records / runs[False]["seconds"], 1
            ),
            "short_circuit_records_per_sec": round(
                records / runs[True]["seconds"], 1
            ),
            "cluster_scores": scores.as_dict(),
            "engine_stats": runs[True]["stats"].as_dict(),
        }
    payload["store"] = run_store(split)
    return payload


def run_store(split: Split) -> dict[str, object]:
    """Stream the workload's records through the store, both ways."""
    left, right = split_records(split)
    records = [
        Record(f"{side}:{r.record_id}", dict(r.attributes), r.description)
        for side, rows in (("L", left), ("R", right))
        for r in rows
    ]
    runs: dict[bool, dict[str, object]] = {}
    for short_circuit in (False, True):
        store = ResolutionStore(
            MatchingEngine.for_model(MODEL),
            index=MinHashCandidateIndex(
                threshold=MINHASH_THRESHOLD, min_similarity=MINHASH_THRESHOLD
            ),
            short_circuit=short_circuit,
        )
        started = time.perf_counter()
        store.ingest_all(records)
        elapsed = time.perf_counter() - started
        runs[short_circuit] = {
            "clustering": store.clustering(),
            "engine_calls": store.engine_calls,
            "short_circuited": store.short_circuited,
            "records_per_sec": round(len(records) / elapsed, 1),
        }
    exhaustive, shortcut = runs[False], runs[True]
    # Representative-first scoring may only skip pairs whose endpoints
    # are already connected: same clusters, every pair accounted for.
    assert shortcut["clustering"] == exhaustive["clustering"]
    assert (
        shortcut["engine_calls"] + shortcut["short_circuited"]
        == exhaustive["engine_calls"]
    )
    return {
        "records": len(records),
        "clusters": len(shortcut["clustering"]),
        "exhaustive_engine_calls": exhaustive["engine_calls"],
        "short_circuit_engine_calls": shortcut["engine_calls"],
        "short_circuited": shortcut["short_circuited"],
        "exhaustive_pairs_per_record": round(
            exhaustive["engine_calls"] / len(records), 3
        ),
        "short_circuit_pairs_per_record": round(
            shortcut["engine_calls"] / len(records), 3
        ),
        "exhaustive_records_per_sec": exhaustive["records_per_sec"],
        "short_circuit_records_per_sec": shortcut["records_per_sec"],
    }


def _render(payload: dict[str, object]) -> str:
    rows = []
    for name, result in payload["blockers"].items():
        rows.append([
            name, "exhaustive", f"{result['candidates']:,}",
            f"{result['exhaustive_engine_calls']:,}",
            f"{result['exhaustive_records_per_sec']:,.0f}", "—",
        ])
        rows.append([
            name, "short-circuit", f"{result['candidates']:,}",
            f"{result['short_circuit_engine_calls']:,}",
            f"{result['short_circuit_records_per_sec']:,.0f}",
            f"{result['engine_call_saving']:.1%}",
        ])
    token = payload["blockers"]["token"]
    batch = format_table(
        ["blocker", "path", "candidates", "engine calls", "records/sec",
         "calls saved"],
        rows,
        title=(
            f"Entity resolution ({MODEL}, {token['records']} records; "
            f"short-circuiting preserves each blocker's clustering)"
        ),
    )
    store = payload["store"]
    streamed = format_table(
        ["path", "pairs asked", "pairs/record", "records/sec"],
        [
            ["every pair", f"{store['exhaustive_engine_calls']:,}",
             f"{store['exhaustive_pairs_per_record']:.3f}",
             f"{store['exhaustive_records_per_sec']:,.0f}"],
            ["representative-first",
             f"{store['short_circuit_engine_calls']:,}",
             f"{store['short_circuit_pairs_per_record']:.3f}",
             f"{store['short_circuit_records_per_sec']:,.0f}"],
        ],
        title=(
            f"ResolutionStore stream (minhash index, {store['records']} "
            f"records; same {store['clusters']} clusters both ways)"
        ),
    )
    return batch + "\n\n" + streamed


def test_resolve_short_circuit(benchmark):
    payload = benchmark.pedantic(
        lambda: run_resolution(SMOKE_PAIRS), rounds=1, iterations=1
    )
    # The optimisation must engage on the dense token candidate graph;
    # minhash's top-k graph is deliberately sparse and only develops
    # redundant (co-clustered) pairs at the full workload size.
    assert payload["blockers"]["token"]["short_circuited"] > 0
    publish("bench_resolve", payload, _render(payload), smoke=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_PAIRS} pairs instead of {FULL_PAIRS})",
    )
    args = parser.parse_args(argv)
    payload = run_resolution(SMOKE_PAIRS if args.smoke else FULL_PAIRS)
    if payload["blockers"]["token"]["short_circuited"] == 0:
        print("bench_resolve: short-circuiting never engaged (token)")
        return 1
    publish("bench_resolve", payload, _render(payload), smoke=args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
