"""Extension: blocking at scale — MinHash/LSH vs token candidate generation.

A seeded synthetic dedup corpus (100k records full, 5k smoke) is
ingested into the incremental candidate indexes behind
:class:`~repro.resolve.incremental.ResolutionStore`: the shared-token
inverted index and :class:`repro.index.MinHashCandidateIndex` across a
(bands, rows, min-similarity) grid.  For every backend the benchmark
measures ingest records/sec and — through the same
:func:`repro.blocking.base.recall_curve` code path the ``repro-em index
--stats`` command uses — pair recall against the corpus ground truth at
several top-k cut-offs, alongside the candidate-set size those cut-offs
cost.

The token backend enumerates every record sharing a token, so its
candidate sets grow linearly with the corpus while MinHash banding's
stay bounded by the similarity structure; in full mode the token
backend is therefore measured on a capped prefix of the corpus (its
quadratic candidate scan is exactly the pathology the index subsystem
replaces) and compared per record.

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_blocking_scale --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_blocking_scale.py -q
"""

from __future__ import annotations

import argparse
import time

from repro.blocking.base import recall_curve
from repro.datasets.synthetic import synthetic_dedup_corpus
from repro.eval.reports import format_table
from repro.index import MinHashCandidateIndex
from repro.resolve.incremental import TokenCandidateIndex

from benchmarks._output import publish

FULL_RECORDS = 100_000
SMOKE_RECORDS = 5_000
#: full mode caps the token backend here — its per-record candidate scan
#: is O(corpus) and the full corpus would take hours, which is the point.
TOKEN_CAP = 10_000
SEED = 7
CORRUPTION = 0.25
#: deepest ranked cut-off in the recall curves.
K_MAX = 20
KS = (1, 2, 5, 10, K_MAX, None)

#: the (bands, rows, min-similarity) grid.  32x3 with a 0.35 floor is
#: the operating point the CI smoke gate pins; 42x3 trades ingest speed
#: for the loosest banding threshold; 25x5 is the solver's pick for a
#: 0.5 threshold with no similarity floor (banding alone).
GRID = (
    {"label": "minhash-32x3-f35", "bands": 32, "rows": 3,
     "min_similarity": 0.35},
    {"label": "minhash-42x3-f35", "bands": 42, "rows": 3,
     "min_similarity": 0.35},
    {"label": "minhash-25x5-f00", "bands": 25, "rows": 5,
     "min_similarity": 0.0},
)
PRIMARY = "minhash-32x3-f35"

#: smoke-mode acceptance bars (the CI gate).
SMOKE_MIN_RECALL = 0.95
SMOKE_MAX_CANDIDATES_PER_RECORD = 50.0


def _ingest(index, records) -> float:
    """Feed *records* into *index*; returns ingest records/sec."""
    started = time.perf_counter()
    for record in records:
        index.add(record.record_id, record.description)
    return len(records) / (time.perf_counter() - started)


def _predicate_point(index, records, true_pairs) -> dict[str, object]:
    """Recall and candidate volume of the raw (un-ranked) predicate.

    Streams the per-record candidate lists instead of materializing a
    ranked mapping — the token backend yields thousands of candidates
    per record, which is exactly what this point is here to show.
    Distinct pair count is ``total/2``: the predicate is symmetric, so
    every unordered pair is enumerated exactly twice.
    """
    total = 0
    hit: set[tuple[str, str]] = set()
    for record in records:
        found = index.candidates(
            record.description, exclude=record.record_id
        )
        total += len(found)
        for other in found:
            pair = (
                (record.record_id, other)
                if record.record_id < other
                else (other, record.record_id)
            )
            if pair in true_pairs:
                hit.add(pair)
    return {
        "k": None,
        "recall": len(hit) / len(true_pairs) if true_pairs else 1.0,
        "candidates": total // 2,
        # Distinct pairs per record, matching recall_curve's definition.
        "candidates_per_record": (
            total / 2 / len(records) if records else 0.0
        ),
    }


def run_blocking_scale(
    n_records: int, token_cap: int
) -> dict[str, object]:
    """Ingest + recall/candidate measurements for every backend."""
    corpus = synthetic_dedup_corpus(
        n_records, seed=SEED, corruption=CORRUPTION
    )
    backends: list[dict[str, object]] = []

    token_records = corpus.records[:token_cap]
    token_ids = {record.record_id for record in token_records}
    token_truth = {
        pair for pair in corpus.true_pairs
        if pair[0] in token_ids and pair[1] in token_ids
    }
    token_index = TokenCandidateIndex(min_shared=1)
    token_rate = _ingest(token_index, token_records)
    token_point = _predicate_point(token_index, token_records, token_truth)
    backends.append({
        "label": "token",
        "records": len(token_records),
        "true_pairs": len(token_truth),
        "ingest_records_per_sec": round(token_rate, 1),
        "recall_curve": [token_point],
    })

    for config in GRID:
        index = MinHashCandidateIndex(
            bands=int(config["bands"]),
            rows=int(config["rows"]),
            min_similarity=float(config["min_similarity"]),
            seed=SEED,
        )
        rate = _ingest(index, corpus.records)
        # One ranked pass serves every cut-off: recall at k comes from
        # recall_curve over top-K_MAX lists (the None point is "every
        # candidate within the top K_MAX ranks").
        ranked = {
            record.record_id: [
                entry.record_id
                for entry in index.top_candidates(record.record_id, k=K_MAX)
            ]
            for record in corpus.records
        }
        backends.append({
            "label": config["label"],
            "bands": config["bands"],
            "rows": config["rows"],
            "min_similarity": config["min_similarity"],
            "records": len(corpus.records),
            "true_pairs": len(corpus.true_pairs),
            "ingest_records_per_sec": round(rate, 1),
            "recall_curve": recall_curve(
                ranked, corpus.true_pairs, list(KS)
            ),
        })

    return {
        "seed": SEED,
        "corruption": CORRUPTION,
        "records": n_records,
        "token_cap": len(token_records),
        "clusters": len(corpus.clusters),
        "true_pairs": len(corpus.true_pairs),
        "k_max": K_MAX,
        "backends": backends,
    }


def _deepest(backend: dict[str, object]) -> dict[str, object]:
    """The deepest (un-truncated) point of a backend's recall curve."""
    return backend["recall_curve"][-1]


def check_smoke(payload: dict[str, object]) -> list[str]:
    """CI acceptance: recall floor, bounded candidates, real reduction."""
    backends = {b["label"]: b for b in payload["backends"]}
    primary = _deepest(backends[PRIMARY])
    token = _deepest(backends["token"])
    failures = []
    if primary["recall"] < SMOKE_MIN_RECALL:
        failures.append(
            f"{PRIMARY} recall {primary['recall']:.4f} "
            f"< {SMOKE_MIN_RECALL}"
        )
    if primary["candidates_per_record"] > SMOKE_MAX_CANDIDATES_PER_RECORD:
        failures.append(
            f"{PRIMARY} candidates/record "
            f"{primary['candidates_per_record']:.1f} "
            f"> {SMOKE_MAX_CANDIDATES_PER_RECORD}"
        )
    if (
        primary["candidates_per_record"] * 10
        > token["candidates_per_record"]
    ):
        failures.append(
            f"{PRIMARY} candidates/record "
            f"{primary['candidates_per_record']:.1f} is not 10x below "
            f"token's {token['candidates_per_record']:.1f}"
        )
    return failures


def _render(payload: dict[str, object]) -> str:
    rows = []
    for backend in payload["backends"]:
        point = _deepest(backend)
        rows.append([
            backend["label"],
            f"{backend['records']:,}",
            f"{backend['ingest_records_per_sec']:,.0f}",
            f"{point['recall']:.4f}",
            f"{point['candidates_per_record']:.1f}",
            f"{point['candidates']:,}",
        ])
    return format_table(
        ["backend", "records", "ingest rec/s", "recall",
         "cand/record", "cand pairs"],
        rows,
        title=(
            f"Blocking at scale (synthetic dedup corpus, "
            f"{payload['records']:,} records, "
            f"{payload['true_pairs']:,} true pairs; token capped at "
            f"{payload['token_cap']:,} records)"
        ),
    )


def test_blocking_scale(benchmark):
    payload = benchmark.pedantic(
        lambda: run_blocking_scale(SMOKE_RECORDS, SMOKE_RECORDS),
        rounds=1, iterations=1,
    )
    assert not check_smoke(payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_RECORDS:,} records instead of "
        f"{FULL_RECORDS:,})",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_blocking_scale(SMOKE_RECORDS, SMOKE_RECORDS)
    else:
        payload = run_blocking_scale(FULL_RECORDS, TOKEN_CAP)
    failures = check_smoke(payload)
    for failure in failures:
        print(f"bench_blocking_scale: {failure}")
    publish(
        "bench_blocking_scale", payload, _render(payload), smoke=args.smoke
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
