"""Extension: online engine throughput vs the sequential chat loop.

A WDC-style workload with repeated candidate pairs (online matching sees
the same hot pairs again and again — think head products re-checked on
every catalog update) is pushed through (a) the plain sequential
``ChatModel.complete`` loop and (b) the :class:`MatchingEngine` with its
micro-batching and result cache.  Reports pairs/sec for both
paths, the speedup, and the engine's cache hit rate, as text and as JSON.
Both paths must give the same answers.

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_engine_throughput --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_engine_throughput.py -q

Only a full-size run (no ``--smoke``) rewrites
``results/bench_engine_throughput.{json,txt}``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro._util import derive_rng
from repro.datasets.registry import load_dataset
from repro.engine import MatchingEngine
from repro.eval.reports import format_table
from repro.llm.model import build_model
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import DEFAULT_PROMPT

from benchmarks._output import publish

MODEL = "llama-3.1-8b"
UNIQUE_PAIRS = 600
REPEATED_REQUESTS = 600
SMOKE_UNIQUE_PAIRS = 120
SMOKE_REPEATED_REQUESTS = 120


def _workload(unique: int, repeated: int):
    """WDC-style online stream: unique pairs plus a hot repeated tail."""
    base = load_dataset("wdc-small").test.pairs[:unique]
    rng = derive_rng(4242, "engine-throughput")
    repeats = [base[int(i)] for i in
               rng.integers(0, len(base), size=repeated)]
    return list(base) + repeats


def run_throughput(unique: int, repeated: int) -> dict:
    """Time both paths over one workload and return the result payload."""
    workload = _workload(unique, repeated)
    model = build_model(MODEL)

    sequential = []
    sequential_latencies = []
    started = time.perf_counter()
    for p in workload:
        pair_started = time.perf_counter()
        sequential.append(bool(parse_yes_no(model.complete(
            DEFAULT_PROMPT.render(p.left.description, p.right.description)
        ))))
        sequential_latencies.append(time.perf_counter() - pair_started)
    sequential_seconds = time.perf_counter() - started

    engine = MatchingEngine.for_model(model)
    started = time.perf_counter()
    results = engine.match_pairs(workload)
    engine_seconds = time.perf_counter() - started

    assert [r.decision for r in results] == sequential  # same answers
    stats = engine.stats
    n = len(workload)
    sequential_rate = n / sequential_seconds
    engine_rate = n / engine_seconds
    seq_p50, seq_p99 = (
        float(v) for v in np.percentile(sequential_latencies, (50, 99))
    )
    # Engine per-pair latency comes from the engine's own recorder; the
    # sequential loop is timed around each complete() call above.
    engine_latency = stats.latency_percentiles((50, 99))
    return {
        "model": MODEL,
        "requests": n,
        "unique_pairs": unique,
        "sequential_pairs_per_sec": round(sequential_rate, 1),
        "engine_pairs_per_sec": round(engine_rate, 1),
        "speedup": round(engine_rate / sequential_rate, 2),
        "sequential_latency": {
            "p50": round(seq_p50, 6), "p99": round(seq_p99, 6),
        },
        "engine_latency": {
            name: round(seconds, 6)
            for name, seconds in engine_latency.items()
        },
        "engine_stats": stats.as_dict(),
    }


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _render(payload: dict) -> str:
    engine_latency = payload["engine_latency"]
    return format_table(
        ["path", "pairs/sec", "p50", "p99", "cache hit rate"],
        [
            ["sequential complete()",
             f"{payload['sequential_pairs_per_sec']:,.0f}",
             _ms(payload["sequential_latency"]["p50"]),
             _ms(payload["sequential_latency"]["p99"]), "—"],
            ["MatchingEngine", f"{payload['engine_pairs_per_sec']:,.0f}",
             _ms(engine_latency.get("p50", 0.0)),
             _ms(engine_latency.get("p99", 0.0)),
             f"{payload['engine_stats']['hit_rate']:.1%}"],
        ],
        title=f"Online engine throughput ({payload['model']}, "
        f"{payload['requests']} requests, {payload['unique_pairs']} unique)",
    )


def test_engine_vs_sequential_throughput(benchmark):
    payload = benchmark.pedantic(
        lambda: run_throughput(UNIQUE_PAIRS, REPEATED_REQUESTS),
        rounds=1, iterations=1,
    )
    publish("bench_engine_throughput", payload, _render(payload), smoke=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_UNIQUE_PAIRS}+{SMOKE_REPEATED_REQUESTS}"
        f" requests instead of {UNIQUE_PAIRS}+{REPEATED_REQUESTS})",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_throughput(SMOKE_UNIQUE_PAIRS, SMOKE_REPEATED_REQUESTS)
    else:
        payload = run_throughput(UNIQUE_PAIRS, REPEATED_REQUESTS)
    publish(
        "bench_engine_throughput", payload, _render(payload), smoke=args.smoke
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
