"""Robustness: match quality and fallback share under injected faults.

An abt-buy workload runs through the matching engine while a seeded
:class:`~repro.faults.FaultyBackend` injects transport errors, timeouts,
garbled completions, and malformed batch responses at swept rates.  For
each rate the benchmark reports F1 against the split labels, the share
of requests answered by the degraded threshold fallback, and the
engine's error accounting split by class — the degradation curve the
chaos harness's invariants guarantee is graceful rather than silent.

The rate-0 row doubles as a regression gate: with injection disabled the
wrapper must be fully transparent (no faults observed, no fallbacks).

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_faults --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.datasets.registry import load_dataset
from repro.datasets.schema import Split
from repro.engine import make_backend
from repro.eval.metrics import f1_score
from repro.eval.reports import format_table
from repro.faults import FaultPlan, build_chaos_engine

from benchmarks._output import publish

MODEL = "llama-3.1-8b"
RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
FULL_PAIRS = 240
SMOKE_PAIRS = 96
SEED = 0


def _workload(pairs: int) -> Split:
    return Split(
        name="abt-buy-faults",
        pairs=load_dataset("abt-buy").test.pairs[:pairs],
    )


def run_fault_sweep(pairs: int, seed: int = SEED) -> dict[str, object]:
    """Sweep fault rates over one workload; F1 + fallback share per rate."""
    split = _workload(pairs)
    labels = np.array(split.labels(), dtype=bool)

    rows: list[dict[str, object]] = []
    for rate in RATES:
        plan = FaultPlan(seed=seed, fault_rate=rate)
        engine, backend, _clock = build_chaos_engine(plan, inner=make_backend(MODEL))
        predictions = engine.predict_split(split)
        scores = f1_score(labels, predictions)
        stats = engine.stats.as_dict()
        requests = int(stats["requests"])
        fallback_share = stats["fallbacks"] / requests if requests else 0.0
        rows.append(
            {
                "fault_rate": rate,
                "f1": round(scores.f1, 2),
                "precision": round(scores.precision, 2),
                "recall": round(scores.recall, 2),
                "fallback_share": round(fallback_share, 4),
                "injected": backend.injected_counts(),
                "stats": stats,
            }
        )

    clean = rows[0]
    assert clean["fault_rate"] == 0
    # Rate 0 must be transparent: nothing injected, nothing degraded.
    assert sum(clean["injected"].values()) == 0
    assert clean["stats"]["fallbacks"] == 0

    return {
        "model": MODEL,
        "pairs": pairs,
        "seed": seed,
        "clean_f1": clean["f1"],
        "rates": rows,
    }


def _render(payload: dict[str, object]) -> str:
    rows = []
    for row in payload["rates"]:
        stats = row["stats"]
        errors = (
            f"t={stats['timeouts']} x={stats['transport_errors']} "
            f"c={stats['circuit_open']} m={stats['malformed']}"
        )
        rows.append(
            [
                f"{row['fault_rate']:.1f}",
                f"{row['f1']:.2f}",
                f"{row['fallback_share']:.1%}",
                f"{sum(row['injected'].values())}",
                f"{stats['retries']}",
                errors,
            ]
        )
    return format_table(
        ["fault rate", "F1", "fallback share", "injected", "retries",
         "errors (t/x/c/m)"],
        rows,
        title=(
            f"Degradation under injected faults ({payload['model']}, "
            f"{payload['pairs']} pairs, seed {payload['seed']})"
        ),
    )


def test_fault_degradation(benchmark):
    payload = benchmark.pedantic(
        lambda: run_fault_sweep(SMOKE_PAIRS), rounds=1, iterations=1
    )
    faulted = payload["rates"][-1]
    assert sum(faulted["injected"].values()) > 0  # injection must engage
    publish("bench_faults", payload, _render(payload), smoke=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_PAIRS} pairs instead of {FULL_PAIRS})",
    )
    args = parser.parse_args(argv)
    payload = run_fault_sweep(SMOKE_PAIRS if args.smoke else FULL_PAIRS)
    if sum(payload["rates"][-1]["injected"].values()) == 0:
        print("bench_faults: fault injection never engaged")
        return 1
    publish("bench_faults", payload, _render(payload), smoke=args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
