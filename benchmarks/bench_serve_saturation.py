"""Gateway saturation: latency and goodput vs offered load.

A seeded open-loop Poisson workload (WDC test pairs, two tenants) is
replayed against the threaded request gateway at swept offered loads and
worker counts.  For each point the benchmark reports p50/p99
schedule-to-completion latency, goodput (answered requests per second),
and how many requests were degraded or shed — the saturation curve: flat
latency while capacity holds, then the queue fills, latency climbs, and
the gateway starts answering from the threshold baseline instead of
collapsing.

Every point also re-checks the gateway's conservation invariants
(funnel + engine reconciliation), and the run ends with the gateway
chaos gate: a fault-free run must be byte-transparent and a faulted run
must keep every counter conserved (see :mod:`repro.serve.chaos`).

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_serve_saturation --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_serve_saturation.py -q
"""

from __future__ import annotations

import argparse
import asyncio
import time

from repro.datasets.registry import load_dataset
from repro.engine import MatchingEngine
from repro.eval.reports import format_table
from repro.serve import (
    Gateway,
    LoadProfile,
    PersonaRouter,
    chaos_serve,
    generate_arrivals,
    replay,
    summarize,
)

from benchmarks._output import emit, emit_json, publish

MODEL = "llama-3.1-8b"
OFFERED_LOADS = (500.0, 2000.0, 8000.0)
WORKER_COUNTS = (1, 4)
FULL_REQUESTS = 400
SMOKE_REQUESTS = 120
BATCH_SIZE = 16
QUEUE_CAPACITY = 64
TENANTS = 2
SEED = 0
CHAOS_FAULT_RATE = 0.25


def _pairs():
    return load_dataset("wdc-small").test.pairs


async def _run_point(
    workers: int, offered_load: float, requests: int
) -> dict[str, object]:
    profile = LoadProfile(
        offered_load=offered_load,
        requests=requests,
        tenants=TENANTS,
        seed=SEED,
    )
    arrivals = generate_arrivals(profile, _pairs())
    router = PersonaRouter(
        default=MODEL,
        personas=(MODEL,),
        engine_factory=lambda name: MatchingEngine.for_model(
            name, batch_size=BATCH_SIZE
        ),
    )
    gateway = Gateway(
        router,
        queue_capacity=QUEUE_CAPACITY,
        batch_size=BATCH_SIZE,
        workers=workers,
    )
    async with gateway:
        outcomes = await replay(
            gateway, arrivals, clock=time.monotonic, sleep_async=asyncio.sleep
        )
    summary = summarize(outcomes)
    violations = gateway.stats.violations()
    violations += gateway.stats.reconcile_engines(router.engines())
    assert not violations, violations
    stats = gateway.stats.as_dict()
    return {
        "workers": workers,
        "offered_load": offered_load,
        **summary,
        "degraded": stats["total"]["degraded"],
        "shed": stats["total"]["shed"],
        "queue_high_water": stats["queue_high_water"],
    }


def run_chaos_gate(requests: int) -> list[dict[str, object]]:
    """The gateway chaos smoke: transparency at rate 0, conservation above."""
    reports = [
        chaos_serve(seed=SEED, fault_rate=rate, requests=requests)
        for rate in (0.0, CHAOS_FAULT_RATE)
    ]
    for report in reports:
        assert report.ok, report.violations
    return [
        {
            "seed": report.seed,
            "fault_rate": report.fault_rate,
            "sources": dict(report.sources),
            "fingerprint": report.fingerprint,
            "ok": report.ok,
        }
        for report in reports
    ]


def run_saturation(requests: int) -> dict[str, object]:
    """Sweep the full (workers x offered load) grid, then the chaos gate."""
    # Warm the (process-cached) model and dataset once, so the first grid
    # point doesn't charge construction cost to its latency percentiles.
    pair = _pairs()[0]
    MatchingEngine.for_model(MODEL).match_pairs(
        [(pair.left.description, pair.right.description)]
    )
    points = [
        asyncio.run(_run_point(workers, load, requests))
        for workers in WORKER_COUNTS
        for load in OFFERED_LOADS
    ]
    return {
        "model": MODEL,
        "requests": requests,
        "tenants": TENANTS,
        "seed": SEED,
        "batch_size": BATCH_SIZE,
        "queue_capacity": QUEUE_CAPACITY,
        "offered_loads": list(OFFERED_LOADS),
        "worker_counts": list(WORKER_COUNTS),
        "points": points,
        "chaos": run_chaos_gate(requests),
    }


def _render(payload: dict[str, object]) -> str:
    rows = []
    for point in payload["points"]:
        latency = point["latency"]
        rows.append(
            [
                point["workers"],
                f"{point['offered_load']:,.0f}",
                f"{point['goodput']:,.0f}",
                f"{latency.get('p50', 0.0) * 1e3:.2f}ms",
                f"{latency.get('p99', 0.0) * 1e3:.2f}ms",
                point["degraded"],
                point["shed"],
                point["queue_high_water"],
            ]
        )
    return format_table(
        ["workers", "offered req/s", "goodput req/s", "p50", "p99",
         "degraded", "shed", "queue hw"],
        rows,
        title=(
            f"Gateway saturation ({payload['model']}, "
            f"{payload['requests']} requests/point, "
            f"{payload['tenants']} tenants, seed {payload['seed']})"
        ),
    )


def test_serve_saturation(benchmark):
    payload = benchmark.pedantic(
        lambda: run_saturation(SMOKE_REQUESTS), rounds=1, iterations=1
    )
    assert all(entry["ok"] for entry in payload["chaos"])
    emit_json("bench_serve_saturation", payload)
    emit("bench_serve_saturation", _render(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_REQUESTS} requests per point "
        f"instead of {FULL_REQUESTS})",
    )
    args = parser.parse_args(argv)
    payload = run_saturation(SMOKE_REQUESTS if args.smoke else FULL_REQUESTS)
    publish(
        "bench_serve_saturation", payload, _render(payload), smoke=args.smoke
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
