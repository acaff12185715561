"""Gateway saturation: latency and goodput vs offered load.

A seeded open-loop Poisson workload (WDC test pairs, two tenants) is
replayed against the threaded request gateway (one dispatch thread) at
swept offered loads.  For each point the benchmark reports p50/p99
schedule-to-completion latency, goodput (answered requests per second),
and how many requests were degraded or shed — the saturation curve: flat
latency while capacity holds, then the queue fills, latency climbs, and
the gateway starts answering from the threshold baseline instead of
collapsing.

One replay drains a few hundred requests in a fraction of a second, so
a single run is noise-bound: a full run replays each offered load
``FULL_RUNS`` times, each on a fresh router and gateway, and reports the
median and the min–max of goodput, p50, p99 and degraded.  A smoke run
replays each load once.

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
import statistics
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

from benchmarks._output import publish

MODEL = "llama-3.1-8b"
OFFERED_LOADS = (500.0, 2000.0, 8000.0)
FULL_REQUESTS = 400
SMOKE_REQUESTS = 120
#: replays per offered load: full runs are noise-bound one at a time.
FULL_RUNS = 5
SMOKE_RUNS = 1
#: per-run values each point reports as median and min–max.
SPREAD_METRICS = ("goodput", "p50", "p99", "degraded")
BATCH_SIZE = 16
QUEUE_CAPACITY = 64
TENANTS = 2
SEED = 0
CHAOS_FAULT_RATE = 0.25


def _pairs():
    return load_dataset("wdc-small").test.pairs


async def _run_once(offered_load: float, requests: int) -> dict[str, object]:
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
        workers=1,
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
        **summary,
        "degraded": stats["total"]["degraded"],
        "shed": stats["total"]["shed"],
        "queue_high_water": stats["queue_high_water"],
    }


def _spread(values: list) -> dict[str, float]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _run_point(offered_load: float, requests: int, runs: int) -> dict:
    """Replay one offered load *runs* times, each on a fresh gateway."""
    replays = [asyncio.run(_run_once(offered_load, requests))
               for _ in range(runs)]
    values = {
        "goodput": [r["goodput"] for r in replays],
        "p50": [r["latency"].get("p50", 0.0) for r in replays],
        "p99": [r["latency"].get("p99", 0.0) for r in replays],
        "degraded": [r["degraded"] for r in replays],
    }
    return {
        "offered_load": offered_load,
        "runs": replays,
        **{name: _spread(values[name]) for name in SPREAD_METRICS},
        "shed": max(r["shed"] for r in replays),
        "queue_high_water": max(r["queue_high_water"] for r in replays),
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


def run_saturation(requests: int, runs: int) -> dict[str, object]:
    """Sweep the offered loads, *runs* replays each, then the chaos gate."""
    # Warm the (process-cached) model and dataset once, so the first grid
    # point doesn't charge construction cost to its latency percentiles.
    pair = _pairs()[0]
    MatchingEngine.for_model(MODEL).match_pairs(
        [(pair.left.description, pair.right.description)]
    )
    points = [_run_point(load, requests, runs) for load in OFFERED_LOADS]
    return {
        "model": MODEL,
        "requests": requests,
        "runs": runs,
        "tenants": TENANTS,
        "seed": SEED,
        "batch_size": BATCH_SIZE,
        "queue_capacity": QUEUE_CAPACITY,
        "offered_loads": list(OFFERED_LOADS),
        "points": points,
        "chaos": run_chaos_gate(requests),
    }


def _cell(spread: dict, fmt) -> str:
    """``median (min–max)``; a single run shows its value alone."""
    if spread["min"] == spread["max"]:
        return fmt(spread["median"])
    return (f"{fmt(spread['median'])} "
            f"({fmt(spread['min'])}–{fmt(spread['max'])})")


def _render(payload: dict[str, object]) -> str:
    def rate(value):
        return f"{value:,.0f}"

    def ms(value):
        return f"{value * 1e3:.2f}ms"

    rows = [
        [
            rate(point["offered_load"]),
            _cell(point["goodput"], rate),
            _cell(point["p50"], ms),
            _cell(point["p99"], ms),
            _cell(point["degraded"], rate),
            point["shed"],
            point["queue_high_water"],
        ]
        for point in payload["points"]
    ]
    return format_table(
        ["offered req/s", "goodput req/s", "p50", "p99", "degraded",
         "shed (max)", "queue hw (max)"],
        rows,
        title=(
            f"Gateway saturation ({payload['model']}, one dispatch thread, "
            f"{payload['requests']} requests/point, median (min–max) of "
            f"{payload['runs']} run(s), {payload['tenants']} tenants, "
            f"seed {payload['seed']})"
        ),
    )


def test_serve_saturation(benchmark):
    payload = benchmark.pedantic(
        lambda: run_saturation(SMOKE_REQUESTS, SMOKE_RUNS),
        rounds=1, iterations=1,
    )
    assert all(entry["ok"] for entry in payload["chaos"])
    publish("bench_serve_saturation", payload, _render(payload), smoke=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"small CI workload ({SMOKE_REQUESTS} requests per point, "
        f"{SMOKE_RUNS} run, instead of {FULL_REQUESTS} requests and "
        f"{FULL_RUNS} runs)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_saturation(SMOKE_REQUESTS, SMOKE_RUNS)
    else:
        payload = run_saturation(FULL_REQUESTS, FULL_RUNS)
    publish(
        "bench_serve_saturation", payload, _render(payload), smoke=args.smoke
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
