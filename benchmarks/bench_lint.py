"""Lint walker throughput: shallow pass, cold vs warm ``--deep``.

Two measurements:

* The shallow lint of the default roots (:func:`repro.lint.run_lint`),
  best-of-N wall-clock.
* The whole-program ``--deep`` analysis through the incremental cache
  (:mod:`repro.lint.cache`): one cold run populating a fresh cache
  directory, then a warm run against it.  The warm run must return
  byte-identical findings and summary (modulo the ``cache`` stats block)
  and must be at least ``DEEP_WARM_SPEEDUP_FLOOR``× faster — the gate CI
  enforces.

Runs standalone (CI smoke) or under pytest-benchmark::

    PYTHONPATH=src python -m benchmarks.bench_lint --smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_lint.py -q
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.lint import DEFAULT_ROOTS, run_lint
from repro.lint.cache import AnalysisCache
from repro.lint.deep import run_deep
from repro.lint.findings import format_json

from benchmarks._output import publish
from repro.eval.reports import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
FULL_REPEATS = 3
SMOKE_REPEATS = 1
#: acceptance gate: a warm cache hit must beat the cold run by this much.
DEEP_WARM_SPEEDUP_FLOOR = 3.0


def run_shallow(repeats: int) -> dict[str, object]:
    """Best-of-*repeats* wall-clock of the shallow pass."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        findings = run_lint(REPO_ROOT, paths=list(DEFAULT_ROOTS))
        best = min(best, time.perf_counter() - start)
    return {
        "repeats": repeats,
        "wall_s": round(best, 4),
        "findings": len(findings),
    }


def run_deep_cold_warm() -> dict[str, object]:
    """Cold ``--deep`` into a fresh cache, then a warm hit against it.

    Asserts the byte-identity and speedup contracts the cache promises;
    a regression here is a correctness bug, not just a slowdown.
    """
    with tempfile.TemporaryDirectory(prefix="bench-lint-cache-") as tmp:
        start = time.perf_counter()
        cold = AnalysisCache(tmp)
        cold_findings, cold_summary = run_deep(REPO_ROOT, cache=cold)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = AnalysisCache(tmp)
        warm_findings, warm_summary = run_deep(REPO_ROOT, cache=warm)
        warm_s = time.perf_counter() - start

    if not warm.stats["deep_hit"]:
        raise AssertionError("warm --deep run missed the cache")
    if format_json(warm_findings) != format_json(cold_findings):
        raise AssertionError("warm --deep findings diverged from cold run")
    def strip(summary: dict) -> dict:
        return {k: v for k, v in summary.items() if k != "cache"}

    if strip(warm_summary) != strip(cold_summary):
        raise AssertionError("warm --deep summary diverged from cold run")
    speedup = cold_s / warm_s
    if speedup < DEEP_WARM_SPEEDUP_FLOOR:
        raise AssertionError(
            f"warm --deep only {speedup:.2f}x faster than cold "
            f"(floor {DEEP_WARM_SPEEDUP_FLOOR}x)"
        )
    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "floor": DEEP_WARM_SPEEDUP_FLOOR,
        "findings": len(cold_findings),
        "files": cold_summary["cache"]["files"],
    }


def render(result: dict[str, object]) -> str:
    table = format_table(
        ["run", "wall_s", "findings"],
        [["shallow", f"{result['wall_s']:.4f}", result["findings"]]],
        title=(
            "lint walker: shallow pass over default roots "
            f"(best of {result['repeats']})"
        ),
    )
    deep = result.get("deep")
    if deep:
        table += "\n\n" + format_table(
            ["run", "wall_s", "speedup"],
            [
                ["cold", f"{deep['cold_s']:.4f}", "1.00x"],
                ["warm", f"{deep['warm_s']:.4f}", f"{deep['speedup']:.2f}x"],
            ],
            title=(
                "--deep with --cache: cold populate vs warm hit "
                f"({deep['files']} files, {deep['findings']} findings, "
                f"floor {deep['floor']:.0f}x)"
            ),
        )
    return table


def test_shallow_pass_measured() -> None:
    result = run_shallow(SMOKE_REPEATS)
    assert result["wall_s"] > 0 and result["findings"] == 0


def test_deep_warm_cache_identical_and_fast() -> None:
    deep = run_deep_cold_warm()  # asserts identity + speedup internally
    assert deep["speedup"] >= DEEP_WARM_SPEEDUP_FLOOR


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="single repeat")
    parser.add_argument(
        "--no-deep",
        action="store_true",
        help="skip the --deep cold/warm cache measurement",
    )
    args = parser.parse_args()
    result = run_shallow(SMOKE_REPEATS if args.smoke else FULL_REPEATS)
    if not args.no_deep:
        result["deep"] = run_deep_cold_warm()
    publish("bench_lint", result, render(result), smoke=args.smoke)


if __name__ == "__main__":
    main()
