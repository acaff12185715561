"""Chaos invariant harness: swept runs stay clean, reports are deterministic.

The sweep test here IS the PR's acceptance criterion: fault rate 0.3
across three seeds must produce zero invariant violations while every
fault class in the taxonomy is actually observed.
"""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    build_chaos_engine,
    chaos_match,
    chaos_resolve,
    read_journal,
    sweep,
)


class TestSweep:
    def test_grid_is_violation_free_and_covers_the_taxonomy(self):
        reports = sweep(seeds=(0, 1, 2), rates=(0.0, 0.3))
        violations = [v for r in reports for v in r.violations]
        assert violations == []
        assert len(reports) == 3 * 2 * 2  # seeds × rates × workloads

        observed = set()
        for report in reports:
            if report.fault_rate > 0:
                observed |= set(report.injected)
        assert observed == set(FAULT_KINDS), (
            f"taxonomy not fully exercised: missing {set(FAULT_KINDS) - observed}"
        )

    def test_rate_zero_runs_inject_nothing(self):
        for report in sweep(seeds=(0,), rates=(0.0,)):
            assert report.injected == {}
            assert report.stats["fallbacks"] == 0


class TestDeterminism:
    def test_same_seed_match_runs_are_byte_identical(self):
        a = chaos_match(seed=1, fault_rate=0.3)
        b = chaos_match(seed=1, fault_rate=0.3)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_same_seed_resolve_runs_are_byte_identical(self):
        a = chaos_resolve(seed=2, fault_rate=0.3)
        b = chaos_resolve(seed=2, fault_rate=0.3)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_different_seeds_fingerprint_differently(self):
        assert (
            chaos_match(seed=0, fault_rate=0.3).fingerprint
            != chaos_match(seed=1, fault_rate=0.3).fingerprint
        )


class TestReportSurface:
    def test_ok_reflects_violations(self):
        report = chaos_match(seed=0, fault_rate=0.3)
        assert report.ok and report.as_dict()["ok"]
        assert report.requests == 96
        assert sum(report.sources.values()) == report.requests

    def test_resolve_run_writes_a_replayable_journal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        report = chaos_resolve(seed=0, fault_rate=0.0, record_count=12,
                               journal=path)
        assert report.ok
        entries, torn = read_journal(path, expect={"kind": "resolve"})
        assert not torn
        types = {entry["type"] for entry in entries}
        assert {"record", "decision", "commit"} <= types


class TestFlappingWalk:
    """A scripted plan drives the breaker closed→open→half-open→closed."""

    def batch(self, tag):
        # 8 unique pairs = exactly one size flush = one backend call
        # per retry attempt, so scripted call indices line up with batches.
        return [(f"{tag} item {i} alpha", f"{tag} item {i} beta")
                for i in range(8)]

    def test_breaker_walks_every_state_on_the_scripted_schedule(self):
        engine, backend, clock = build_chaos_engine(FaultPlan.flapping(3))

        # calls 0-2: transport errors exhaust the retry budget and trip
        # the breaker (threshold 3). The batch degrades to the fallback.
        first = engine.match_pairs(self.batch("one"))
        assert engine.breaker.state == "open"
        assert engine.breaker.times_opened == 1
        assert {r.source for r in first} == {"fallback"}

        # While open and inside the cooldown the engine fails fast:
        # the backend is never consulted (call index does not advance).
        calls_before = backend.calls
        second = engine.match_pairs(self.batch("two"))
        assert backend.calls == calls_before
        assert {r.source for r in second} == {"fallback"}

        # Cooldown elapses → half-open probe. Call 3 is the scripted
        # timeout: the probe blows its budget, the breaker re-opens.
        clock.advance(2.1)
        third = engine.match_pairs(self.batch("three"))
        assert engine.breaker.state == "open"
        assert engine.breaker.times_opened == 2
        assert {r.source for r in third} == {"fallback"}

        # Second cooldown → clean probe (call 4) closes the circuit.
        clock.advance(2.1)
        fourth = engine.match_pairs(self.batch("four"))
        assert engine.breaker.state == "closed"
        assert {r.source for r in fourth} == {"backend"}

        stats = engine.stats.as_dict()
        assert stats["transport_errors"] == 3
        assert stats["timeouts"] == 1
        assert stats["circuit_open"] == 2
        assert backend.injected_counts() == {"error": 3, "timeout": 1}
