"""Concurrency smoke test: N threads through one shared engine.

The ISSUE acceptance criterion: 8 threads x 200 pairs each through a
shared :class:`MatchingEngine` produce decisions identical to a
sequential run, and the stats counters conserve exactly (no lost or
double-counted updates).  A companion test runs the deep lock analysis
over ``src/repro`` so the ``@guarded_by`` declarations the engine relies
on are actually enforced, not just documented.
"""

import threading
from pathlib import Path

import pytest

from repro.engine import MatchingEngine, ResultCache

from .doubles import ParityBackend

REPO_ROOT = Path(__file__).resolve().parents[2]

THREADS = 8
PAIRS_PER_THREAD = 200
UNIQUE_PAIRS = 120


def workload() -> list[tuple[str, str]]:
    """200 pairs over 120 unique ones: exercises cache hits and dedup."""
    return [
        (f"widget number {i % UNIQUE_PAIRS} alpha edition",
         f"widget number {i % UNIQUE_PAIRS} beta edition")
        for i in range(PAIRS_PER_THREAD)
    ]


def make_engine() -> MatchingEngine:
    return MatchingEngine(backend=ParityBackend(), cache=ResultCache())


class TestConcurrentMatching:
    def test_threads_match_sequential_and_counters_conserve(self):
        pairs = workload()
        sequential = [r.decision for r in make_engine().match_pairs(pairs)]
        assert len(set(sequential)) == 2, "workload should mix yes and no"

        engine = make_engine()
        barrier = threading.Barrier(THREADS)
        decisions: list[list[bool]] = [[] for _ in range(THREADS)]
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                results = engine.match_pairs(pairs)
                decisions[slot] = [r.decision for r in results]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,), name=f"matcher-{slot}")
            for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "worker deadlocked"
        assert errors == []

        # Every thread saw exactly the sequential answers.
        for slot in range(THREADS):
            assert decisions[slot] == sequential

        # Counters conserve exactly — no lost updates under contention.
        stats = engine.stats
        assert stats.requests == THREADS * PAIRS_PER_THREAD
        assert stats.cache_hits + stats.cache_misses == stats.requests
        assert stats.deduped + stats.batched_requests == stats.cache_misses
        assert stats.failures == 0
        assert stats.fallbacks == 0
        assert sum(w for _, w in stats.samples("latency")) == stats.batched_requests
        assert stats.violations() == []

        # Dedup/caching really engaged: 1600 requests cannot all have
        # been dispatched when only 120 prompts are distinct.
        assert stats.batched_requests < stats.requests

    def test_in_flight_table_drains(self):
        engine = make_engine()
        engine.match_pairs(workload())
        assert engine._in_flight == {}


class TestGuardedByEnforced:
    """The analyzer, not convention, is what keeps the engine safe."""

    @pytest.fixture(scope="class")
    def lock_analysis(self):
        from repro.lint.callgraph import build_call_graph
        from repro.lint.locks import LockAnalysis
        from repro.lint.symbols import SymbolTable

        table = SymbolTable.build(REPO_ROOT, ("src/repro",))
        return table, LockAnalysis(table, build_call_graph(table))

    def test_engine_classes_declare_guards(self, lock_analysis):
        table, _ = lock_analysis
        assert table.guarded_fields_of("repro.engine.engine.MatchingEngine")
        assert table.guarded_fields_of("repro.obs.Counters")
        # Inherited: the engine's counters live in the registry's tables.
        assert table.guarded_fields_of("repro.engine.stats.EngineStats")
        assert table.guarded_fields_of("repro.engine.cache.ResultCache")

    def test_no_guard_violations_in_tree(self, lock_analysis):
        _, locks = lock_analysis
        assert locks.guard_violations == []
        assert locks.blocking_violations == []
        assert locks.order_cycles() == []
