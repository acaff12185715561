"""The engine's one-caller contract, and the lock analysis over the tree.

A :class:`MatchingEngine` serves one ``match_pairs`` call at a time and
takes no lock: a call that starts while another runs raises instead of
interleaving, and each call keeps its in-flight slots to itself, so a
crash escaping one call strands nothing for the next.  A companion class
runs the deep lock analysis over ``src/repro`` so the ``@guarded_by``
declarations the gateway, counters and cache rely on are enforced, not
just documented.
"""

import threading
from pathlib import Path

import pytest

from repro.engine import MatchingEngine
from repro.faults import SimulatedCrash

from .doubles import ParityBackend

REPO_ROOT = Path(__file__).resolve().parents[2]

PAIR = ("widget number 7 alpha edition", "widget number 7 beta edition")


class _ReentrantBackend(ParityBackend):
    """Calls back into its engine from inside ``generate``, once."""

    def __init__(self):
        super().__init__()
        self.engine = None
        self.reentered = False
        self.errors = []

    def generate(self, prompts):
        if not self.reentered:
            self.reentered = True
            try:
                self.engine.match_pairs([("other", "pair")])
            except RuntimeError as exc:
                self.errors.append(exc)
        return super().generate(prompts)


class _GatedBackend(ParityBackend):
    """Holds its first ``generate`` until the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def generate(self, prompts):
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(timeout=30), "gate never opened"
        return super().generate(prompts)


class _CrashOnceBackend(ParityBackend):
    """Dies with :class:`SimulatedCrash` on its first call only."""

    def __init__(self):
        super().__init__()
        self.crashed = False

    def generate(self, prompts):
        if not self.crashed:
            self.crashed = True
            raise SimulatedCrash("simulated crash inside generate")
        return super().generate(prompts)


class TestOneCaller:
    def test_reentrant_call_raises(self):
        backend = _ReentrantBackend()
        engine = MatchingEngine(backend=backend)
        backend.engine = engine
        [result] = engine.match_pairs([PAIR])
        assert result.source == "backend"
        [error] = backend.errors
        assert "one caller" in str(error)
        # The refused call counted nothing.
        assert engine.stats.requests == 1
        assert engine.stats.violations() == []

    def test_a_second_thread_raises_mid_call(self):
        backend = _GatedBackend()
        engine = MatchingEngine(backend=backend)
        answers = []
        first = threading.Thread(
            target=lambda: answers.extend(engine.match_pairs([PAIR])),
            daemon=True,
        )
        first.start()
        try:
            assert backend.entered.wait(timeout=30)
            with pytest.raises(RuntimeError, match="one caller"):
                engine.match_pairs([("other", "pair")])
        finally:
            backend.gate.set()
        first.join(timeout=30)
        assert not first.is_alive()
        [result] = answers
        assert result.source == "backend"
        reference = MatchingEngine(backend=ParityBackend()).match_pairs([PAIR])
        assert answers == reference
        assert engine.stats.requests == 1

    def test_pair_is_answered_after_a_crash_escapes_a_call(self):
        engine = MatchingEngine(backend=_CrashOnceBackend())
        with pytest.raises(SimulatedCrash):
            engine.match_pairs([PAIR])
        answers = []
        # Run where a hang cannot stall the suite: a slot stranded by the
        # crash would make this call wait forever.
        retry = threading.Thread(
            target=lambda: answers.extend(engine.match_pairs([PAIR])),
            daemon=True,
        )
        retry.start()
        retry.join(timeout=30)
        assert not retry.is_alive(), "the second call hung on the crashed slot"
        [result] = answers
        assert result.source == "backend"
        assert engine.backend.calls == 1


class TestGuardedByEnforced:
    """The analyzer, not convention, is what keeps shared state safe."""

    @pytest.fixture(scope="class")
    def lock_analysis(self):
        from repro.lint.callgraph import build_call_graph
        from repro.lint.locks import LockAnalysis
        from repro.lint.symbols import SymbolTable

        table = SymbolTable.build(REPO_ROOT, ("src/repro",))
        return table, LockAnalysis(table, build_call_graph(table))

    def test_engine_classes_declare_guards(self, lock_analysis):
        table, _ = lock_analysis
        # One caller: the engine itself guards nothing.
        assert "repro.engine.engine.MatchingEngine" in table.classes
        assert table.guarded_fields_of("repro.engine.engine.MatchingEngine") == {}
        assert table.guarded_fields_of("repro.obs.Counters")
        # Inherited: the engine's counters live in the registry's tables.
        assert table.guarded_fields_of("repro.engine.stats.EngineStats")
        assert table.guarded_fields_of("repro.engine.cache.ResultCache")

    def test_no_guard_violations_in_tree(self, lock_analysis):
        _, locks = lock_analysis
        assert locks.guard_violations == []
        assert locks.blocking_violations == []
        assert locks.order_cycles() == []
