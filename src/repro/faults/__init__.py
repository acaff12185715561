"""repro.faults: deterministic fault injection, chaos harness, WAL recovery.

Three layers (see DESIGN.md §13):

* :mod:`repro.faults.plan` / :mod:`repro.faults.backend` — seeded,
  bit-reproducible fault schedules and the backend wrappers that execute
  them (:class:`FaultyBackend` for transport chaos,
  :class:`CrashingBackend` for simulated process death).
* :mod:`repro.faults.harness` — the chaos invariant harness: swept
  fault-rate runs over the engine and the resolution store, with every
  conservation / fidelity / determinism guarantee checked per run.
* :mod:`repro.faults.journal` — the append-only fsync'd JSONL
  write-ahead log behind ``ResolutionStore.recover`` and journaled
  evaluation, including torn-tail detection and repair.
"""

from repro.faults.backend import (
    GARBLED_COMPLETION,
    CrashingBackend,
    FaultyBackend,
    SimulatedCrash,
)
from repro.faults.clock import ManualClock
from repro.faults.harness import (
    ChaosReport,
    ParityBackend,
    build_chaos_engine,
    chaos_engine_on,
    chaos_match,
    chaos_resolve,
    kill_resume_roundtrip,
    resolution_snapshot,
    sweep,
    synthetic_pairs,
    synthetic_records,
)
from repro.faults.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalWriter,
    fsync_dir,
    journal_header,
    read_journal,
    repair,
)
from repro.faults.plan import CONTENT_FAULT_KINDS, FAULT_KINDS, FaultPlan

__all__ = [
    "CONTENT_FAULT_KINDS",
    "ChaosReport",
    "CrashingBackend",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultyBackend",
    "GARBLED_COMPLETION",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalWriter",
    "ManualClock",
    "ParityBackend",
    "SimulatedCrash",
    "build_chaos_engine",
    "chaos_engine_on",
    "chaos_match",
    "chaos_resolve",
    "fsync_dir",
    "journal_header",
    "kill_resume_roundtrip",
    "read_journal",
    "repair",
    "resolution_snapshot",
    "sweep",
    "synthetic_pairs",
    "synthetic_records",
]
