"""repro.serve — async request gateway in front of the matching engine.

Composition, front to back::

    request ── router ── admission ── bounded queue ── dispatch ── engine
                 │           │             │               │
              persona     tenant       backpressure    one caller:
              (404 on     buckets /    (shed or        the inline pump
               unknown)   quotas /     degrade when    or one dispatch
                          global cap   full)           thread; engine
                                                       micro-batches,
                                                       retry + breaker
                                                       + fallback

* :mod:`~repro.serve.protocol` — the request/response schema, with
  absolute deadlines and HTTP-flavoured status codes.
* :mod:`~repro.serve.router` — persona → engine routing over the model
  registry; unknown personas become structured errors, not tracebacks.
* :mod:`~repro.serve.admission` — per-tenant token buckets, lifetime
  quotas, and a global concurrency cap on an injectable clock.
* :mod:`~repro.serve.gateway` — the bounded queue bridging async callers
  to the synchronous engine through one dispatcher (the engine takes
  one caller at a time), with load shedding, graceful degradation to
  the threshold baseline, and deadline propagation.
* :mod:`~repro.serve.stats` — the counter funnel, its conservation
  invariants, and reconciliation against each engine's own counters.
* :mod:`~repro.serve.loadgen` — seeded open-loop load generation for
  the saturation benchmark and deterministic replays.
* :mod:`~repro.serve.chaos` — fault-injected gateway runs with
  transparency, conservation, and degradation-fidelity checks.
"""

from repro.serve.admission import AdmissionController, TenantPolicy, TokenBucket
from repro.serve.chaos import ServeChaosReport, chaos_serve, serve_sweep
from repro.serve.gateway import Gateway, run_inline
from repro.serve.loadgen import (
    Arrival,
    LoadProfile,
    ReplayOutcome,
    generate_arrivals,
    replay,
    replay_simulated,
    summarize,
)
from repro.serve.protocol import (
    DEFAULT_PERSONA,
    STATUS_CODES,
    MatchRequest,
    MatchResponse,
)
from repro.serve.router import PersonaRouter, UnknownPersonaError
from repro.serve.stats import GatewayStats

__all__ = [
    "AdmissionController",
    "Arrival",
    "DEFAULT_PERSONA",
    "Gateway",
    "GatewayStats",
    "LoadProfile",
    "MatchRequest",
    "MatchResponse",
    "PersonaRouter",
    "ReplayOutcome",
    "STATUS_CODES",
    "ServeChaosReport",
    "TenantPolicy",
    "TokenBucket",
    "UnknownPersonaError",
    "chaos_serve",
    "generate_arrivals",
    "replay",
    "replay_simulated",
    "run_inline",
    "serve_sweep",
    "summarize",
]
