"""Gateway chaos: fault-injected serving runs with invariant checks.

The serving sibling of :mod:`repro.faults.harness`: one run pushes a
deterministic workload through the whole gateway — router → admission →
queue → dispatch → engine — while a
:class:`~repro.faults.FaultyBackend` sabotages the backend, and checks
the guarantees the gateway adds on top of the engine's:

* **No request lost or answered twice** — one structured response per
  request, correlated by ``request_id``, every status legal.
* **Funnel conservation** — ``admitted = completed + degraded + shed +
  expired`` (total, per tenant, per persona), plus
  ``submitted = errors + rejected + admitted``.
* **Engine reconciliation** — gateway ``completed`` equals each routed
  engine's own ``requests`` counter, and the engine's internal
  conservation equations hold (same checks as the engine chaos harness).
* **Degradation fidelity** — every ``fallback`` (engine) and
  ``degraded`` (gateway) answer equals what a standalone
  :class:`~repro.baselines.threshold.ThresholdMatcher` says.
* **Transparency at rate 0** — the gateway run is byte-identical
  (decision, response, source per request) to the un-wrapped engine fed
  the same pairs in the same chunks.

Time is simulated throughout, so a run is a pure function of
``(seed, fault_rate, workload shape)`` and carries a stable fingerprint.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass

from repro._util import stable_hash
from repro.baselines.threshold import ThresholdMatcher
from repro.datasets.schema import EntityPair, Record, Split
from repro.faults.clock import ManualClock
from repro.faults.harness import (
    ParityBackend,
    build_chaos_engine,
    chaos_engine_on,
    synthetic_pairs,
)
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.serve.gateway import Gateway, run_inline
from repro.serve.protocol import MatchRequest, MatchResponse
from repro.serve.router import PersonaRouter

__all__ = ["ServeChaosReport", "chaos_serve", "serve_sweep"]

#: persona every chaos request routes to (capability profile irrelevant —
#: the engine runs over the parity backend, not a model).
_CHAOS_PERSONA = "llama-3.1-8b"

#: sources a gateway response may legally carry.
_VALID_SOURCES = ("backend", "cache", "fallback", "degraded")


@dataclass(frozen=True)
class ServeChaosReport:
    """Outcome of one gateway chaos run (one seed × one fault rate)."""

    seed: int
    fault_rate: float
    requests: int
    #: answers by source ("backend"/"cache"/"fallback"/"degraded").
    sources: dict
    #: responses by status ("ok"/"expired"/...).
    statuses: dict
    #: fault kind → injections performed by the faulty backend.
    injected: dict
    #: gateway counter snapshot.
    gateway_stats: dict
    #: engine counter snapshot (``EngineStats.as_dict``: no timings).
    engine_stats: dict
    violations: tuple
    fingerprint: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "kind": "serve",
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "requests": self.requests,
            "sources": dict(self.sources),
            "statuses": dict(self.statuses),
            "injected": dict(self.injected),
            "gateway_stats": dict(self.gateway_stats),
            "engine_stats": dict(self.engine_stats),
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
            "ok": self.ok,
        }


def _chaos_requests(
    pairs: "list[tuple[str, str]]", tenants: int
) -> list[MatchRequest]:
    return [
        MatchRequest(
            tenant=f"tenant-{i % tenants}",
            left=left,
            right=right,
            persona=_CHAOS_PERSONA,
            request_id=f"req-{i:06d}",
        )
        for i, (left, right) in enumerate(pairs)
    ]


def _degradation_violations(responses: "list[MatchResponse]") -> list[str]:
    """Fallback/degraded answers must equal the standalone baseline."""
    degraded = [
        r for r in responses if r.source in ("fallback", "degraded")
    ]
    if not degraded:
        return []
    split = Split(
        name="degradation-check",
        pairs=[
            EntityPair(
                pair_id=f"check-{i}",
                left=Record(record_id=f"c-{i}-l", attributes={},
                            description=" ".join(r.request.left.split())),
                right=Record(record_id=f"c-{i}-r", attributes={},
                             description=" ".join(r.request.right.split())),
                label=False,
            )
            for i, r in enumerate(degraded)
        ],
    )
    expected = ThresholdMatcher().predict(split)
    return [
        f"{response.source} decision for {response.request.request_id} is "
        f"{response.decision}, standalone ThresholdMatcher says {bool(want)}"
        for response, want in zip(degraded, expected)
        if response.decision != bool(want)
    ]


def _fingerprint(responses: "list[MatchResponse]") -> str:
    return (
        f"{stable_hash(*((r.status, r.decision, r.source, r.response) for r in responses)):016x}"
    )


def chaos_serve(
    seed: int = 0,
    fault_rate: float = 0.0,
    kinds: tuple = FAULT_KINDS,
    requests: int = 96,
    tenants: int = 2,
) -> ServeChaosReport:
    """One gateway chaos run: fault-injected serving + invariant checks."""
    pairs = synthetic_pairs(requests, seed=seed)
    plan = FaultPlan(seed=seed, fault_rate=fault_rate, kinds=kinds)
    engine, backend, clock = build_chaos_engine(plan)
    router = PersonaRouter(
        default=_CHAOS_PERSONA,
        personas=(_CHAOS_PERSONA,),
        engine_factory=lambda name: engine,
    )
    # No admission limits and capacity = workload size: the chaos run
    # exercises dispatch-side failure handling, so every request must
    # reach the engine (admission edge cases get their own tests).
    gateway = Gateway(
        router,
        queue_capacity=max(requests, 1),
        workers=0,
        clock=clock,
    )
    workload = _chaos_requests(pairs, tenants)
    responses = asyncio.run(run_inline(gateway, workload))

    violations: list[str] = []
    if len(responses) != len(workload):
        violations.append(
            f"{len(workload)} requests in, {len(responses)} responses out"
        )
    for request, response in zip(workload, responses):
        if response.request.request_id != request.request_id:
            violations.append(
                f"response order broken at {request.request_id}"
            )
            break
    for response in responses:
        if not response.ok:
            violations.append(
                f"{response.request.request_id} not answered: "
                f"{response.status} ({response.reason})"
            )
        elif response.source not in _VALID_SOURCES:
            violations.append(
                f"illegal response source {response.source!r}"
            )
    violations += gateway.stats.violations(in_queue=gateway.queue_depth)
    violations += gateway.stats.reconcile_engines(router.engines())
    violations += engine.stats.violations()
    violations += _degradation_violations(responses)

    if fault_rate == 0.0:
        violations += _transparency_violations(responses, pairs, seed)

    return ServeChaosReport(
        seed=seed,
        fault_rate=fault_rate,
        requests=len(workload),
        sources=dict(Counter(r.source for r in responses if r.source)),
        statuses=dict(Counter(r.status for r in responses)),
        injected=backend.injected_counts(),
        gateway_stats=gateway.stats.as_dict(),
        engine_stats=engine.stats.as_dict(),
        violations=tuple(violations),
        fingerprint=_fingerprint(responses),
    )


def _transparency_violations(
    responses: "list[MatchResponse]",
    pairs: "list[tuple[str, str]]",
    seed: int,
) -> list[str]:
    """Rate-0 check: gateway answers == un-wrapped engine, byte for byte.

    The baseline engine shares every knob with the chaos engine (same
    batch size, retry, breaker — see ``chaos_engine_on``) and is fed
    the same pairs in the same chunks the gateway dispatched (cut at
    that shared batch size), so the only difference left is the gateway
    wrapping itself.
    """
    plain = chaos_engine_on(ParityBackend(), ManualClock(), seed)
    size = plain.batch_size
    baseline = []
    for i in range(0, len(pairs), size):
        baseline.extend(plain.match_pairs(pairs[i:i + size]))
    problems = []
    for response, want in zip(responses, baseline):
        got = (response.decision, response.response, response.source)
        expected = (want.decision, want.response, want.source)
        if got != expected:
            problems.append(
                f"rate-0 divergence at {response.request.request_id}: "
                f"gateway {got} != engine {expected}"
            )
    return problems


def serve_sweep(
    seeds=(0, 1, 2),
    rates=(0.0, 0.3),
    requests: int = 96,
    tenants: int = 2,
) -> list[ServeChaosReport]:
    """The gateway chaos grid: every seed × every rate."""
    return [
        chaos_serve(seed=seed, fault_rate=rate, requests=requests,
                    tenants=tenants)
        for seed in seeds
        for rate in rates
    ]
