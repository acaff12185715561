"""Gateway observability: request-funnel counters, total and per lane.

One :class:`GatewayStats` registry accompanies a
:class:`~repro.serve.gateway.Gateway` for its lifetime.  Counters follow
every request through the funnel::

    submitted ── errors (unknown persona)
             └── rejected (admission: rate / quota / concurrency)
             └── admitted ── completed        (answered by an engine)
                         └── degraded         (gateway threshold answer)
                         └── shed             (queue full, no degradation)
                         └── expired          (deadline passed in queue)

Events count into the total and the lanes ``("tenant", t)`` and
``("persona", p)``; an unknown persona has no persona lane, and a
rejection also counts in its ``("reason", r)`` lane.  An event on the
submitting side is one :meth:`~repro.obs.Counters.add`.  A dispatched
chunk makes one add per (outcome, lanes) group with ``n`` its size, in
first-occurrence order, so its counts — values, lane order and key
order — equal those of one add per request.  The funnel is exact, and
the declared ``RULES`` say so: ``submitted = errors + rejected +
admitted`` and ``admitted = completed + degraded + shed + expired``
(plus whatever is still queued at snapshot time), and the tenant,
persona and reason lanes each add up to the total.  ``completed`` additionally reconciles with the engines
themselves — every completed request is exactly one engine request, so
``completed[persona] == engine.stats.requests`` for each routed engine;
:meth:`GatewayStats.reconcile_engines` asserts it.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs import TOTAL, Balance, Counters, LaneSum, lane_sums, lanes_of

__all__ = ["GatewayStats"]

#: the funnel counters every lane reports, in ``as_dict`` order.
_FUNNEL = (
    "submitted", "errors", "rejected", "admitted",
    "completed", "degraded", "shed", "expired",
)


class GatewayStats(Counters):
    """Counters for one gateway instance, total and per lane."""

    RULES = (
        Balance(("submitted",), ("errors", "rejected", "admitted"),
                kinds=("tenant", "persona")),
        Balance(("admitted",), ("completed", "degraded", "shed", "expired", "queued"),
                kinds=("tenant", "persona")),
        *lane_sums("tenant", *_FUNNEL),
        # An unknown persona's request has no persona lane, so the persona
        # lanes hold every request but the errors.
        LaneSum("persona", ("submitted",), ("rejected", "admitted")),
        LaneSum("persona", ("errors",), ()),
        *lane_sums("persona", *_FUNNEL[2:]),
        *lane_sums("reason", "rejected"),
    )

    def violations(self, in_queue: int = 0) -> list[str]:
        """Conservation violations; empty means every request is accounted.

        *in_queue* is the number of requests still queued at snapshot
        time (0 once the gateway has drained).
        """
        return super().violations({"queued": in_queue})

    def reconcile_engines(self, engines: Mapping[str, object]) -> list[str]:
        """Cross-check against the routed engines' own counters.

        Every *completed* request was handed to exactly one engine as one
        engine request; degraded / shed / expired requests never reach an
        engine.  So per persona, ``completed == engine.stats.requests``.
        """
        problems: list[str] = []
        persona_completed = {
            name: row.get("completed", 0)
            for name, row in lanes_of(self.counts(), "persona").items()
        }
        for persona, engine in sorted(engines.items()):
            want = persona_completed.get(persona, 0)
            got = engine.stats.requests
            if want != got:
                problems.append(
                    f"persona {persona}: gateway completed {want} != engine "
                    f"requests {got}"
                )
        routed = set(persona_completed) - set(engines)
        for persona in sorted(routed):
            if persona_completed[persona]:
                problems.append(
                    f"persona {persona}: {persona_completed[persona]} completed "
                    "requests but no engine was built for it"
                )
        return problems

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (used by the CLI and benchmarks)."""
        counts = self.counts()

        def funnel(row: Mapping[str, int]) -> dict[str, int]:
            return {name: row.get(name, 0) for name in _FUNNEL}

        def lanes(kind: str) -> dict[str, Mapping[str, int]]:
            return dict(sorted(lanes_of(counts, kind).items()))

        total = counts.get(TOTAL, {})
        return {
            "total": funnel(total),
            "tenants": {k: funnel(v) for k, v in lanes("tenant").items()},
            "personas": {k: funnel(v) for k, v in lanes("persona").items()},
            "rejected_reasons": {
                k: v["rejected"] for k, v in lanes("reason").items()
            },
            "queue_high_water": total.get("queue_high_water", 0),
        }
