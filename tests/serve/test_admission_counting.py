"""Admission is counted with one stats add per admitted request.

``Gateway.match`` counts an admitted request's ``submitted`` and
``admitted`` (and, for a request that never queues, its outcome) in one
``Counters.add``, made before a worker can see the item.  A snapshot
therefore never reads ``submitted`` ahead of ``admitted`` for it, and
the counts keep the values, lane order and key order of counting
``submitted`` on its own first.
"""

import asyncio

from repro.faults.clock import ManualClock
from repro.serve import AdmissionController, Gateway, MatchRequest, TenantPolicy

from tests.serve.test_gateway import OTHER, PERSONA, _router

#: (tenant, persona, deadline) per request; the clock reads 10.0.
PLAN = [
    ("a", PERSONA, None),            # queued
    ("b", OTHER, 9.0),               # dead on arrival
    ("c", PERSONA, None),            # queued: tenant c's one token
    ("c", OTHER, None),              # rejected: rate limited
    ("a", "no-such-persona", None),  # unknown persona
    ("b", PERSONA, None),            # queued: the queue is now full
    ("a", OTHER, 10.0),              # dead on arrival
    ("b", OTHER, None),              # queue full: degraded
    ("c", PERSONA, 9.5),             # rejected before its deadline check
    ("a", PERSONA, None),            # queue full: degraded
]
ADMITTED = 7
REJECTED = 2
UNKNOWN = 1

#: ``GatewayStats.counts()`` of :func:`_session` when ``submitted`` was
#: counted in an add of its own: values, lane order and key order.
SESSION_COUNTS = [
    ((), [("submitted", 10), ("admitted", 7), ("queue_high_water", 3),
          ("expired", 2), ("rejected", 2), ("errors", 1), ("degraded", 2),
          ("completed", 3)]),
    (("tenant", "a"), [("submitted", 4), ("admitted", 3), ("errors", 1),
                       ("expired", 1), ("degraded", 1), ("completed", 1)]),
    (("persona", PERSONA), [("submitted", 5), ("admitted", 4),
                            ("rejected", 1), ("degraded", 1),
                            ("completed", 3)]),
    (("tenant", "b"), [("submitted", 3), ("admitted", 3), ("expired", 1),
                       ("degraded", 1), ("completed", 1)]),
    (("persona", OTHER), [("submitted", 4), ("admitted", 3), ("expired", 2),
                          ("rejected", 1), ("degraded", 1)]),
    (("tenant", "c"), [("submitted", 3), ("admitted", 1), ("rejected", 2),
                       ("completed", 1)]),
    (("reason", "rate_limited"), [("rejected", 2)]),
]


def _session():
    """Run :data:`PLAN` through an inline gateway with a queue of three.

    Returns the gateway, the responses, and the ``names`` of every
    stats add made while the requests were submitted (before the pump).
    """
    clock = ManualClock(start=10.0)
    router, _ = _router(batch_size=8)
    admission = AdmissionController(
        clock=clock,
        tenant_policies={"c": TenantPolicy(rate=0.0, burst=1.0)},
    )
    gateway = Gateway(
        router, admission, workers=0, clock=clock, queue_capacity=3,
    )
    adds = []
    add = gateway.stats.add

    def spy(*names, **kwargs):
        adds.append(names)
        return add(*names, **kwargs)

    gateway.stats.add = spy
    requests = [
        MatchRequest(
            tenant=tenant,
            left=f"left {i}",
            right=f"right {i}",
            persona=persona,
            deadline=deadline,
            request_id=f"req-{i}",
        )
        for i, (tenant, persona, deadline) in enumerate(PLAN)
    ]

    async def scenario():
        tasks = [asyncio.ensure_future(gateway.match(r)) for r in requests]
        await asyncio.sleep(0)
        submitted = list(adds)
        assert gateway.pump_all() == 3
        return submitted, await asyncio.gather(*tasks)

    submitted, responses = asyncio.run(scenario())
    return gateway, responses, submitted


class TestAdmissionCounting:
    def test_counts_keep_values_and_key_and_lane_order(self):
        gateway, responses, _ = _session()
        counts = gateway.stats.counts()
        assert [(lane, list(row.items())) for lane, row in counts.items()] == (
            SESSION_COUNTS
        )
        assert gateway.stats.violations() == []
        statuses = [
            (r.status, r.source, r.reason.split(":")[0]) for r in responses
        ]
        assert statuses == [
            ("ok", "backend", ""),
            ("expired", "", "deadline_expired"),
            ("ok", "backend", ""),
            ("rejected", "", "rate_limited"),
            ("error", "", "unknown persona"),
            ("ok", "backend", ""),
            ("expired", "", "deadline_expired"),
            ("ok", "degraded", "queue_full"),
            ("rejected", "", "rate_limited"),
            ("ok", "degraded", "queue_full"),
        ]

    def test_one_add_per_admitted_request(self):
        _, _, submitted = _session()
        admitted = [names for names in submitted if "admitted" in names]
        assert len(admitted) == ADMITTED
        assert all(names[:2] == ("submitted", "admitted") for names in admitted)
        # A rejection counts ``submitted`` alone, then ``rejected`` with
        # the reason lane; an unknown persona is one add.
        assert len(submitted) == ADMITTED + 2 * REJECTED + UNKNOWN
