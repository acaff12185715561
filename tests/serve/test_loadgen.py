"""Load generation and replay: determinism, schedules, roll-up math."""

import asyncio

import pytest

from repro.faults.clock import ManualClock
from repro.serve import (
    Gateway,
    LoadProfile,
    PersonaRouter,
    generate_arrivals,
    replay_simulated,
    summarize,
)

from tests.serve.doubles import FakeEngine

PERSONA = "llama-3.1-8b"
PAIRS = [(f"left item {i}", f"right item {i}") for i in range(8)]


def _profile(**overrides) -> LoadProfile:
    defaults = dict(
        offered_load=100.0, requests=24, tenants=3, persona=PERSONA, seed=0
    )
    defaults.update(overrides)
    return LoadProfile(**defaults)


class TestProfileValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"offered_load": 0.0},
            {"offered_load": -5.0},
            {"requests": 0},
            {"tenants": 0},
        ],
    )
    def test_bad_profiles_rejected(self, overrides):
        with pytest.raises(ValueError):
            _profile(**overrides)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(_profile(), [])


class TestGenerateArrivals:
    def test_schedule_is_deterministic_across_calls(self):
        first = generate_arrivals(_profile(), PAIRS)
        second = generate_arrivals(_profile(), PAIRS)
        assert first == second

    def test_different_seeds_give_different_schedules(self):
        base = generate_arrivals(_profile(), PAIRS)
        other = generate_arrivals(_profile(seed=1), PAIRS)
        assert [a.at for a in base] != [a.at for a in other]

    def test_arrival_times_strictly_increase(self):
        times = [a.at for a in generate_arrivals(_profile(), PAIRS)]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_tenants_cycle_round_robin(self):
        arrivals = generate_arrivals(_profile(tenants=3, requests=7), PAIRS)
        assert [a.request.tenant for a in arrivals] == [
            "tenant-0", "tenant-1", "tenant-2",
            "tenant-0", "tenant-1", "tenant-2", "tenant-0",
        ]

    def test_relative_deadline_becomes_absolute_per_arrival(self):
        arrivals = generate_arrivals(_profile(deadline=0.25), PAIRS)
        for arrival in arrivals:
            assert arrival.request.deadline == pytest.approx(
                arrival.at + 0.25
            )

    def test_no_deadline_by_default(self):
        arrivals = generate_arrivals(_profile(), PAIRS)
        assert all(a.request.deadline is None for a in arrivals)

    def test_pairs_drawn_from_the_given_workload(self):
        arrivals = generate_arrivals(_profile(requests=64), PAIRS)
        drawn = {(a.request.left, a.request.right) for a in arrivals}
        assert drawn <= set(PAIRS)
        assert len(drawn) > 1  # actually sampling, not repeating one pair

    def test_request_ids_are_unique_and_ordered(self):
        arrivals = generate_arrivals(_profile(), PAIRS)
        ids = [a.request.request_id for a in arrivals]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


class TestReplaySimulated:
    def _session(self, **profile_overrides):
        clock = ManualClock()
        engine = FakeEngine(batch_size=4)
        router = PersonaRouter(
            default=PERSONA, personas=(PERSONA,),
            engine_factory=lambda name: engine,
        )
        gateway = Gateway(router, workers=0, clock=clock, queue_capacity=64)
        arrivals = generate_arrivals(_profile(**profile_overrides), PAIRS)
        outcomes = asyncio.run(replay_simulated(gateway, arrivals, clock))
        return gateway, engine, arrivals, outcomes

    def test_every_arrival_is_answered_in_order(self):
        gateway, engine, arrivals, outcomes = self._session()
        assert len(outcomes) == len(arrivals)
        assert [o.arrival for o in outcomes] == arrivals
        assert all(o.response.ok for o in outcomes)
        assert gateway.stats.violations(in_queue=gateway.queue_depth) == []

    def test_simulated_session_is_fully_deterministic(self):
        _, _, _, first = self._session()
        _, _, _, second = self._session()
        assert [
            (o.response.status, o.response.decision, o.latency)
            for o in first
        ] == [
            (o.response.status, o.response.decision, o.latency)
            for o in second
        ]

    def test_latency_is_schedule_to_completion(self):
        _, _, _, outcomes = self._session()
        for outcome in outcomes:
            assert outcome.completed_at >= outcome.arrival.at
            assert outcome.latency == pytest.approx(
                outcome.completed_at - outcome.arrival.at
            )

    def test_pump_every_must_be_positive(self):
        clock = ManualClock()
        router = PersonaRouter(
            default=PERSONA, personas=(PERSONA,),
            engine_factory=lambda name: FakeEngine(),
        )
        gateway = Gateway(router, workers=0, clock=clock)
        with pytest.raises(ValueError):
            asyncio.run(
                replay_simulated(gateway, [], clock, pump_every=0)
            )


class TestSummarize:
    def test_rollup_counts_statuses_sources_and_goodput(self):
        _, _, _, outcomes = (
            TestReplaySimulated()._session(requests=24)
        )
        summary = summarize(outcomes)
        assert summary["requests"] == 24
        assert summary["answered"] == 24
        assert summary["statuses"] == {"ok": 24}
        assert summary["sources"] == {"backend": 24}
        assert set(summary["latency"]) == {"p50", "p95", "p99"}
        assert summary["latency"]["p50"] <= summary["latency"]["p99"]
        assert summary["duration"] > 0
        assert summary["goodput"] == pytest.approx(
            24 / summary["duration"], rel=1e-3
        )

    def test_empty_outcome_list_rolls_up_to_zeroes(self):
        summary = summarize([])
        assert summary == {
            "requests": 0,
            "answered": 0,
            "statuses": {},
            "sources": {},
            "latency": {},
            "duration": 0.0,
            "goodput": 0.0,
        }
