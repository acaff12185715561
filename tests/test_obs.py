"""Tests for repro.obs: the counter registry and its declared rules."""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MatchingEngine
from repro.obs import TOTAL, Balance, Counters, LaneSum, lane_sums

from tests.engine.doubles import EchoBackend

TENANT = ("tenant", "a")
PERSONA = ("persona", "p")


class Funnel(Counters):
    RULES = (
        Balance(("submitted",), ("rejected", "admitted", "queued"), kinds=("tenant",)),
        *lane_sums("tenant", "submitted", "admitted"),
    )


class TestAdd:
    def test_bumps_total_and_every_lane(self):
        counters = Counters()
        counters.add("submitted", "admitted", lanes=(TENANT, PERSONA))
        counters.add("submitted", n=3, lanes=(TENANT,))
        assert counters.counts() == {
            TOTAL: {"submitted": 4, "admitted": 1},
            TENANT: {"submitted": 4, "admitted": 1},
            PERSONA: {"submitted": 1, "admitted": 1},
        }
        assert counters.get("submitted", PERSONA) == 1
        assert counters.get("never") == 0
        assert counters.get("submitted", ("tenant", "b")) == 0

    def test_counts_is_a_copy(self):
        counters = Counters()
        counters.add("x")
        counters.counts()[TOTAL]["x"] = 99
        assert counters.get("x") == 1

    def test_peak_only_raises(self):
        counters = Counters()
        counters.add("admitted", peak=("high", 3))
        counters.add("admitted", peak=("high", 2))
        assert counters.counts() == {TOTAL: {"admitted": 2, "high": 3}}

    def test_samples_stay_out_of_counts(self):
        counters = Counters()
        counters.sample("latency", 0.5, 4)
        assert counters.counts() == {}
        assert counters.samples("latency") == [(0.5, 4)]
        assert counters.samples("other") == []
        assert counters.percentiles("other") == {}

    def test_concurrent_adds_lose_nothing(self):
        counters = Funnel()
        threads, rounds = 8, 2000
        errors = []

        def worker(slot):
            try:
                lanes = (("tenant", f"t{slot % 3}"),)
                for _ in range(rounds):
                    counters.add("submitted", "admitted", lanes=lanes)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert errors == []
        assert counters.get("submitted") == threads * rounds
        assert counters.violations() == []


class TestPercentiles:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1, max_size=30,
    ))
    def test_equal_to_numpy_over_the_expanded_list(self, samples):
        counters = Counters()
        for seconds, weight in samples:
            counters.sample("latency", seconds, weight)
        expanded = [s for s, w in samples for _ in range(w)]
        qs = (50, 90, 95, 99)
        want = np.percentile(np.asarray(expanded), qs)
        got = counters.percentiles("latency", qs)
        assert list(got) == ["p50", "p90", "p95", "p99"]
        # Bit for bit, not approximately.
        assert [v.hex() for v in got.values()] == [float(v).hex() for v in want]

    def test_engine_keeps_one_sample_per_dispatch(self):
        engine = MatchingEngine(backend=EchoBackend(), batch_size=4)
        engine.match_pairs([(f"l{i}", f"r{i}") for i in range(10)])
        samples = engine.stats.samples("latency")
        assert len(samples) == engine.stats.batches == 3
        assert [w for _, w in samples] == [4, 4, 2]


class TestRules:
    def test_clean_funnel(self):
        counters = Funnel()
        counters.add("submitted", "admitted", lanes=(TENANT,))
        counters.add("submitted", "rejected", lanes=(TENANT,))
        assert counters.violations() == []

    def test_balance_names_the_lane_and_terms(self):
        counters = Funnel()
        counters.add("submitted", lanes=(TENANT,))
        assert counters.violations() == [
            "total: submitted 1 != rejected 0 + admitted 0 + queued 0",
            "tenant a: submitted 1 != rejected 0 + admitted 0 + queued 0",
        ]

    def test_balance_skips_lanes_of_other_kinds(self):
        counters = Funnel()
        counters.add("submitted", "admitted", lanes=(TENANT,))
        counters.add("rejected", lanes=(("reason", "quota"),))
        assert counters.violations() == [
            "total: submitted 1 != rejected 1 + admitted 1 + queued 0"
        ]

    def test_extra_counts_only_in_the_total(self):
        counters = Funnel()
        counters.add("admitted", lanes=(TENANT,))
        assert counters.violations({"submitted": 1, "queued": 0}) == [
            "tenant a: submitted 0 != rejected 0 + admitted 1 + queued 0",
            "tenant lanes sum submitted 0 != total submitted 1",
        ]

    def test_empty_registry_checks_a_zero_total(self):
        assert Funnel().violations() == []
        assert Funnel().violations({"queued": 2}) == [
            "total: submitted 0 != rejected 0 + admitted 0 + queued 2"
        ]

    def test_lane_sum_with_other_terms(self):
        rule = LaneSum("persona", ("submitted",), ("rejected", "admitted"))
        counts = {
            TOTAL: {"submitted": 3, "errors": 1, "admitted": 2},
            PERSONA: {"submitted": 2, "admitted": 2},
        }
        assert rule.check(counts) == []
        counts[("persona", "q")] = {"submitted": 1}
        assert rule.check(counts) == [
            "persona lanes sum submitted 3 != total rejected 0 + admitted 2"
        ]
