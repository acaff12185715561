"""Serve chaos harness: transparency at rate 0, invariants under faults."""

import pytest

from repro.serve import GatewayStats, chaos_serve, serve_sweep


class TestRateZero:
    def test_clean_run_is_transparent_and_all_ok(self):
        report = chaos_serve(seed=0, fault_rate=0.0, requests=48)
        assert report.ok, report.violations
        assert report.fault_rate == 0.0
        assert report.injected == {}
        assert report.statuses == {"ok": 48}
        # Pairs are drawn with replacement, so repeats may hit the result
        # cache even with no faults — but nothing degrades or falls back.
        assert set(report.sources) <= {"backend", "cache"}
        assert sum(report.sources.values()) == 48

    def test_fingerprint_is_stable_across_runs(self):
        first = chaos_serve(seed=3, fault_rate=0.0, requests=48)
        second = chaos_serve(seed=3, fault_rate=0.0, requests=48)
        assert first.fingerprint == second.fingerprint
        assert first.as_dict() == second.as_dict()

    def test_different_seeds_change_the_session(self):
        a = chaos_serve(seed=0, fault_rate=0.0, requests=48)
        b = chaos_serve(seed=1, fault_rate=0.0, requests=48)
        assert a.fingerprint != b.fingerprint


class TestUnderFaults:
    def test_faulty_run_keeps_every_invariant(self):
        report = chaos_serve(seed=0, fault_rate=0.3, requests=96)
        assert report.ok, report.violations
        assert sum(report.injected.values()) > 0
        # Faults surface as cache/fallback/degraded answers, never failures.
        assert set(report.sources) <= {
            "backend", "cache", "fallback", "degraded"
        }
        assert report.statuses.get("ok", 0) == report.requests

    def test_report_dict_is_json_shaped(self):
        payload = chaos_serve(seed=1, fault_rate=0.3, requests=48).as_dict()
        assert payload["kind"] == "serve"
        assert payload["ok"] is True
        assert isinstance(payload["fingerprint"], str)
        assert payload["violations"] == []
        assert "gateway_stats" in payload and "engine_stats" in payload


class TestSweep:
    def test_sweep_covers_the_seed_rate_grid(self):
        reports = serve_sweep(seeds=(0, 1), rates=(0.0, 0.3), requests=48)
        assert len(reports) == 4
        assert [(r.seed, r.fault_rate) for r in reports] == [
            (0, 0.0), (0, 0.3), (1, 0.0), (1, 0.3)
        ]
        assert all(r.ok for r in reports)


class TestViolationDetection:
    LANES = (("tenant", "a"), ("persona", "p"))

    def _one_completed(self) -> GatewayStats:
        stats = GatewayStats()
        stats.add("submitted", lanes=self.LANES)
        stats.add("admitted", lanes=self.LANES)
        stats.add("completed", lanes=self.LANES)
        assert stats.violations() == []
        return stats

    def test_corrupted_counters_are_caught(self):
        stats = self._one_completed()
        # Claim a completion that never happened alongside the real one.
        stats.add("completed")
        problems = stats.violations()
        assert problems and any("completed" in p for p in problems)

    @pytest.mark.parametrize("in_queue", [1, 5])
    def test_phantom_queue_depth_is_a_violation(self, in_queue):
        stats = self._one_completed()
        assert stats.violations(in_queue=0) == []
        assert stats.violations(in_queue=in_queue) != []

    def test_request_missing_from_persona_lanes_is_caught(self):
        # Total and tenant lanes agree; only the persona lanes fall short.
        stats = self._one_completed()
        stats.add("submitted", "admitted", "completed", lanes=(("tenant", "a"),))
        problems = stats.violations()
        assert problems == [
            "persona lanes sum submitted 1 != total rejected 0 + admitted 2",
            "persona lanes sum admitted 1 != total admitted 2",
            "persona lanes sum completed 1 != total completed 2",
        ]

    def test_unknown_persona_error_keeps_persona_lanes_balanced(self):
        stats = self._one_completed()
        stats.add("submitted", "errors", lanes=(("tenant", "a"),))
        assert stats.violations() == []
        # An error counted in a persona lane breaks the persona sums.
        stats.add("errors", lanes=(("persona", "p"),))
        assert any("persona lanes sum errors" in p
                   for p in stats.violations())
