"""The deep async analyses (asyncflow) over the asyncpkg fixture package."""

import pytest

from repro.lint.asyncflow import BOTH, LOOP, THREAD
from repro.lint.deep import build_context, run_deep
from repro.lint.findings import SCHEMA_VERSION, format_json

from .conftest import REPO_ROOT

FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"


@pytest.fixture(scope="module")
def fixture_run():
    context = build_context(FIXTURES, ("asyncpkg",))
    findings, summary = run_deep(context=context)
    return context, findings, summary


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


class TestContextClassification:
    def test_coroutines_are_loop(self, fixture_run):
        context, _, _ = fixture_run
        flow = context.asyncflow
        assert flow.context["asyncpkg.bad_blocking.slow_sleep"] == LOOP
        assert flow.context["asyncpkg.regression_gateway.MiniGateway.close"] == LOOP

    def test_thread_targets_are_thread(self, fixture_run):
        context, _, _ = fixture_run
        flow = context.asyncflow
        assert flow.context["asyncpkg.bad_race.Shared._worker"] == THREAD
        assert flow.context["asyncpkg.bad_future.Completer._finish"] == THREAD

    def test_cst_callback_is_loop(self, fixture_run):
        context, _, _ = fixture_run
        flow = context.asyncflow
        assert "asyncpkg.good_future.LoopCompleter._publish" in flow.cst_callbacks
        assert flow.context["asyncpkg.good_future.LoopCompleter._publish"] == LOOP

    def test_executor_callable_is_thread(self, fixture_run):
        context, _, _ = fixture_run
        flow = context.asyncflow
        assert "asyncpkg.good_blocking.burn" in flow.thread_roots
        assert flow.context["asyncpkg.good_blocking.burn"] == THREAD


class TestBlockingRule:
    def test_each_primitive_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        hits = by_rule(findings, "deep-async-blocking")
        bad = [(f.line, f.message) for f in hits if f.path == "asyncpkg/bad_blocking.py"]
        assert [line for line, _ in bad] == [9, 13, 18, 24, 28]
        reasons = "\n".join(msg for _, msg in bad)
        assert "time.sleep(...)" in reasons
        assert "open(...)" in reasons
        assert "lock.acquire(...)" in reasons
        assert "queue.get(...)" in reasons

    def test_transitive_finding_carries_provenance(self, fixture_run):
        _, findings, _ = fixture_run
        hit = next(
            f
            for f in by_rule(findings, "deep-async-blocking")
            if f.path == "asyncpkg/bad_blocking.py" and f.line == 28
        )
        # The chain walks coroutine -> helper -> helper -> primitive.
        assert "asyncpkg.bad_blocking.crunch" in hit.message
        assert "asyncpkg.bad_blocking.burn" in hit.message
        assert "time.sleep(...) at asyncpkg/bad_blocking.py:36" in hit.message

    def test_good_module_clean(self, fixture_run):
        _, findings, _ = fixture_run
        assert not any(f.path == "asyncpkg/good_blocking.py" for f in findings)


class TestFutureRule:
    def test_off_loop_completion_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        hit = next(
            f
            for f in by_rule(findings, "deep-async-future")
            if f.path == "asyncpkg/bad_future.py" and f.line == 18
        )
        assert "set_result" in hit.message
        assert "thread-classified" in hit.message

    def test_discarded_and_never_awaited_coroutines_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        hows = {
            f.line: f.message
            for f in by_rule(findings, "deep-async-future")
            if f.path == "asyncpkg/bad_future.py" and f.line != 18
        }
        assert set(hows) == {26, 27}
        assert "discarded" in hows[26]
        assert "never-awaited" in hows[27]

    def test_good_module_clean(self, fixture_run):
        _, findings, _ = fixture_run
        assert not any(f.path == "asyncpkg/good_future.py" for f in findings)


class TestRaceRule:
    def test_thread_write_loop_read_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        hit = next(
            f
            for f in by_rule(findings, "deep-async-race")
            if f.path == "asyncpkg/bad_race.py"
        )
        assert "Shared.items" in hit.message
        assert "thread context" in hit.message
        assert "loop context" in hit.message

    def test_guarded_and_cst_handoff_clean(self, fixture_run):
        _, findings, _ = fixture_run
        assert not any(f.path == "asyncpkg/good_race.py" for f in findings)


class TestRegressionFixture:
    """Shapes distilled from the violations surfaced in repro.serve."""

    def test_async_close_joining_threads_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        assert any(
            f.path == "asyncpkg/regression_gateway.py"
            and f.line == 35
            and "thread.join" in f.message
            for f in by_rule(findings, "deep-async-blocking")
        )

    def test_unguarded_queue_and_closed_flag_flagged(self, fixture_run):
        _, findings, _ = fixture_run
        fields = {
            f.message.split(" is written", 1)[0]
            for f in by_rule(findings, "deep-async-race")
            if f.path == "asyncpkg/regression_gateway.py"
        }
        assert fields == {"MiniGateway._queue", "MiniGateway._closed"}


class TestRunSummary:
    def test_exact_finding_set(self, fixture_run):
        """The fixture package's full expected output, pinned."""
        _, findings, _ = fixture_run
        got = sorted((f.rule, f.path, f.line) for f in findings)
        assert got == [
            ("deep-async-blocking", "asyncpkg/bad_blocking.py", 9),
            ("deep-async-blocking", "asyncpkg/bad_blocking.py", 13),
            ("deep-async-blocking", "asyncpkg/bad_blocking.py", 18),
            ("deep-async-blocking", "asyncpkg/bad_blocking.py", 24),
            ("deep-async-blocking", "asyncpkg/bad_blocking.py", 28),
            ("deep-async-blocking", "asyncpkg/regression_gateway.py", 35),
            ("deep-async-future", "asyncpkg/bad_future.py", 18),
            ("deep-async-future", "asyncpkg/bad_future.py", 26),
            ("deep-async-future", "asyncpkg/bad_future.py", 27),
            ("deep-async-race", "asyncpkg/bad_race.py", 16),
            ("deep-async-race", "asyncpkg/regression_gateway.py", 25),
            ("deep-async-race", "asyncpkg/regression_gateway.py", 33),
        ]

    def test_async_summary_accounting(self, fixture_run):
        _, _, summary = fixture_run
        flow = summary["async"]
        assert flow["resolution_rate"] == 1.0
        assert flow["coroutines"] == 16
        assert flow["thread_roots"] == 6
        assert flow["cst_callbacks"] == 2
        assert flow["executor_hops"] == 1

    def test_timings_gated_behind_flag(self):
        _, with_timings = run_deep(FIXTURES, ("asyncpkg",), timings=True)
        assert set(with_timings["timings"]) == {
            "symbols", "callgraph", "taint", "exceptions", "locks",
            "asyncflow", "resources",
        }
        _, plain = run_deep(FIXTURES, ("asyncpkg",))
        assert "timings" not in plain

    def test_schema_version_bumped_for_async_summary(self):
        import json

        payload = json.loads(format_json([], summary={"async": {}}))
        assert payload["schema_version"] == SCHEMA_VERSION == 3


class TestRealTree:
    def test_real_tree_clean_with_async_floor(self):
        """ISSUE acceptance: async analyses pass on src/repro itself, with
        await/call-site classification at or above the 0.90 floor."""
        findings, summary = run_deep(REPO_ROOT)
        assert findings == []
        flow = summary["async"]
        assert flow["resolution_rate"] >= 0.90
        assert flow["coroutines"] >= 10
        assert flow["contexts"]["thread"] >= 1
        assert flow["cst_callbacks"] >= 2
        assert flow["executor_hops"] >= 1

    def test_gateway_hands_back_through_one_callback(self):
        """The gateway's one thread→loop seam is a sanctioned hand-off:
        ``_set_results`` runs on the loop, and the dispatch side that posts
        it runs on both sides (worker threads and the inline pump)."""
        flow = build_context(REPO_ROOT).asyncflow
        gateway = "repro.serve.gateway.Gateway"
        assert f"{gateway}._set_results" in flow.cst_callbacks
        assert flow.context[f"{gateway}._set_results"] == LOOP
        assert flow.context[f"{gateway}._hand_back"] == BOTH

    def test_deep_json_byte_identical_across_runs(self):
        first = run_deep(REPO_ROOT)
        second = run_deep(REPO_ROOT)
        assert format_json(first[0], summary=first[1]) == format_json(
            second[0], summary=second[1]
        )

    def test_async_def_header_suppression_reaches_body(self, tmp_path):
        pkg = tmp_path / "tpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "async def pump():  # repro-lint: disable=deep-async-blocking — t\n"
            "    time.sleep(0.1)\n"
        )
        findings, _ = run_deep(tmp_path, ("tpkg",))
        assert findings == []
