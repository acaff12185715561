"""Smoke self-test of the benchmark at toy sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload at toy sizes, untraced and traced.  It asserts
that each run passes its checks and prints every metric the spec
names, with the spec's unit.  It then asserts that
corrupted outputs fail: each workload's check rejects a partition with
two records swapped between clusters or a flipped decision, and the
one command exits 1 when the store hands back such a partition.
Finally it asserts that a directory holding only ``BENCHMARK.json`` and
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.workloads import TOY  # noqa: E402

SECONDS = 1


def invoke(workload: str, trace: int, seed: int = 7) -> tuple[int, str]:
    """Run the one command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", str(trace)],
            sizes=TOY,
        )
    return code, out.getvalue()


def swap_two(clusters) -> tuple:
    """The partition with one member of the first two multi-record
    clusters swapped: same records, same cluster sizes, wrong ids."""
    clusters = [list(c) for c in clusters]
    big = [i for i, c in enumerate(clusters) if len(c) > 1]
    first, second = big[0], big[1]
    clusters[first][-1], clusters[second][-1] = (
        clusters[second][-1], clusters[first][-1])
    return tuple(sorted((tuple(sorted(c)) for c in clusters),
                        key=lambda c: c[0]))


def check_metrics_printed(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, text = invoke(workload, trace)
            result = json.loads(text.strip().splitlines()[-1])
            assert code == 0 and result["correct"], (workload, trace, text)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["attempted"] >= 1 and result["failed"] == 0
            printed = result["metrics"]
            for metric in spec[key]:
                name = metric["name"]
                assert name in printed, (workload, trace, name)
                assert printed[name]["unit"] == metric["unit"], name
                assert isinstance(printed[name]["value"], float), name
            assert len(printed) == len(spec[key]), (workload, trace)
            if trace == 0:
                for name in ("setup_s", "throughput_per_s", "latency_p50_ms",
                             "latency_p90_ms", "peak_rss_mb"):
                    assert printed[name]["value"] > 0, (workload, name)
            print(f"ok  {workload} trace={trace}: "
                  f"{len(printed)} metrics with units")


def check_corruption_fails(tmp: Path) -> None:
    # stream: a swapped cluster member breaks the decision-log identity,
    # and a flipped logged decision disagrees with a direct engine pass.
    workloads.fresh_model()
    corpus = workloads.corpus_in_order(TOY.stream_records, seed=7)
    done = workloads._stream_pass(corpus, Pace())
    decisions = done.store.decision_log()
    _, problems = workloads.check_stream_pass(
        corpus, done.results, done.clusters, decisions)
    assert not problems, problems
    _, problems = workloads.check_stream_pass(
        corpus, done.results, swap_two(done.clusters), decisions)
    assert problems, "stream check accepted a swapped cluster id"
    assert not workloads.check_decisions(corpus, decisions)
    flipped = (dataclasses.replace(decisions[0], match=not decisions[0].match),
               *decisions[1:])
    assert workloads.check_decisions(corpus, flipped), \
        "stream check accepted a flipped logged decision"
    assert workloads.canonical_fingerprint(corpus) == \
        workloads.fingerprint(done.clusters)
    print("ok  stream check rejects a swapped cluster member and a flipped "
          "decision")

    # recover: a swapped member differs from the pre-crash fingerprint.
    state = workloads.replay_setup(7, TOY, tmp, SECONDS)
    _, _, clusters = workloads._recover_once(state, state.compacted)
    assert not workloads.check_recovery(state, clusters)
    assert workloads.check_recovery(state, swap_two(clusters)), \
        "recover check accepted a swapped cluster id"
    print("ok  recover check rejects a swapped cluster member")

    # serve: one flipped decision disagrees with the direct pass.
    serve = workloads.serve_setup(7, TOY, tmp, SECONDS)
    done = workloads._serve_pass(
        serve.requests, workloads.warm_router(serve.warm), Pace())
    assert not workloads.check_gateway(done)
    served = {}
    for response in done.responses:
        if workloads.model_answered(response):
            pair = (response.request.left, response.request.right)
            served.setdefault(pair, set()).add(response.decision)
    asked = sorted(served)
    reference = dict(zip(asked, workloads.direct_decisions(asked)))
    assert not workloads.check_served(served, reference)
    reference[asked[0]] = not reference[asked[0]]
    assert workloads.check_served(served, reference), \
        "serve check accepted a flipped decision"
    print("ok  serve check rejects a flipped decision")

    # The one command: a store that hands back a corrupted partition
    # makes the run print "correct": false and exit 1.
    from repro.resolve import Clustering, ResolutionStore

    honest = ResolutionStore.clustering

    def corrupted(store):
        return Clustering(clusters=swap_two(honest(store).clusters))

    ResolutionStore.clustering = corrupted
    try:
        code, text = invoke("stream-resolve", 0)
    finally:
        ResolutionStore.clustering = honest
    result = json.loads(text.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False, (code, text)
    print("ok  run.py exits 1 on a corrupted clustering")


def check_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-resolve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print(f"ok  bare directory exits {done.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.SETUP_REPS = 1
    tmp = ROOT / ".perfbench_work" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        check_metrics_printed(spec)
        check_corruption_fails(tmp)
        check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
