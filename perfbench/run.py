"""Repository benchmark: records in, through the simulated model, clusters out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-resolve --seed 1 --seconds 30 --trace 0

One workload runs per process.  The process builds its inputs from the
seed, sets up three times (``setup_s`` is the import time plus the
median set-up), measures for ``--seconds``, checks the outputs and
prints, as its last line, one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Every time is reported at the reference speed of ``perfbench/pace.py``.
``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` records spans around each layer's public calls and
reports every per-layer metric instead.  A failed output check prints
``"correct": false`` and exits 1; a checkout without ``src/repro``
exits 2 without a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One compute thread per process: the serve run is one event loop plus
# one gateway worker, and native thread pools would add CPU contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SETUP_REFERENCE_RUNS = 15
HASH_SEED = "0"


def journal_filesystem(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from mountinfo)."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: int, trace: bool,
            root: Path, sizes=None) -> tuple[dict, list, dict]:
    """Set up, run and check one workload; returns (payload, problems, info)."""
    from perfbench import workloads
    from perfbench.pace import Pace
    from perfbench.tracing import Tracer

    imported = time.perf_counter() - STARTED
    sizes = sizes or workloads.FULL
    setup, run = workloads.WORKLOADS[workload]
    spec = load_spec(root)
    work = root / ".perfbench_work"
    workdir = work / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # A set-up lasts seconds, so one reference run at either end is
        # too few to tell its speed: take the median of several.
        pace = Pace(runs=SETUP_REFERENCE_RUNS)
        reps = []
        for _ in range(SETUP_REPS):
            gc.unfreeze()
            begun = time.perf_counter()
            state = setup(seed, sizes, workdir, seconds)
            reps.append((begun, time.perf_counter() - begun))
            # The inputs live for the whole run: keep full collections in
            # the timed phase from traversing them.
            gc.collect()
            gc.freeze()
            pace.mark(runs=SETUP_REFERENCE_RUNS)
        tracer = Tracer() if trace else None
        result = run(state, seconds, sizes, tracer)
        if tracer is not None:
            tracer.dump(work / f"trace-{workload}-seed{seed}.jsonl")
        imported *= pace.scale(STARTED)
        reps = [took * pace.scale(begun) for begun, took in reps]
        info = {"journal_fs": journal_filesystem(workdir),
                "setup_reps_s": reps,
                "setup_cold_s": imported + reps[0],
                "reference_ms": result.reference_ms}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = dict(result.per_layer) if trace else {
        **result.metrics,
        "setup_s": imported + statistics.median(reps),
        "ok_share": (result.attempted - result.failed) / result.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = list(result.problems)
    names = {m["name"] for m in wanted}
    if set(values) != names:
        problems.append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, extra {sorted(set(values) - names)}"
        )
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }
    payload = {
        "correct": not problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    return payload, problems, info


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process, and with it the layout
        # of every dict and set: recovery medians moved 44-78 ms across
        # processes with random hashing and 48-60 ms with a fixed seed.
        # Re-executing replaces this process; it starts no other.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    payload, problems, info = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, sizes
    )
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"journal_fs={info['journal_fs']} "
          f"setup_reps_s={[round(r, 3) for r in info['setup_reps_s']]} "
          f"setup_cold_s={info['setup_cold_s']:.3f} "
          f"reference_ms={info['reference_ms']:.3f}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
