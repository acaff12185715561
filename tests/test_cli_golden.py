"""Golden digests of deterministic CLI JSON outputs.

Each command below prints a JSON document that is a pure function of
its arguments: simulated clocks, seeded workloads, and no wall-clock
timings.  The sha256 of its stdout is pinned, so any change that moves
one byte of that output — a counter, a key order, a float's rounding —
fails here instead of being checked by hand.  The digests do not depend
on ``PYTHONHASHSEED``; each command runs in a fresh interpreter with the
ambient one.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN = {
    "chaos-sweep": (
        ["chaos", "--fault-rate", "0.3", "--seed", "0", "--seed", "1",
         "--seed", "2", "--kill-every", "3", "--format", "json"],
        "97d4986e5bdf6dd3b0b4462f78702ab9955a43e8afdc4c010aecb6ce6f97b9b6",
    ),
    "serve-chaos": (
        ["serve", "--chaos", "--fault-rate", "0.3", "--chaos-seed", "0",
         "--chaos-seed", "1", "--chaos-seed", "2", "--format", "json"],
        "b9cc91f5863bf981e57ba8864ac8a4fa98af091f22256f81dc49364725caea14",
    ),
    "serve-load": (
        ["serve", "--offered-load", "4000", "--requests", "600",
         "--tenants", "3", "--quota", "150", "--format", "json"],
        "d5c8b421373cecc65783edb9fd7301fa9c2581672d4e631d71529d2acbfe2854",
    ),
    "resolve-stats": (
        ["resolve", "--dataset", "abt-buy", "--limit", "300",
         "--blocker", "minhash", "--stats", "--format", "json"],
        "cac99d74ff941b129942a3ddef475539748692d1f17258aef91f49ec21f9ee30",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_json_digest(name):
    argv, digest = GOLDEN[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest
