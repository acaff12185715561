"""Benchmark output helper: print tables and persist them under results/."""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def emit(name: str, text: str) -> None:
    """Print a rendered result table and save it to results/<name>.txt."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result to results/<name>.json."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def publish(name: str, payload: dict, text: str, *, smoke: bool) -> None:
    """Save a full run's result under results/; only print a smoke run's.

    The checked-in results come from full-size runs only: a smoke run is
    a CI gate, not a measurement.
    """
    if smoke:
        print(text)
        return
    emit_json(name, payload)
    emit(name, text)
