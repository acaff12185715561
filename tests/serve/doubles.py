"""Test doubles for the serve suite: a controllable fake engine."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from repro._util import stable_hash
from repro.engine.retry import CircuitBreaker


@dataclass
class FakeEngine:
    """Engine stand-in exposing exactly what the gateway touches.

    ``match_pairs`` answers with stable-hash parity (same rule as the
    engine suite's ParityBackend), records every dispatched chunk, and
    keeps ``stats.requests`` in sync so gateway reconciliation holds.
    The breaker is a real :class:`CircuitBreaker` on *clock* (cooldown
    2 s) whose ``state``/``opened_at`` tests can set to open it.
    """

    chunks: list = field(default_factory=list)
    #: the gateway's chunk size for this engine.
    batch_size: int = 32
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        self.stats = SimpleNamespace(requests=0)
        self.breaker = CircuitBreaker(cooldown=2.0, clock=self.clock)

    def match_pairs(self, pairs):
        pairs = list(pairs)
        self.chunks.append(pairs)
        self.stats.requests += len(pairs)
        return [
            SimpleNamespace(
                decision=stable_hash(left, right) % 2 == 0,
                response="Yes.",
                source="backend",
            )
            for left, right in pairs
        ]
