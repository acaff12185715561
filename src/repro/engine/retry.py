"""Retry hardening: bounded retries, backoff with jitter, circuit breaking.

Backend calls in the engine are synchronous, so the per-request *timeout*
is enforced post-hoc: an attempt whose measured duration exceeds the
budget is treated as failed (``BackendTimeout``) and retried — the same
observable behaviour as a client-side deadline, minus preemption, which a
single-threaded simulator cannot provide.

Jitter is derived from :func:`repro._util.derive_rng` so retry schedules
are bit-reproducible; both the clock and the sleep function are
injectable so tests never actually wait.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Annotated, Callable, TypeVar

from repro._util import derive_rng
from repro.concurrency import guarded_by

__all__ = [
    "BackendError",
    "BackendTimeout",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "run_with_retry",
]

T = TypeVar("T")


class BackendError(RuntimeError):
    """A backend call failed (transport error, provider rejection, ...)."""


class BackendTimeout(BackendError):
    """A backend attempt exceeded the per-request time budget."""


class CircuitOpenError(BackendError):
    """The circuit breaker is open: the backend is marked unhealthy."""


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    #: total attempts (first try + retries).
    max_attempts: int = 3
    #: delay before the first retry, seconds.
    backoff_base: float = 0.05
    #: multiplier applied per retry.
    backoff_factor: float = 2.0
    #: backoff ceiling, seconds.
    max_backoff: float = 2.0
    #: relative jitter amplitude: delay is scaled by ``1 ± jitter``.
    jitter: float = 0.25
    #: per-attempt wall-clock budget, seconds (None = unbounded).
    timeout: float | None = None
    #: seed namespace for the jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0.0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1 (non-decreasing delays), "
                f"got {self.backoff_factor}"
            )
        if self.max_backoff < 0.0:
            raise ValueError(f"max_backoff must be >= 0, got {self.max_backoff}")
        if not 0.0 <= self.jitter <= 1.0:
            # jitter > 1 would allow negative delays; the backoff floor
            # would silently clamp them, hiding the misconfiguration.
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number *attempt* (0-based), jittered."""
        delay = min(
            self.backoff_base * self.backoff_factor**attempt, self.max_backoff
        )
        if self.jitter > 0.0:
            u = derive_rng(self.seed, "retry-jitter", attempt).uniform(-1.0, 1.0)
            delay *= 1.0 + self.jitter * u
        return max(delay, 0.0)


@dataclass
class CircuitBreaker:
    """Trips open after consecutive failures; recovers through half-open.

    States: ``closed`` (normal), ``open`` (fail fast until *cooldown*
    elapses), ``half-open`` (one trial call allowed; success closes the
    circuit, failure re-opens it).

    One breaker may be shared by every engine thread: state transitions
    happen under an internal lock so two threads cannot both take the
    half-open trial slot or double-count an open transition.
    ``times_opened`` is a monotonic counter written only under the lock;
    reading it without the lock is safe (it can only lag, never tear).
    """

    failure_threshold: int = 5
    cooldown: float = 30.0
    clock: Callable[[], float] = time.monotonic

    state: Annotated[str, guarded_by("_lock")] = field(
        default="closed", init=False
    )
    consecutive_failures: Annotated[int, guarded_by("_lock")] = field(
        default=0, init=False
    )
    opened_at: Annotated[float, guarded_by("_lock")] = field(
        default=0.0, init=False
    )
    #: closed/half-open → open transitions over the breaker's lifetime.
    times_opened: int = field(default=0, init=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    def cooling(self) -> bool:
        """Whether the breaker is open with cooldown left (fail fast).

        Reads the clock only while open.  A read-only peek: the move to
        half-open is :meth:`allow`'s.
        """
        with self._lock:
            return (
                self.state == "open"
                and self.clock() - self.opened_at < self.cooldown
            )

    def allow(self) -> bool:
        """Whether a call may proceed right now (may move open → half-open)."""
        with self._lock:
            if self.cooling():
                return False
            if self.state == "open":
                self.state = "half-open"
            return True

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state == "half-open" or (
                self.state == "closed"
                and self.consecutive_failures >= self.failure_threshold
            ):
                self.state = "open"
                self.opened_at = self.clock()
                self.times_opened += 1

    def describe(self) -> str:
        """One-line state summary (used in fail-fast error messages)."""
        with self._lock:
            return (
                f"cooldown {self.cooldown}s, "
                f"{self.consecutive_failures} consecutive failures"
            )


def run_with_retry(
    fn: Callable[[], T],
    policy: RetryPolicy,
    breaker: CircuitBreaker | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, Exception], None] | None = None,
) -> T:
    """Call *fn* under *policy*, reporting outcomes to *breaker*.

    Raises :class:`CircuitOpenError` without calling *fn* when the breaker
    refuses the call, and re-raises the last failure once attempts are
    exhausted.  *on_retry(attempt, exc)* fires before each backoff sleep.
    """
    last_error: Exception = BackendError("no attempts made")
    for attempt in range(policy.max_attempts):
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(f"circuit open ({breaker.describe()})")
        started = clock()
        try:
            result = fn()
        # repro-lint: disable=broad-except — retry boundary by design:
        # every failure of the wrapped call is treated as retryable.
        except Exception as exc:  # noqa: BLE001
            last_error = exc
        else:
            elapsed = clock() - started
            if policy.timeout is not None and elapsed > policy.timeout:
                last_error = BackendTimeout(
                    f"attempt took {elapsed:.3f}s > budget {policy.timeout:.3f}s"
                )
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
        if breaker is not None:
            breaker.record_failure()
        if attempt + 1 < policy.max_attempts:
            if on_retry is not None:
                on_retry(attempt, last_error)
            sleep(policy.backoff(attempt))
    raise last_error
