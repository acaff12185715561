"""Fault-injecting backend wrappers.

:class:`FaultyBackend` implements the :class:`~repro.engine.backends.Backend`
protocol around any inner backend and sabotages calls according to a
:class:`~repro.faults.plan.FaultPlan` — transport errors, injected
timeouts (simulated time, via :class:`~repro.faults.clock.ManualClock`),
garbled completions, truncated / over-long / mis-associated response
lists.  The wrapper is transparent at fault rate 0: it returns the inner
backend's answers untouched, which the chaos harness verifies
byte-for-byte.

:class:`CrashingBackend` models a *process death* instead of a transport
fault: after a configured number of batches it raises
:class:`SimulatedCrash`, which deliberately derives from
``BaseException`` so that neither the retry loop (``except Exception``)
nor the engine's typed fallback handlers can absorb it — exactly like a
SIGKILL, the run stops mid-flight and only the write-ahead journal
survives.
"""

from __future__ import annotations

import threading
from typing import Annotated, Callable

from repro.concurrency import guarded_by
from repro.engine.backends import Backend
from repro.engine.retry import BackendError
from repro.faults.plan import FaultPlan

__all__ = ["GARBLED_COMPLETION", "CrashingBackend", "FaultyBackend", "SimulatedCrash"]

#: what a garbled completion looks like: no parseable yes/no marker, so
#: the engine's parser degrades it to "unparseable" (a non-match) — the
#: same convention the evaluator applies to hedged answers.
GARBLED_COMPLETION = "@@ 0xDEADBEEF garbled transport frame @@"


class SimulatedCrash(BaseException):
    """The simulated process death of a chaos kill point.

    Derives from ``BaseException`` on purpose: a real crash is not an
    error the engine can retry or degrade around, so this must sail past
    ``except Exception`` retry boundaries and abort the run.
    """


class FaultyBackend:
    """Backend wrapper that injects scheduled faults (thread-safe)."""

    #: backend calls seen so far (addresses call-keyed plans).
    calls: Annotated[int, guarded_by("_lock")]
    #: fault kind → number of times it was injected.
    injected: Annotated["dict[str, int]", guarded_by("_lock")]
    #: content addressing: prompt → attempts made (transient faults hit
    #: only a prompt's first attempt, so retry provably absorbs them).
    _attempts: Annotated["dict[str, int]", guarded_by("_lock")]

    def __init__(
        self,
        inner: Backend,
        plan: FaultPlan,
        clock: Callable[[], float] | None = None,
        timeout_advance: float = 0.0,
    ) -> None:
        """Wrap *inner* under *plan*.

        ``timeout`` faults fast-forward *clock* by ``timeout_advance``
        simulated seconds — set it above the engine's
        ``RetryPolicy.timeout`` so the attempt blows its budget.  Both
        are required when the plan can draw ``timeout``.
        """
        if plan.script is not None:  # scripted plans bypass kind draws
            may_time_out = "timeout" in plan.script
        else:
            may_time_out = plan.fault_rate > 0.0 and "timeout" in plan.kinds
        if may_time_out and plan.addressing == "call":
            advance = getattr(clock, "advance", None)
            if advance is None or timeout_advance <= 0.0:
                raise ValueError(
                    "timeout faults need an advanceable clock and a "
                    "positive timeout_advance"
                )
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.timeout_advance = timeout_advance
        self.name = f"faulty:{inner.name}"
        self.calls = 0
        self.injected = {}
        self._attempts = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording

    def _record(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + n

    def injected_counts(self) -> dict[str, int]:
        """Snapshot of fault kind → injections so far (sorted keys)."""
        with self._lock:
            return {kind: self.injected[kind] for kind in sorted(self.injected)}

    # -------------------------------------------------------------- faulting

    def generate(self, prompts: list[str]) -> list[str]:
        if self.plan.addressing == "content":
            return self._generate_content(prompts)
        with self._lock:
            index = self.calls
            self.calls += 1
        kind = self.plan.fault_for_call(index)
        if kind == "error":
            self._record("error")
            raise BackendError(f"{self.name}: injected transport error (call {index})")
        responses = self.inner.generate(prompts)
        if kind is None:
            return responses
        self._record(kind)
        if kind == "timeout":
            # The answers are "produced", but only after the attempt's
            # simulated wall-clock budget is blown — the engine must
            # discard them as a BackendTimeout and retry.
            self.clock.advance(self.timeout_advance)
            return responses
        if kind == "garble":
            return [GARBLED_COMPLETION for _ in responses]
        if kind == "truncate":
            return responses[:-1]
        if kind == "overlong":
            return responses + [GARBLED_COMPLETION]
        if kind == "duplicate":
            # Mis-associated batch: every slot answers for the first
            # prompt.  Same length, so the transport layer cannot detect
            # it — it surfaces only as degraded decision quality.
            return [responses[0]] * len(responses) if responses else responses
        raise BackendError(f"{self.name}: unhandled fault kind {kind!r}")

    def _generate_content(self, prompts: list[str]) -> list[str]:
        """Content-keyed faulting: outcome independent of interleaving."""
        with self._lock:
            self.calls += 1
            transient_error = False
            garbled = []
            for prompt in prompts:
                kind = self.plan.fault_for_prompt(prompt)
                if kind == "error" and self._attempts.get(prompt, 0) == 0:
                    transient_error = True
                garbled.append(kind == "garble")
                self._attempts[prompt] = self._attempts.get(prompt, 0) + 1
        if transient_error:
            self._record("error")
            raise BackendError(f"{self.name}: injected transient transport error")
        responses = self.inner.generate(prompts)
        if any(garbled):
            self._record("garble", sum(garbled))
            responses = [
                GARBLED_COMPLETION if bad else response
                for response, bad in zip(responses, garbled)
            ]
        return responses


class CrashingBackend:
    """Kill switch: dies (raises :class:`SimulatedCrash`) after N batches."""

    #: completed backend calls (the crash happens *instead of* call N+1,
    #: i.e. at a batch boundary — retired work is already journaled).
    calls: Annotated[int, guarded_by("_lock")]

    def __init__(self, inner: Backend, kill_after: int | None = None) -> None:
        if kill_after is not None and kill_after < 0:
            raise ValueError("kill_after must be non-negative")
        self.inner = inner
        self.kill_after = kill_after
        self.name = f"crashing:{inner.name}"
        self.calls = 0
        self._lock = threading.Lock()

    # The whole point of this double is to violate the Backend boundary
    # contract: a simulated process death must NOT surface as a
    # BackendError the retry/fallback machinery could absorb.
    def generate(self, prompts: list[str]) -> list[str]:  # repro-lint: disable=deep-exception-boundary — SimulatedCrash models SIGKILL; it must escape every typed handler by design.
        with self._lock:
            crash = self.kill_after is not None and self.calls >= self.kill_after
            if not crash:
                self.calls += 1
        if crash:
            raise SimulatedCrash(
                f"{self.name}: simulated crash at batch boundary "
                f"{self.kill_after}"
            )
        return self.inner.generate(prompts)
