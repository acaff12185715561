"""Injectable manual clock: the time seam every chaos run is driven by.

The engine, cache, retry policy, and circuit breaker all take
``clock``/``sleep`` callables instead of touching :mod:`time` directly
(enforced by the ``injectable-sleep`` lint rule).  :class:`ManualClock`
is the library-level implementation of that seam: a monotonic counter
that only moves when something *tells* it to — a backoff sleep, an
injected timeout fault, a test.  Chaos runs built on it are therefore
bit-reproducible: wall-clock speed of the host never leaks into cache
expiry, timeout accounting, or breaker cooldowns.

The same instance also drives *asyncio* code (the ``repro.serve``
gateway): :meth:`ManualClock.sleep_async` suspends a coroutine until the
simulated clock reaches its wake-up time, :meth:`ManualClock.wait_for`
is an ``asyncio.wait_for`` on simulated time, and the :meth:`tick` pump
advances the clock straight to the next pending wake-up.  ``advance``
may be called from any thread (e.g. an engine worker burning simulated
backoff); due async waiters are released through their own event loop
via ``call_soon_threadsafe``, so the sync and async halves of a chaos
run share one timeline.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Annotated

from repro.concurrency import guarded_by

__all__ = ["ManualClock"]


class ManualClock:
    """Thread-safe manually-advanced monotonic clock (also a sleep seam).

    Calling the instance returns the current time; :meth:`advance` moves
    it forward; :meth:`sleep` is an injectable stand-in for
    ``time.sleep`` that advances the clock instead of waiting, so retry
    backoff consumes simulated — never real — time.  The async seam
    (:meth:`sleep_async`, :meth:`wait_for`, :meth:`tick`) parks
    coroutines against the same timeline instead of the event loop's
    wall clock.
    """

    #: the timeline and its parked sleepers — advanced from arbitrary
    #: threads, read by the async seam on the loop; always under ``_lock``.
    _now: Annotated[float, guarded_by("_lock")]
    #: parked async sleepers: (wake-up time, owning loop, future).
    _waiters: Annotated[
        "list[tuple[float, asyncio.AbstractEventLoop, asyncio.Future]]",
        guarded_by("_lock"),
    ]

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._lock = threading.Lock()
        self._waiters = []

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward (negative advances are rejected).

        Any async sleeper whose wake-up time is reached is released, via
        its own event loop — safe to call from worker threads.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}")
        with self._lock:
            self._now += seconds
            due = [w for w in self._waiters if w[0] <= self._now]
            self._waiters = [w for w in self._waiters if w[0] > self._now]
        for _, loop, future in due:
            try:
                loop.call_soon_threadsafe(self._release, future)
            except RuntimeError:
                # The waiter's loop already shut down; nobody can await
                # that future any more, so dropping it is correct.
                pass

    def sleep(self, seconds: float) -> None:
        """Consume *seconds* of simulated time (drop-in for ``time.sleep``)."""
        self.advance(max(seconds, 0.0))

    # ------------------------------------------------------------ async seam

    @staticmethod
    def _release(future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(None)

    async def sleep_async(self, seconds: float) -> None:
        """Suspend until the clock has advanced *seconds* (asyncio drop-in).

        A non-positive delay returns immediately without suspending.  The
        coroutine resumes only once :meth:`advance` (from any thread) or
        :meth:`tick` moves the clock past its wake-up time — never from
        real time passing.
        """
        if seconds <= 0:
            return
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        with self._lock:
            deadline = self._now + seconds
            self._waiters.append((deadline, loop, future))
        await future

    async def wait_for(self, awaitable, timeout: float):
        """``asyncio.wait_for`` on simulated time.

        Returns the awaitable's result, or raises ``TimeoutError`` (and
        cancels it) if the clock passes *timeout* seconds first.
        """
        task = asyncio.ensure_future(awaitable)
        sleeper = asyncio.ensure_future(self.sleep_async(timeout))
        try:
            done, _ = await asyncio.wait(
                {task, sleeper}, return_when=asyncio.FIRST_COMPLETED
            )
        except BaseException:
            task.cancel()
            sleeper.cancel()
            raise
        if task in done:
            sleeper.cancel()
            return task.result()
        task.cancel()
        raise TimeoutError(f"simulated deadline of {timeout}s expired")

    # ------------------------------------------------------------- tick pump

    def pending_wakeups(self) -> int:
        """Number of coroutines currently parked in :meth:`sleep_async`."""
        with self._lock:
            return len(self._waiters)

    def next_wakeup(self) -> float | None:
        """Earliest parked wake-up time, or None when nothing is parked."""
        with self._lock:
            live = [w for w in self._waiters if not w[2].done()]
            self._waiters = live
            return min((w[0] for w in live), default=None)

    def tick(self) -> float | None:
        """Advance straight to the next pending wake-up (the tick pump).

        Returns the new time, or None when no sleeper is parked.  Driving
        a gateway test is ``while clock.tick() is not None: ...`` — every
        queued timeout and arrival fires in deterministic order with no
        real waiting.
        """
        target = self.next_wakeup()
        if target is None:
            return None
        self.advance(max(0.0, target - self()))
        return self()
