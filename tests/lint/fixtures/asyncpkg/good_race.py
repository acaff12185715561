"""The same sharing shape, ordered both sanctioned ways."""  # repro-lint: disable-file=deep-resource-leak — scaffolding thread

import threading
from typing import Annotated

from asyncpkg.concurrency import guarded_by


class Tally:
    """Locks its own state; its ``add`` is a method, not a set mutation."""

    total: Annotated[int, guarded_by("_lock")]

    def __init__(self) -> None:
        self.total = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.total += n


class GuardedShared:
    """Declared guard: every access holds the lock (deep-lock-field checks)."""

    items: Annotated[list, guarded_by("_lock")]

    def __init__(self) -> None:
        self.items = []
        self._lock = threading.Lock()
        self.thread = None
        self.tally = Tally()

    def start(self) -> None:
        self.thread = threading.Thread(target=self._worker)
        self.thread.start()

    def _worker(self) -> None:
        with self._lock:
            self.items.append(1)
        self.tally.add(1)

    async def drain(self) -> list:
        self.tally.add(0)
        with self._lock:
            return list(self.items)


class Handoff:
    """call_soon_threadsafe hand-off: the edge is the happens-before."""

    def __init__(self) -> None:
        self.result = None

    def publish_from_thread(self, loop, value) -> None:
        loop.call_soon_threadsafe(self._publish, value)

    def _publish(self, value) -> None:
        self.result = value

    async def read(self):
        return self.result
