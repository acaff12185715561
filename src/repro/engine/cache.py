"""Bounded LRU cache for match results (thread-safe).

Keys are normalized prompt strings; values are whatever the engine stores
(response text plus parsed decision).  Capacity is bounded: inserting into
a full cache evicts the least-recently-used entry.  Entries never expire:
a prompt's answer does not change while its model does, and fallback
answers are never stored (the ``fallback-cache`` lint rule).

Every access to the entry map happens under one re-entrant lock, so the
cache may be shared by any number of engine threads.  The guarded fields
are declared with :func:`repro.concurrency.guarded_by`, which the deep
linter checks against the actual lock regions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Annotated, Generic, Hashable, TypeVar

from repro.concurrency import guarded_by

__all__ = ["ResultCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class ResultCache(Generic[K, V]):
    """Bounded LRU cache."""

    #: key → value; insertion order tracks recency (last = MRU).
    _entries: Annotated["OrderedDict[K, V]", guarded_by("_lock")]
    evictions: Annotated[int, guarded_by("_lock")]

    def __init__(self, max_size: int = 4096) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return self.get(key, default=_MISSING, touch=False) is not _MISSING

    def get(self, key: K, default: V | None = None, touch: bool = True):
        """Return the value for *key* (refreshing recency) or *default*."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return default
            if touch:
                self._entries.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh *key*, evicting the LRU entry when over capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
