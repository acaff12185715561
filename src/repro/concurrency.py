"""Machine-checkable concurrency annotations.

The lock-discipline analyzer (``repro-em lint --deep``) needs to know
which fields a lock protects.  The convention is declarative: a class
declares each guarded field at class level with :func:`guarded_by` inside
``typing.Annotated``::

    class ResultCache:
        _entries: Annotated[OrderedDict, guarded_by("_lock")]
        evictions: Annotated[int, guarded_by("_lock")]

        def __init__(self) -> None:
            self._lock = threading.RLock()
            ...

The analyzer then enforces, across the whole program:

* every read/write of a guarded field happens inside ``with self._lock``
  (``__init__``/``__post_init__`` are exempt — construction happens-before
  publication);
* no blocking call (sleep, backend I/O, model inference) is made while a
  lock is held;
* the set of "acquire B while holding A" edges is acyclic (no potential
  deadlock ordering).

The annotation is metadata only — it has no runtime effect beyond being
introspectable via ``typing.get_type_hints(..., include_extras=True)``.

The resource-lifecycle analyzer (``deep-resource-*`` rules) adds two more
declarative conventions:

* :func:`shutdown_order` — a class that owns several resources declares
  the order its release method must tear them down in::

      class Gateway:
          __shutdown_order__ = shutdown_order("_cv", "_thread")

  Read as "drain/notify ``_cv`` before joining ``_thread``"; the
  ``deep-shutdown-order`` rule checks the release events in ``close`` /
  ``shutdown`` / ``stop`` / ``__exit__`` against the declared sequence.

* :func:`idempotent` — decorates a release method that is safe to call
  more than once (it checks its own closed flag); the
  ``deep-resource-double-close`` rule then accepts paths that release
  the same resource twice through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["GuardedBy", "ShutdownOrder", "guarded_by", "idempotent", "shutdown_order"]

_F = TypeVar("_F", bound=Callable)


@dataclass(frozen=True)
class GuardedBy:
    """Marker: the annotated field must only be touched under *lock_attr*."""

    lock_attr: str


def guarded_by(lock_attr: str) -> GuardedBy:
    """Declare that a field is protected by ``self.<lock_attr>``."""
    return GuardedBy(lock_attr)


@dataclass(frozen=True)
class ShutdownOrder:
    """Marker: resources in *attrs* must be released in this order."""

    attrs: tuple[str, ...]


def shutdown_order(*attrs: str) -> ShutdownOrder:
    """Declare the teardown sequence of a class's owned resources.

    Assign the result to a class-level ``__shutdown_order__`` attribute;
    the ``deep-shutdown-order`` rule checks every release method against
    it.  Listing an attribute also marks it as *owned*: storing a fresh
    resource there satisfies the leak rule's ownership requirement.
    """
    if not attrs:
        raise ValueError("shutdown_order needs at least one attribute name")
    return ShutdownOrder(tuple(attrs))


def idempotent(fn: _F) -> _F:
    """Mark a release method as safe to call repeatedly (metadata only)."""
    return fn
