"""One counter seam: integer counts per lane, wall-clock samples kept apart.

A :class:`Counters` registry holds integer counts keyed by (name, lane).
A lane is ``()`` for the total, or a label such as ``("tenant", "t0")``
or ``("persona", "llama-3.1-8b")``.  :meth:`Counters.add` bumps every
named counter in the total and in each given lane under one lock hold, so
counts stay exact when an event loop and N dispatch threads write at
once.  Wall-clock samples (:meth:`Counters.sample`) live apart from the
counts: :meth:`Counters.counts` is the deterministic snapshot that may
appear in byte-identical output, and timings are only read through
:meth:`Counters.samples` / :meth:`Counters.percentiles`.

Conservation equations are data.  A layer subclasses :class:`Counters`
and declares its ``RULES``: :class:`Balance` (two sums of counters agree
in the total, and in every lane of the listed kinds) and :class:`LaneSum`
(the lanes of one kind add up to the total).  One
:meth:`Counters.violations` checks them all; an empty list means every
event is accounted for.
"""

from __future__ import annotations

import threading
from typing import Annotated, ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.concurrency import guarded_by

__all__ = [
    "Balance", "Counters", "Lane", "LaneSum", "Snapshot", "TOTAL", "lane_sums",
    "lanes_of",
]

#: a lane label: ``()`` is the total, ``(kind, name)`` one lane of a kind.
Lane = tuple
#: the total lane; every :meth:`Counters.add` bumps it.
TOTAL: Lane = ()

#: a counts snapshot: lane → counter name → count.
Snapshot = Mapping[Lane, Mapping[str, int]]


def lanes_of(counts: Snapshot, kind: str) -> dict[str, Mapping[str, int]]:
    """``{name: row}`` for every lane of *kind*, in snapshot order."""
    return {lane[1]: row for lane, row in counts.items() if lane[:1] == (kind,)}


def _terms(row: Mapping[str, int], names: Sequence[str]) -> tuple[int, str]:
    """Sum of *names* in *row*, and the sum written out term by term."""
    values = [row.get(name, 0) for name in names]
    text = " + ".join(f"{n} {v}" for n, v in zip(names, values)) or "0"
    return sum(values), text


class Balance(NamedTuple):
    """``sum(lhs) == sum(rhs)`` in the total and in each lane of *kinds*."""

    lhs: tuple
    rhs: tuple
    kinds: tuple = ()

    def check(self, counts: Snapshot) -> list[str]:
        problems = []
        for lane, row in counts.items():
            if lane and lane[0] not in self.kinds:
                continue
            left, left_text = _terms(row, self.lhs)
            right, right_text = _terms(row, self.rhs)
            if left != right:
                where = " ".join(lane) if lane else "total"
                problems.append(f"{where}: {left_text} != {right_text}")
        return problems


class LaneSum(NamedTuple):
    """``sum(lhs)`` over every lane of *kind* equals ``sum(rhs)`` in the total."""

    kind: str
    lhs: tuple
    rhs: tuple

    def check(self, counts: Snapshot) -> list[str]:
        left = sum(
            _terms(row, self.lhs)[0] for row in lanes_of(counts, self.kind).values()
        )
        right, right_text = _terms(counts.get(TOTAL, {}), self.rhs)
        if left == right:
            return []
        return [
            f"{self.kind} lanes sum {' + '.join(self.lhs)} {left} != "
            f"total {right_text}"
        ]


def lane_sums(kind: str, *names: str) -> tuple[LaneSum, ...]:
    """The lanes of *kind* partition the total for each of *names*."""
    return tuple(LaneSum(kind, (name,), (name,)) for name in names)


class Counters:
    """Integer counts per (name, lane) and weighted wall-clock samples."""

    #: conservation rules :meth:`violations` checks; subclasses declare them.
    RULES: ClassVar[tuple] = ()

    #: lane → counter name → count.
    _counts: Annotated[dict, guarded_by("_lock")]
    #: sample name → ``[(seconds, weight), ...]``, one entry per sample.
    _samples: Annotated[dict, guarded_by("_lock")]

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {}
        self._samples = {}

    def add(
        self,
        *names: str,
        n: int = 1,
        lanes: Iterable[Lane] = (),
        peak: "tuple[str, int] | None" = None,
    ) -> None:
        """Bump each of *names* by *n* in the total and in every lane.

        *peak* ``(name, value)`` raises a high-water counter in the total
        to at least *value* within the same lock hold.
        """
        with self._lock:
            for lane in (TOTAL, *lanes):
                row = self._counts.get(lane)
                if row is None:
                    row = self._counts[lane] = {}
                for name in names:
                    row[name] = row.get(name, 0) + n
            if peak is not None:
                name, value = peak
                total = self._counts[TOTAL]
                total[name] = max(total.get(name, 0), value)

    def get(self, name: str, lane: Lane = TOTAL) -> int:
        """One counter (0 if it was never bumped)."""
        with self._lock:
            return self._counts.get(lane, {}).get(name, 0)

    def counts(self) -> dict[Lane, dict[str, int]]:
        """Deterministic snapshot of every count, lanes in first-use order."""
        with self._lock:
            return {lane: dict(row) for lane, row in self._counts.items()}

    def sample(self, name: str, seconds: float, weight: int = 1) -> None:
        """Record one wall-clock sample standing for *weight* events."""
        with self._lock:
            self._samples.setdefault(name, []).append((seconds, weight))

    def samples(self, name: str) -> list[tuple[float, int]]:
        """Every ``(seconds, weight)`` sample recorded under *name*."""
        with self._lock:
            return list(self._samples.get(name, ()))

    def percentiles(
        self, name: str, qs: tuple[int, ...] = (50, 95, 99)
    ) -> dict[str, float]:
        """``{"p50": ...}`` over the samples, each counted *weight* times.

        Equal, bit for bit, to ``np.percentile`` over the list holding
        every sample's seconds *weight* times (empty dict if none).
        """
        samples = self.samples(name)
        if not samples:
            return {}
        seconds, weights = zip(*samples)
        values = np.percentile(np.repeat(seconds, weights), qs)
        return {f"p{q}": float(v) for q, v in zip(qs, values)}

    def violations(self, extra: "Mapping[str, int] | None" = None) -> list[str]:
        """Every declared rule that does not hold; empty means all do.

        *extra* adds counts to the total for this check only (events in
        flight at snapshot time, such as requests still queued).
        """
        counts = self.counts()
        total = counts.setdefault(TOTAL, {})
        for name, n in (extra or {}).items():
            total[name] = total.get(name, 0) + n
        ordered = {lane: counts[lane] for lane in sorted(counts)}
        return [problem for rule in self.RULES for problem in rule.check(ordered)]
