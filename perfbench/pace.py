"""The machine's speed, measured next to every timed operation.

The VM this benchmark was tuned on changes speed by up to a third for
seconds to minutes at a time.  Over two minutes of identical stream
passes, ten-second medians ranged from 1.22 s to 1.94 s, and a fixed
pure-Python loop slowed by the same share.  Longer runs and per-window
percentiles only remove the part of that drift which averages out
inside one run; the rest moved whole runs by a fifth.

So the timed phase is interleaved with runs of :func:`reference`:
fixed work that shares the program's instruction mix (string
splitting, set algebra, dict updates, sorting, JSON and small numpy
array products) but none of its code, about 5 ms long.  It runs before
the first operation and after every block of about 50 ms of work, and
each time measured in a block is reported at the reference speed:
multiplied by ``REFERENCE_S`` over the mean of the two reference runs
around it.  Over those two minutes of stream passes the spread of the
ten-second medians (quartile distance over median) fell from 0.22 to
0.06.  A change to the program moves its operations' times and not the
reference's, so it moves the reported times by the same share.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from collections import Counter

import numpy as np

#: seconds one :func:`reference` run takes at the reference speed.  On
#: the 2-vCPU VM the benchmark was tuned on, a run's median reference
#: took 3.6-6.5 ms, so reported times are close to its raw times.
REFERENCE_S = 0.005

_rng = random.Random(20240513)
_WORDS = ["".join(_rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
          for _ in range(400)]
_DOCS = [" ".join(_rng.sample(_WORDS, 12)) for _ in range(100)]
_MULT = (np.arange(1, 65, dtype=np.uint64)
         * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)


def reference() -> float:
    """Run the fixed reference work once; returns its wall seconds."""
    started = time.perf_counter()
    sets = [frozenset(doc.upper().lower().split()) for doc in _DOCS]
    total = 0.0
    for i, left in enumerate(sets):
        for right in sets[i + 1:i + 20]:
            total += len(left & right) / len(left | right)
    counts = Counter(word for doc in _DOCS for word in doc.split())
    order = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    parent = {word: word for word in _WORDS}
    for k, (word, _) in enumerate(order[1:]):
        parent[word] = order[k][0]
    signature = np.zeros(64, dtype=np.uint64)
    for doc in _DOCS[:25]:
        tokens = np.fromiter((len(t) * 131 + ord(t[0]) for t in doc.split()),
                             dtype=np.uint64)
        signature ^= (tokens[:, None] * _MULT[None, :]).min(axis=0)
    json.dumps(order)
    elapsed = time.perf_counter() - started
    assert total > 0 and len(parent) == len(_WORDS)
    return elapsed


class Pace:
    """Reference runs interleaved with a sequence of timed operations.

    Call :meth:`mark` between blocks of operations and once after the
    last; the constructor runs the first reference.  An operation that
    started between two reference runs is scaled by their mean.
    """

    def __init__(self, runs: int = 1) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []
        self.mark(runs)

    def mark(self, runs: int = 1) -> None:
        """Measure the speed now: the median of *runs* reference runs."""
        self.times.append(time.perf_counter())
        self.refs.append(statistics.median(reference() for _ in range(runs)))

    def scale(self, at: float) -> float:
        """Reference-speed seconds per measured second, at time *at*."""
        i = bisect.bisect_right(self.times, at)
        before = self.refs[max(i - 1, 0)]
        after = self.refs[min(i, len(self.refs) - 1)]
        return 2 * REFERENCE_S / (before + after)

    def median_ms(self) -> float:
        """Median reference time, as measured (ms)."""
        return statistics.median(self.refs) * 1e3
