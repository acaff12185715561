"""In-memory span tracing around each layer's public calls.

Nothing under ``src/`` knows about tracing.  :func:`instrument` swaps
the layer entry points it lists (class methods and module functions)
for timing wrappers while a traced phase runs, and restores the
originals afterwards.  Every wrapped call records one span
— name, start, end, parent span, thread and request id — into a list
kept in memory; :meth:`Tracer.dump` writes them out once the run ends.

A span's *self time* is its duration minus the durations of its child
spans (same thread, recorded while it was open).  Self times summed per
layer, divided by the traced wall, give each layer's share; whatever no
span covers is reported as the unattributed remainder.  Async spans
(``Gateway.match``, which spans queueing on another thread) are kept
for their own metric but excluded from the self-time attribution.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator

#: layer name by span-name prefix (module names: ``repro.<layer>``).
LAYER_OF = {
    "index": "index",
    "engine": "engine",
    "llm": "llm",
    "prompts": "prompts",
    "resolve": "resolve",
    "snapshot": "resolve",
    "journal": "journal",
    "serve": "serve",
}
LAYERS = ("index", "engine", "llm", "prompts", "resolve", "journal", "serve")


class Tracer:
    """Span recorder shared by every thread of one benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [id, name, start, end, parent id, thread id, request id, async]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: per-request gateway queue waits (seconds), from dispatch spans.
        self.queue_waits: list[float] = []
        self.chunk_sizes: list[int] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: object = None) -> Iterator[list]:
        """Record one synchronous span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[6]
        span = [
            next(self._ids), name, self.clock(), 0.0,
            None if parent is None else parent[0],
            threading.get_ident(), request, False,
        ]
        stack.append(span)
        try:
            yield span
        finally:
            span[3] = self.clock()
            stack.pop()
            self.spans.append(span)

    def record_async(self, name: str, start: float, end: float,
                     request: object) -> None:
        """Record a span that awaited work on other threads."""
        self.spans.append([
            next(self._ids), name, start, end, None,
            threading.get_ident(), request, True,
        ])

    def wrap(self, name: str, fn: Callable,
             request_of: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(*args) if request_of is not None else None
            with tracer.span(name, request):
                return fn(*args, **kwargs)

        return traced

    # -------------------------------------------------------------- report

    def self_times(self) -> tuple[dict, dict]:
        """(name → summed self seconds, name → call count), sync spans only."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] is not None and not span[7]:
                child_time[span[4]] += span[3] - span[2]
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            if span[7]:
                continue
            total[span[1]] += (span[3] - span[2]) - child_time.get(span[0], 0.0)
            calls[span[1]] += 1
        return dict(total), dict(calls)

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called *name*."""
        return [span[3] - span[2] for span in self.spans if span[1] == name]

    def layer_report(self, wall: float, items: int) -> dict[str, float]:
        """Per-layer self time (ms per work item) and share of wall."""
        totals, _ = self.self_times()
        by_layer: dict[str, float] = defaultdict(float)
        for name, seconds in totals.items():
            layer = LAYER_OF.get(name.split(".", 1)[0])
            if layer is not None:
                by_layer[layer] += seconds
        out: dict[str, float] = {}
        covered = 0.0
        for layer in LAYERS:
            seconds = by_layer.get(layer, 0.0)
            covered += seconds
            out[f"layer.{layer}.self_ms"] = seconds * 1e3 / max(items, 1)
            out[f"layer.{layer}.share"] = seconds / wall if wall > 0 else 0.0
        rest = max(wall - covered, 0.0)
        out["layer.unattributed.self_ms"] = rest * 1e3 / max(items, 1)
        out["layer.unattributed.share"] = rest / wall if wall > 0 else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (ids, seconds, request)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, thread, request, is_async \
                    in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                    "request": request, "async": is_async,
                }) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Swap every traced layer entry point for a span-recording wrapper."""
    import repro.engine.engine as engine_mod
    import repro.faults.journal as journal_mod
    import repro.llm.prior as prior_mod
    import repro.resolve.incremental as incremental_mod
    from repro.engine.backends import LocalBackend
    from repro.engine.engine import MatchingEngine
    from repro.faults.journal import JournalWriter
    from repro.index.candidates import MinHashCandidateIndex
    from repro.prompts.templates import PromptTemplate
    from repro.resolve.incremental import ResolutionStore
    from repro.resolve.uf import UnionFind
    from repro.serve.gateway import Gateway

    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, replacement: object) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def simple(owner: object, attr: str, name: str,
               request_of: Callable | None = None) -> None:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), request_of))

    simple(MinHashCandidateIndex, "add", "index.add")
    simple(MinHashCandidateIndex, "restore_state", "index.restore")
    simple(MatchingEngine, "match_pairs", "engine.match_pairs")
    simple(prior_mod, "featurize_pairs", "llm.featurize")
    simple(PromptTemplate, "render", "prompts.render")
    simple(engine_mod, "parse_yes_no", "prompts.parse")
    simple(ResolutionStore, "ingest", "resolve.ingest",
           lambda store, record: record.record_id)
    simple(ResolutionStore, "clustering", "resolve.clustering")
    simple(UnionFind, "component_of", "resolve.cluster_read")
    simple(UnionFind, "union", "resolve.union")
    simple(JournalWriter, "append", "journal.append")
    simple(journal_mod, "read_journal", "journal.read")
    simple(incremental_mod, "load_snapshot", "snapshot.load")

    candidates = MinHashCandidateIndex.candidates

    def traced_candidates(index, description, exclude=None):
        with tracer.span("index.candidates"):
            found = candidates(index, description, exclude)
        tracer.counters["index.candidates_returned"] += len(found)
        return found

    patch(MinHashCandidateIndex, "candidates", traced_candidates)

    generate = LocalBackend.generate

    def traced_generate(backend, prompts):
        tracer.counters["llm.prompts"] += len(prompts)
        with tracer.span("llm.generate"):
            return generate(backend, prompts)

    patch(LocalBackend, "generate", traced_generate)

    process = Gateway._process

    def traced_process(gateway, chunk):
        ids = [item.request.request_id for item in chunk]
        with tracer.span("serve.dispatch", ids) as span:
            started = span[2]
            tracer.queue_waits.extend(started - item.enqueued_at
                                      for item in chunk)
            tracer.chunk_sizes.append(len(chunk))
            return process(gateway, chunk)

    patch(Gateway, "_process", traced_process)

    match = Gateway.match

    async def traced_match(gateway, request):
        start = tracer.clock()
        try:
            return await match(gateway, request)
        finally:
            tracer.record_async("serve.match", start, tracer.clock(),
                                request.request_id)

    patch(Gateway, "match", traced_match)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
