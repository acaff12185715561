"""Engine observability: counters, conservation rules and latency samples.

One :class:`EngineStats` registry accompanies a :class:`MatchingEngine`
for its lifetime.  The engine bumps counters through
:meth:`~repro.obs.Counters.add` (one lock hold per event, exact under N
threads; a ``match_pairs`` call's cache hits are one event) and records
one latency sample per backend dispatch, weighted by the requests it
answered.  Each counter reads as an int attribute
(``stats.requests``); flush reasons are lanes ``("flush", reason)`` of
the ``batches`` counter.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs import TOTAL, Balance, Counters, LaneSum, Snapshot, lanes_of

__all__ = ["EngineStats"]

#: the counters; each reads as an int attribute (``stats.requests``).
#: requests — match requests accepted (before dedup/caching);
#: cache_hits / cache_misses — result-cache lookups;
#: deduped — requests folded into an identical in-flight request;
#: batches / batched_requests — micro-batches flushed, unique prompts in them;
#: retries — backend attempts beyond the first for any batch;
#: timeouts / transport_errors / circuit_open / malformed — failed attempts
#: by class (timeout budget, transport rejection, open breaker refusal,
#: response-count mismatch), so a report can tell an overloaded backend
#: from a flapping one from a misbehaving one;
#: failures — batches whose attempts were exhausted (or short-circuited);
#: fallbacks — requests answered by the threshold-baseline path;
#: circuit_opens — closed→open transitions of the circuit breaker.
_COUNTERS = (
    "requests", "cache_hits", "cache_misses", "deduped", "batches",
    "batched_requests", "retries", "timeouts", "transport_errors",
    "circuit_open", "malformed", "failures", "fallbacks", "circuit_opens",
)

#: ``as_dict`` keys, in order: counters and the three derived values.
_KEYS = (
    "requests", "cache_hits", "cache_misses", "hit_rate", "deduped",
    "batches", "mean_batch_size", "flush_reasons", "retries", "timeouts",
    "transport_errors", "circuit_open", "malformed", "failures", "fallbacks",
    "circuit_opens",
)


def _ratio(total: Mapping[str, int], part: str, *whole: str) -> float:
    denominator = sum(total.get(name, 0) for name in whole)
    return total.get(part, 0) / denominator if denominator else 0.0


def _derived(counts: Snapshot) -> dict[str, object]:
    """The three ``as_dict`` values computed from counters, unrounded."""
    total = counts.get(TOTAL, {})
    return {
        "hit_rate": _ratio(total, "cache_hits", "cache_hits", "cache_misses"),
        "mean_batch_size": _ratio(total, "batched_requests", "batches"),
        "flush_reasons": {
            reason: row["batches"] for reason, row in lanes_of(counts, "flush").items()
        },
    }


class EngineStats(Counters):
    """Counters and latency samples for one engine instance."""

    RULES = (
        Balance(("cache_hits", "cache_misses"), ("requests",)),
        # A miss either opens an in-flight slot, dispatched in exactly one
        # batch, or joins one.
        Balance(("cache_misses",), ("deduped", "batched_requests")),
        Balance(
            ("timeouts", "transport_errors", "circuit_open", "malformed"),
            ("retries", "failures"),
        ),
        LaneSum("flush", ("batches",), ("batches",)),
    )

    def __getattr__(self, name: str) -> int:
        """Counter reads: ``stats.requests``, ``stats.fallbacks``, ..."""
        if name in _COUNTERS:
            return self.get(name)
        raise AttributeError(name)

    @property
    def hit_rate(self) -> float:
        """Cache hits over all cache lookups (0.0 when nothing was looked up)."""
        return _derived(self.counts())["hit_rate"]

    @property
    def mean_batch_size(self) -> float:
        return _derived(self.counts())["mean_batch_size"]

    @property
    def flush_reasons(self) -> dict[str, int]:
        """Flush reason ("size" / "drain") → batches."""
        return _derived(self.counts())["flush_reasons"]

    def latency_percentiles(self, qs: tuple[int, ...] = (50, 95, 99)) -> dict[str, float]:
        """``{"p50": ...}`` over per-request backend latency, seconds."""
        return self.percentiles("latency", qs)

    def as_dict(self) -> dict[str, object]:
        """Deterministic JSON-ready snapshot (latency is read separately)."""
        counts = self.counts()
        total = counts.get(TOTAL, {})
        derived = _derived(counts)
        derived["hit_rate"] = round(derived["hit_rate"], 4)
        derived["mean_batch_size"] = round(derived["mean_batch_size"], 2)
        return {
            key: derived[key] if key in derived else total.get(key, 0)
            for key in _KEYS
        }

    def render(self) -> str:
        """Human-readable multi-line summary for ``repro-em engine --stats``."""
        lines = ["engine stats:"]
        for key, value in self.as_dict().items():
            if key == "flush_reasons":
                if value:
                    formatted = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
                    lines.append(f"  flush_reasons  {formatted}")
            elif key == "hit_rate":
                lines.append(f"  hit_rate       {value:.2%}")
            else:
                lines.append(f"  {key:<14} {value}")
        latency = self.latency_percentiles()
        if latency:
            formatted = ", ".join(
                f"{name}={seconds * 1e3:.2f}ms" for name, seconds in latency.items()
            )
            lines.append(f"  latency        {formatted}")
        return "\n".join(lines)
