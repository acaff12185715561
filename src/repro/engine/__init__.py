"""Online matching engine: batching, caching, retry-hardened serving.

The experiment code drives models through two one-shot paths — local
in-process inference and the asynchronous batch API.  This package adds
the online layer a production matcher needs on top of them: a
:class:`MatchingEngine` that deduplicates and normalizes incoming match
requests, serves repeats from a bounded LRU :class:`ResultCache`,
micro-batches cache misses (flush at the batch size, drain at the end of
a call), and calls the backends through a
:class:`RetryPolicy` with a :class:`CircuitBreaker` that degrades to the
classical threshold matcher while a backend is unhealthy.  Every stage
reports into :class:`EngineStats` so benchmarks can measure throughput,
hit rates, and latency percentiles.
"""

from repro.engine.backends import (
    Backend,
    BackendError,
    BatchAPIBackend,
    LocalBackend,
    make_backend,
)
from repro.engine.cache import ResultCache
from repro.engine.engine import MatchingEngine, MatchResult
from repro.engine.retry import (
    BackendTimeout,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    run_with_retry,
)
from repro.engine.stats import EngineStats

__all__ = [
    "Backend",
    "BackendError",
    "BackendTimeout",
    "BatchAPIBackend",
    "CircuitBreaker",
    "CircuitOpenError",
    "EngineStats",
    "LocalBackend",
    "MatchResult",
    "MatchingEngine",
    "ResultCache",
    "RetryPolicy",
    "make_backend",
    "run_with_retry",
]
