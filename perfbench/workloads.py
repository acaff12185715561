"""The benchmark's workloads: set-up, timed phase and output checks.

Each workload is a pair of functions.  ``setup(seed, sizes, workdir,
seconds)`` builds everything the timed phase needs from the seed alone
(corpus, model and prior, journals, request list) and pays every
first-call lazy cost; ``run(state, seconds, sizes, tracer)`` measures
for *seconds* and returns a :class:`Result` with the end-to-end values,
the per-layer values when a tracer is given, and every failed check.

Every reported time is at the reference speed of :mod:`perfbench.pace`:
the timed phase is interleaved with a fixed reference workload, and
each time is scaled by how fast that ran around it.

The program under test only ever receives the generated inputs.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._util import derive_rng
from repro.datasets.synthetic import SyntheticCorpus, synthetic_dedup_corpus
from repro.engine import MatchingEngine
from repro.index import MinHashCandidateIndex
from repro.llm import model as model_mod
from repro.llm import prior as prior_mod
from repro.llm.features import clear_feature_cache
from repro.resolve import ResolutionStore
from repro.serve import Gateway, LoadProfile, PersonaRouter, generate_arrivals

from perfbench.pace import Pace
from perfbench.tracing import Tracer, instrument

MODEL = "llama-3.1-8b"
#: seed of every workload's corpus content; the run seed draws the order.
CORPUS_SEED = 0
#: the shipped MinHash operating point (bands x rows, similarity floor).
INDEX = {"bands": 32, "rows": 3, "min_similarity": 0.35}
#: Zipf exponent of pair popularity in the serve pool.
SERVE_SKEW = 1.1
#: stream records ingested between two reference runs (about 50 ms).
STREAM_BLOCK = 50
clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes; part of each workload's definition."""

    #: records per stream pass (throughput falls as the store grows).
    stream_records: int
    #: records the serve pair pool is drawn from.
    serve_records: int
    #: requests per serve pass, submitted in queue-sized bursts.
    serve_requests: int
    #: most popular pairs already in the result cache when a pass starts.
    serve_warm: int
    #: records in the journal the recover workloads replay.
    recover_records: int
    #: quality floors (percent) below which a run counts as broken.
    min_f1: float
    min_recall: float


FULL = Sizes(stream_records=1500, serve_records=1500, serve_requests=4096,
             serve_warm=400, recover_records=600, min_f1=70.0, min_recall=80.0)
TOY = Sizes(stream_records=120, serve_records=200, serve_requests=512,
            serve_warm=40, recover_records=80, min_f1=50.0, min_recall=50.0)


@dataclass
class Result:
    """What one timed phase measured and checked."""

    #: end-to-end metric name → value (units live in BENCHMARK.json).
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: median reference run in the timed phase, as measured (ms).
    reference_ms: float = 0.0


# ----------------------------------------------------------------- helpers


def fresh_model():
    """Build the model and prior from nothing (drops every process memo)."""
    model_mod.build_model.cache_clear()
    prior_mod.build_prior.cache_clear()
    prior_mod.pretraining_mixture.cache_clear()
    clear_feature_cache()
    return model_mod.build_model(MODEL)


def forget_pairs() -> None:
    """Drop the per-pair model memos so every pair is featurized cold.

    Within one pass each candidate pair is asked once, so these memos
    never hit; repeating a pass must not let them hit either.
    """
    clear_feature_cache()
    model_mod.build_model(MODEL).prior._obs_cache.clear()


def settle() -> None:
    """Collect garbage left by earlier work before a timed operation.

    Collections the operation's own allocations trigger still land in
    its time; only debt carried over from set-up or the previous
    operation is paid here, outside it.
    """
    gc.collect()


def traced(tracer: Tracer | None):
    """Instrument the layers for the ``with`` body when *tracer* is given."""
    return instrument(tracer) if tracer is not None else contextlib.nullcontext()


def percentile_ms(values: list, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


def windowed_ms(windows: list, q: float) -> float:
    """Mean over windows of each window's *q*-th percentile, in ms.

    A percentile over a whole run jumps when the share of slow
    operations crosses it; averaging per-window percentiles moves in
    proportion to that share instead.
    """
    return statistics.fmean(percentile_ms(w, q) for w in windows if w)


def fingerprint(clusters) -> str:
    """Stable digest of a partition given as sorted member tuples."""
    return hashlib.sha256(
        json.dumps([list(c) for c in clusters]).encode()
    ).hexdigest()


def reference_clusters(record_ids, decisions) -> tuple:
    """Connected components over positive decisions (independent of src)."""
    parent = {rid: rid for rid in record_ids}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for decision in decisions:
        if decision.match:
            a, b = root(decision.left), root(decision.right)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict = {}
    for rid in record_ids:
        groups.setdefault(root(rid), []).append(rid)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                        key=lambda c: c[0]))


def direct_decisions(pairs) -> list:
    """Decisions of one cold, fresh engine over *pairs* (the reference)."""
    forget_pairs()
    return [r.decision
            for r in MatchingEngine.for_model(MODEL).match_pairs(list(pairs))]


def pair_quality(predicted: set, truth: frozenset) -> tuple[float, float]:
    """(F1 %, recall %) of *predicted* pairs against *truth*."""
    tp = len(predicted & truth)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth) if truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return 100.0 * f1, 100.0 * recall


def clustered_pairs(clusters) -> set:
    return {
        (c[i], c[j])
        for c in clusters for i in range(len(c)) for j in range(i + 1, len(c))
    }


def engine_layer(engines) -> dict:
    lookups = sum(e.stats.cache_hits + e.stats.cache_misses for e in engines)
    batches = sum(e.stats.batches for e in engines)
    return {
        "engine.cache_hit_rate":
            sum(e.stats.cache_hits for e in engines) / lookups if lookups else 0.0,
        "engine.mean_batch_size":
            sum(e.stats.batched_requests for e in engines) / batches
            if batches else 0.0,
        "engine.dedup": sum(e.stats.deduped for e in engines),
        "engine.fallbacks": sum(e.stats.fallbacks for e in engines),
    }


def span_layer(tracer: Tracer, wall: float, items: int) -> dict:
    """Per-call self times and counts common to every workload.

    *wall* is the traced operations' measured (unscaled) time, the same
    clock the spans use.
    """
    totals, calls = tracer.self_times()

    def per_call(name: str) -> float:
        return totals.get(name, 0.0) * 1e3 / calls[name] if calls.get(name) else 0.0

    out = {
        name + "_ms": per_call(name)
        for name in (
            "llm.featurize", "llm.generate", "prompts.render", "prompts.parse",
            "engine.match_pairs", "index.add", "index.candidates",
            "index.restore", "snapshot.load", "resolve.ingest",
            "resolve.cluster_read", "resolve.union", "resolve.clustering",
            "journal.append", "journal.read", "serve.dispatch",
        )
    }
    out["llm.prompts"] = tracer.counters["llm.prompts"] / max(items, 1)
    queried = calls.get("index.candidates", 0)
    out["index.candidates_per_record"] = (
        tracer.counters["index.candidates_returned"] / queried if queried else 0.0
    )
    out["journal.appends"] = calls.get("journal.append", 0) / max(items, 1)
    matches = tracer.durations("serve.match")
    out["serve.match_ms"] = statistics.fmean(matches) * 1e3 if matches else 0.0
    waits = tracer.queue_waits
    out["serve.queue_wait_ms"] = statistics.fmean(waits) * 1e3 if waits else 0.0
    sizes = tracer.chunk_sizes
    out["serve.chunk_size"] = statistics.fmean(sizes) if sizes else 0.0
    out.update(tracer.layer_report(wall, items))
    return out


def idle_layers(out: dict) -> dict:
    """Zeros for the workload-specific counters a workload never touches."""
    return {
        name: 0.0
        for name in ("serve.queue_high_water", "serve.degraded", "serve.shed",
                     "loadgen.lag_p90_ms", "workload.repeat_share",
                     "recover.engine_requests", "recover.snapshot_ms",
                     "journal.bytes")
        if name not in out
    }


def overhead(out: dict, untraced: float, traced: float) -> None:
    """Tracing cost per work item: traced minus untraced, same inputs."""
    out["trace.overhead_ms"] = (traced - untraced) * 1e3
    out["trace.overhead_share"] = (traced - untraced) / untraced


# ------------------------------------------------------------------ inputs


def corpus_in_order(records: int, seed: int) -> SyntheticCorpus:
    """The workload's corpus, arriving in the order *seed* draws.

    The corpus content is part of the workload's definition (its size
    sets how much the store holds), so it comes from a fixed seed; the
    run seed draws the arrival order.  Clustering is insertion-order
    invariant, so every seed must yield the same clusters, while each
    record meets a different set of earlier records.
    """
    corpus = synthetic_dedup_corpus(records, seed=CORPUS_SEED)
    order = derive_rng(seed, "perfbench", "arrival").permutation(records)
    return SyntheticCorpus(
        records=tuple(corpus.records[int(i)] for i in order),
        clusters=corpus.clusters,
    )


def warm_corpus() -> SyntheticCorpus:
    """A small corpus no timed phase sees, for first-call lazy state."""
    return synthetic_dedup_corpus(40, seed=CORPUS_SEED + 1)


# ------------------------------------------------------------ stream-resolve


@dataclass
class StreamState:
    corpus: SyntheticCorpus


@dataclass
class StreamPass:
    #: summed ingest and clustering time at the reference speed.
    seconds: float
    #: the same, as measured.
    raw: float
    #: per-ingest latency at the reference speed.
    latencies: list
    results: list
    clusters: tuple
    store: ResolutionStore


def stream_setup(seed: int, sizes: Sizes, workdir: Path, seconds: int):
    fresh_model()
    corpus = corpus_in_order(sizes.stream_records, seed)
    _stream_pass(warm_corpus(), Pace())
    forget_pairs()
    return StreamState(corpus=corpus)


def _stream_pass(corpus: SyntheticCorpus, pace: Pace) -> StreamPass:
    """Ingest *corpus* into a fresh store and read the final clustering.

    A reference run follows every ``STREAM_BLOCK`` ingests and the
    clustering read, outside the timed calls.
    """
    engine = MatchingEngine.for_model(MODEL)
    store = ResolutionStore(engine, index=MinHashCandidateIndex(**INDEX))
    begun, took, results = [], [], []
    settle()
    for k, record in enumerate(corpus.records):
        if k and k % STREAM_BLOCK == 0:
            pace.mark()
        started = clock()
        results.append(store.ingest(record))
        took.append(clock() - started)
        begun.append(started)
    started = clock()
    clustering = store.clustering()
    read = clock() - started
    pace.mark()
    latencies = [t * pace.scale(at) for at, t in zip(begun, took)]
    return StreamPass(
        seconds=sum(latencies) + read * pace.scale(started),
        raw=sum(took) + read,
        latencies=latencies,
        results=results,
        clusters=clustering.clusters,
        store=store,
    )


def check_stream_pass(corpus: SyntheticCorpus, results, clusters,
                      decisions) -> tuple[int, list]:
    """(records ingested and committed, problems) for one stream pass."""
    problems = []
    ids = [r.record_id for r in corpus.records]
    if sorted(m for c in clusters for m in c) != sorted(ids):
        problems.append("stream: clustering does not cover every record once")
    if fingerprint(clusters) != fingerprint(reference_clusters(ids, decisions)):
        problems.append("stream: clustering differs from the components of "
                        "its own positive decisions")
    cluster_of = {m: c[0] for c in clusters for m in c}
    done = sum(
        1 for result in results
        if cluster_of.get(result.record_id) is not None
    )
    if done != len(ids):
        problems.append(f"stream: {len(ids) - done} records not committed")
    return done, problems


def check_decisions(corpus: SyntheticCorpus, decisions) -> list:
    """Every logged decision equals a direct engine pass over its pair.

    The store asks the model with the descriptions in canonical (sorted
    id) order, which is how the log records the pair.
    """
    by_id = {r.record_id: r.description for r in corpus.records}
    answers = direct_decisions((by_id[d.left], by_id[d.right])
                               for d in decisions)
    wrong = sum(a != d.match for a, d in zip(answers, decisions))
    if wrong:
        return [f"stream: {wrong} logged decisions differ from a direct "
                "engine pass"]
    return []


def canonical_fingerprint(corpus: SyntheticCorpus) -> str:
    """Clustering fingerprint with the records arriving sorted by id."""
    forget_pairs()
    ordered = SyntheticCorpus(
        records=tuple(sorted(corpus.records, key=lambda r: r.record_id)),
        clusters=corpus.clusters,
    )
    return fingerprint(_stream_pass(ordered, Pace()).clusters)


def stream_run(state: StreamState, seconds: int, sizes: Sizes,
               tracer: Tracer | None) -> Result:
    result = Result()
    corpus = state.corpus
    took, raw, windows, engines, prints = [], [], [], [], set()
    untraced = None
    pace = Pace()
    begin = clock()
    while not took or clock() - begin < seconds:
        forget_pairs()
        if tracer is not None and untraced is None:
            untraced = _stream_pass(corpus, pace).seconds
            continue
        with traced(tracer):
            done = _stream_pass(corpus, pace)
        # Keep what the metrics need, not the pass's store: the memory
        # held must not grow with the number of passes a run fits in.
        took.append(done.seconds)
        raw.append(done.raw)
        windows.append(done.latencies)
        if tracer is not None:
            engines.append(done.store.engine)
        committed, problems = check_stream_pass(
            corpus, done.results, done.clusters, done.store.decision_log()
        )
        result.problems += problems
        result.attempted += len(corpus.records)
        result.failed += len(corpus.records) - committed
        prints.add(fingerprint(done.clusters))
    result.problems += check_decisions(corpus, done.store.decision_log())
    if len(prints) != 1:
        result.problems.append("stream: passes over one corpus disagree")
    elif canonical_fingerprint(corpus) not in prints:
        result.problems.append("stream: clustering depends on arrival order")
    f1, recall = pair_quality(clustered_pairs(done.clusters),
                              corpus.true_pairs)
    if f1 < sizes.min_f1 or recall < sizes.min_recall:
        result.problems.append(f"stream: quality F1 {f1:.1f}% recall "
                               f"{recall:.1f}% below the floor")
    n = len(corpus.records)
    result.reference_ms = pace.median_ms()
    result.metrics = {
        "throughput_per_s": n * len(took) / sum(took),
        "latency_p50_ms": windowed_ms(windows, 50),
        "latency_p90_ms": windowed_ms(windows, 90),
        "quality_f1": f1,
        "pair_recall": recall,
    }
    if tracer is not None:
        out = span_layer(tracer, sum(raw), n * len(took))
        out.update(engine_layer(engines))
        out.update(idle_layers(out))
        overhead(out, untraced / n, statistics.median(took) / n)
        result.per_layer = out
    return result


# -------------------------------------------------------------- serve-skewed


@dataclass
class ServeState:
    #: one pass's requests, in submission order.
    requests: list
    labels: dict
    #: description pair → canonical record-id pair.
    ids: dict
    #: (prompt key, cached answer) of the most popular pairs.
    warm: list


@dataclass
class ServePass:
    #: summed burst drain time at the reference speed.
    seconds: float
    #: the same, as measured.
    raw: float
    #: per-request burst start → completion, at the reference speed.
    latencies: list
    #: per-request burst start → submission, as measured.
    lags: list
    responses: list
    gateway: Gateway
    router: PersonaRouter
    #: threads alive while the gateway served.
    threads: int


def serve_pool(corpus: SyntheticCorpus):
    """Labelled pairs with skewed popularity, as a weighted draw list.

    Half the distinct pairs are MinHash candidates (what a deployed
    blocker would send), half are random non-candidates.  Popularity is
    Zipf-like over a fixed permutation of the pool; the returned list
    repeats each pair in proportion to it, so a uniform draw from the
    list is a skewed draw from the pool.  Returns ``(draws, labels,
    ids, ranked)``.
    """
    index = MinHashCandidateIndex(**INDEX)
    for record in corpus.records:
        index.add(record.record_id, record.description)
    candidates = set()
    for record in corpus.records:
        for other in index.candidates(record.description,
                                      exclude=record.record_id):
            candidates.add(tuple(sorted((record.record_id, other))))
    # Which pairs are popular sets the miss count and the work per
    # miss, so it is part of the workload's definition, like the corpus.
    rng = derive_rng(CORPUS_SEED, "perfbench", "serve-pool")
    ids = sorted(r.record_id for r in corpus.records)
    others = set()
    while len(others) < len(candidates):
        a, b = (ids[int(i)] for i in rng.integers(len(ids), size=2))
        pair = (min(a, b), max(a, b))
        if a != b and pair not in candidates:
            others.add(pair)
    pool = sorted(candidates) + sorted(others)
    order = rng.permutation(len(pool))
    by_id = {r.record_id: r.description for r in corpus.records}
    draws, labels, back, ranked = [], {}, {}, []
    top = 4 * len(pool)
    for rank, i in enumerate(order):
        a, b = pool[int(i)]
        key = (by_id[a], by_id[b])
        labels[key] = (a, b) in corpus.true_pairs
        back[key] = (a, b)
        ranked.append(key)
        draws.extend([key] * max(1, int(top / (rank + 1) ** SERVE_SKEW)))
    return draws, labels, back, ranked


def request_list(pairs, count: int, seed: int) -> list:
    """*count* requests drawn uniformly from *pairs* by the load generator.

    Only the drawn requests are used; requests go in bursts, so the
    generator's arrival schedule is not.
    """
    profile = LoadProfile(offered_load=1.0, requests=count, seed=seed)
    return [arrival.request for arrival in generate_arrivals(profile, pairs)]


def warm_answers(pairs) -> list:
    """(prompt key, cached value) for *pairs*, as an engine would store them."""
    engine = MatchingEngine.for_model(MODEL)
    return [
        (engine.template.render(r.left, r.right), (r.response, r.decision))
        for r in engine.match_pairs(list(pairs))
    ]


def warm_router(warm: list) -> PersonaRouter:
    """A router whose engine already holds the *warm* answers.

    A serving engine that has run for a while holds its most popular
    pairs; without them, every pass would start with a burst of misses
    and its latency would hinge on that transient.
    """
    router = PersonaRouter(default=MODEL, personas=(MODEL,))
    cache = router.engine(MODEL).cache
    for key, value in warm:
        cache.put(key, value)
    return router


def serve_setup(seed: int, sizes: Sizes, workdir: Path, seconds: int):
    fresh_model()
    corpus = synthetic_dedup_corpus(sizes.serve_records, seed=CORPUS_SEED)
    draws, labels, back, ranked = serve_pool(corpus)
    requests = request_list(draws, sizes.serve_requests, seed)
    warm = warm_corpus().records
    _serve_pass(request_list(
        [(warm[i].description, warm[i + 1].description)
         for i in range(0, 20, 2)], 20, seed,
    ), warm_router([]), Pace())
    answers = warm_answers(ranked[:sizes.serve_warm])
    forget_pairs()
    return ServeState(requests=requests, labels=labels, ids=back, warm=answers)


def _serve_pass(requests: list, router: PersonaRouter, pace: Pace) -> ServePass:
    """Serve *requests* through a fresh one-worker gateway, in bursts.

    Each burst fills the gateway's queue (``queue_capacity`` requests,
    submitted at once) and waits until every one is answered before the
    next; a reference run follows each burst.  A full queue hands the
    worker full chunks whatever the thread timing, and nothing waits
    on a schedule, so the time is the gateway's own work.
    """
    gateway = Gateway(router, workers=1, clock=clock)
    burst = gateway.queue_capacity
    threads = []

    async def timed(request):
        submitted = clock()
        response = await gateway.match(request)
        return response, submitted, clock()

    async def drive():
        bursts = []
        async with gateway:
            for i in range(0, len(requests), burst):
                started = clock()
                bursts.append((started, await asyncio.gather(
                    *(timed(r) for r in requests[i:i + burst]))))
                pace.mark()
            threads.append(threading.active_count())
        return bursts

    settle()
    bursts = asyncio.run(drive())
    done = ServePass(seconds=0.0, raw=0.0, latencies=[], lags=[],
                     responses=[], gateway=gateway, router=router,
                     threads=threads[0])
    for started, answered in bursts:
        scale = pace.scale(started)
        drained = max(finished for _, _, finished in answered) - started
        done.raw += drained
        done.seconds += drained * scale
        for response, submitted, finished in answered:
            done.responses.append(response)
            done.latencies.append((finished - started) * scale)
            done.lags.append(submitted - started)
    return done


def check_gateway(done: ServePass) -> list:
    """Gateway conservation and the thread budget of one pass."""
    problems = list(done.gateway.stats.violations())
    problems += done.gateway.stats.reconcile_engines(done.router.engines())
    if done.threads > 2:
        problems.append(f"serve: {done.threads} threads during the pass")
    return problems


def check_served(served: dict, reference: dict) -> list:
    """Every served decision equals the direct pass's decision."""
    wrong = [pair for pair, decisions in served.items()
             if decisions != {reference.get(pair)}]
    if wrong:
        return [f"serve: {len(wrong)} pairs answered differently from a "
                "direct pass"]
    return []


def model_answered(response) -> bool:
    """Answered by the model; degraded, fallback and refused count as failed."""
    return response.ok and response.source in ("backend", "cache")


def serve_run(state: ServeState, seconds: int, sizes: Sizes,
              tracer: Tracer | None) -> Result:
    result = Result()
    took, raw, windows, lags, engines, stats = [], [], [], [], [], []
    #: description pair → every decision the model served for it.
    served: dict = {}
    untraced = None
    answered = 0
    pace = Pace()
    begin = clock()
    while not took or clock() - begin < seconds:
        forget_pairs()
        router = warm_router(state.warm)
        if tracer is not None and untraced is None:
            untraced = _serve_pass(state.requests, router, pace).seconds
            continue
        with traced(tracer):
            done = _serve_pass(state.requests, router, pace)
        # Keep what the metrics need, not the pass's gateway and engine.
        took.append(done.seconds)
        raw.append(done.raw)
        problems = check_gateway(done)
        if problems and not result.problems:
            result.problems += problems
        ok = [model_answered(r) for r in done.responses]
        windows.append([t for t, good in zip(done.latencies, ok) if good])
        answered += sum(ok)
        result.attempted += len(ok)
        result.failed += len(ok) - sum(ok)
        for response, good in zip(done.responses, ok):
            if good:
                pair = (response.request.left, response.request.right)
                served.setdefault(pair, set()).add(response.decision)
        if tracer is not None:
            lags += done.lags
            engines.append(router.engine(MODEL))
            stats.append(done.gateway.stats.as_dict())
    # One direct pass on a fresh, cold engine over every distinct pair
    # the model answered: the reference each served decision must equal.
    asked = sorted(served)
    reference = dict(zip(asked, direct_decisions(asked)))
    result.problems += check_served(served, reference)
    predicted = {state.ids[p] for p in asked if reference[p]}
    truth = frozenset(state.ids[p] for p in asked if state.labels[p])
    f1, recall = pair_quality(predicted, truth)
    if f1 < sizes.min_f1 or recall < sizes.min_recall:
        result.problems.append(f"serve: decision F1 {f1:.1f}% recall "
                               f"{recall:.1f}% below the floor")
    result.reference_ms = pace.median_ms()
    result.metrics = {
        "throughput_per_s": answered / sum(took),
        "latency_p50_ms": windowed_ms(windows, 50),
        "latency_p90_ms": windowed_ms(windows, 90),
        "quality_f1": f1,
        "pair_recall": recall,
    }
    if tracer is not None:
        out = span_layer(tracer, sum(raw), result.attempted)
        out.update(engine_layer(engines))
        out["serve.queue_high_water"] = max(s["queue_high_water"] for s in stats)
        out["serve.degraded"] = sum(s["total"]["degraded"] for s in stats)
        out["serve.shed"] = sum(s["total"]["shed"] for s in stats)
        out["loadgen.lag_p90_ms"] = percentile_ms(lags, 90)
        template = engines[0].template
        seen, repeats = {key for key, _ in state.warm}, 0
        for request in state.requests:
            key = template.render(request.left, request.right)
            repeats += key in seen
            seen.add(key)
        out["workload.repeat_share"] = repeats / len(state.requests)
        out.update(idle_layers(out))
        n = len(state.requests)
        overhead(out, untraced / n, statistics.median(took) / n)
        result.per_layer = out
    return result


# ------------------------------------------------------------ recover-replay


@dataclass
class RecoverState:
    corpus: SyntheticCorpus
    #: the full journal, with no snapshot beside it.
    journal: Path
    #: the same store compacted: a snapshot plus an empty journal suffix.
    compacted: Path
    expected: str
    engine: MatchingEngine


def build_journals(corpus: SyntheticCorpus, directory: Path) -> str:
    """Write the full and the compacted journal of *corpus*.

    Every journal write and fsync is issued.  Returns the fingerprint
    of the store's clustering, which every recovery must reproduce.
    """
    shutil.rmtree(directory, ignore_errors=True)
    (directory / "full").mkdir(parents=True)
    (directory / "compacted").mkdir()
    journal = directory / "compacted" / "journal.jsonl"
    with ResolutionStore(MatchingEngine.for_model(MODEL),
                         index=MinHashCandidateIndex(**INDEX),
                         journal=journal) as store:
        for record in corpus.records:
            store.ingest(record)
        expected = fingerprint(store.clustering().clusters)
        shutil.copyfile(journal, directory / "full" / "journal.jsonl")
        store.compact()
    return expected


def replay_setup(seed: int, sizes: Sizes, workdir: Path, seconds: int):
    fresh_model()
    corpus = corpus_in_order(sizes.recover_records, seed)
    expected = build_journals(corpus, workdir / "recover")
    state = RecoverState(
        corpus=corpus,
        journal=workdir / "recover" / "full" / "journal.jsonl",
        compacted=workdir / "recover" / "compacted" / "journal.jsonl",
        expected=expected,
        engine=MatchingEngine.for_model(MODEL),
    )
    _recover_once(state, state.journal)  # first-call lazy state
    _recover_once(state, state.compacted)
    return state


def _recover_once(state: RecoverState, journal: Path,
                  tracer: Tracer | None = None):
    """One recovery from *journal*: (start, measured seconds, clusters)."""
    settle()
    started = clock()
    if tracer is None:
        store = ResolutionStore.recover(
            journal, state.engine, index=MinHashCandidateIndex(**INDEX)
        )
    else:
        with instrument(tracer), tracer.span("resolve.recover"):
            store = ResolutionStore.recover(
                journal, state.engine, index=MinHashCandidateIndex(**INDEX),
            )
    wall = clock() - started
    clusters = store.clustering().clusters
    store.close()
    return started, wall, clusters


def check_recovery(state: RecoverState, clusters) -> list:
    """Identity with the pre-crash store, and no engine work."""
    problems = []
    if fingerprint(clusters) != state.expected:
        problems.append("recover: clustering differs from the pre-crash store")
    if state.engine.stats.requests:
        problems.append(f"recover: {state.engine.stats.requests} engine "
                        "requests during recovery")
    return problems


def journal_writes(state: RecoverState) -> dict:
    """Journal write costs, from one traced rebuild of the journals.

    The timed phase only reads journals; the writes it replays were
    made in set-up, so they are traced here, in a separate directory.
    """
    writes = Tracer()
    directory = state.journal.parent.parent.with_name("traced")
    with instrument(writes):
        build_journals(state.corpus, directory)
    totals, calls = writes.self_times()
    appends = calls.get("journal.append", 0)
    n = len(state.corpus.records)
    size = state.journal.stat().st_size
    shutil.rmtree(directory)
    return {
        "journal.append_ms": totals.get("journal.append", 0.0) * 1e3 / appends,
        "journal.appends": appends / n,
        "journal.bytes": size / n,
    }


def recover_run(state: RecoverState, seconds: int, sizes: Sizes,
                tracer: Tracer | None) -> Result:
    """Repeat full-journal recovery; traced runs alternate in snapshots."""
    result = Result()
    pace = Pace()

    def once(journal: Path, tracer: Tracer | None = None):
        started, wall, clusters = _recover_once(state, journal, tracer)
        pace.mark()
        return started, wall, clusters

    untraced, snapshots = [], []
    if tracer is not None:
        for _ in range(3):
            untraced.append(once(state.journal)[:2])
            snapshots.append(once(state.compacted)[:2])
    timed = []
    begin = clock()
    while not timed or clock() - begin < seconds:
        started, wall, clusters = once(state.journal, tracer)
        timed.append((started, wall))
        recovered = [clusters]
        if tracer is not None:
            recovered.append(once(state.compacted, tracer)[2])
        for clusters in recovered:
            problems = check_recovery(state, clusters)
            result.attempted += 1
            result.failed += bool(problems)
            if problems and not result.problems:
                result.problems += problems
    f1, recall = pair_quality(clustered_pairs(clusters),
                              state.corpus.true_pairs)
    if f1 < sizes.min_f1 or recall < sizes.min_recall:
        result.problems.append(f"recover: quality F1 {f1:.1f}% recall "
                               f"{recall:.1f}% below the floor")

    def at_pace(runs) -> list:
        return [wall * pace.scale(started) for started, wall in runs]

    walls = at_pace(timed)
    windows = [[] for _ in range(int(timed[-1][0] - begin) + 1)]
    for (started, _), wall in zip(timed, walls):
        windows[int(started - begin)].append(wall)
    n = len(state.corpus.records)
    result.reference_ms = pace.median_ms()
    result.metrics = {
        "throughput_per_s": n * len(walls) / sum(walls),
        "latency_p50_ms": windowed_ms(windows, 50),
        "latency_p90_ms": windowed_ms(windows, 90),
        "quality_f1": f1,
        "pair_recall": recall,
    }
    if tracer is not None:
        items = result.attempted
        out = span_layer(tracer, sum(tracer.durations("resolve.recover")),
                         items)
        out.update(engine_layer([state.engine]))
        out["recover.engine_requests"] = state.engine.stats.requests
        out["recover.snapshot_ms"] = statistics.median(at_pace(snapshots)) * 1e3
        out.update(journal_writes(state))
        out.update(idle_layers(out))
        overhead(out, statistics.median(at_pace(untraced)),
                 statistics.median(walls))
        result.per_layer = out
    return result


WORKLOADS = {
    "stream-resolve": (stream_setup, stream_run),
    "serve-skewed": (serve_setup, serve_run),
    "recover-replay": (replay_setup, recover_run),
}
