"""Representative-first scoring against the reference resolver.

With short-circuiting on, :class:`ResolutionStore` asks the engine about
one member of each existing cluster first and about the others only when
that answer is no, skipping pairs whose endpoints are already connected.
Whatever the insertion order, batch size, index, oracle or must-links,
its clustering must equal :func:`tests.resolve.reference
.reference_clusters`, which decides every candidate pair, and every
candidate pair must be either asked or skipped exactly once.  That holds
too when the store is closed after the first ``k`` records (replay only,
or after a snapshot or a compaction) and a recovered store ingests the
rest.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.datasets.schema import Record
from repro.engine import MatchingEngine
from repro.index import MinHashCandidateIndex
from repro.resolve import ResolutionStore, TokenCandidateIndex

from tests.engine.doubles import JaccardBackend, ParityBackend
from tests.resolve.reference import candidate_pairs, reference_clusters

VOCAB = ("acme", "widget", "pro", "max", "black", "64gb", "zenix", "gadget")
INDEXES = {
    "token": TokenCandidateIndex,
    "minhash": lambda: MinHashCandidateIndex(
        bands=32, rows=3, min_similarity=0.35
    ),
}
ORACLES = {"jaccard": JaccardBackend, "parity": ParityBackend}
#: what the closed store leaves beside its journal for recovery.
RESTARTS = ("replay", "snapshot", "compact")


@st.composite
def workloads(draw):
    """Records, an insertion order, must-links and a restart point.

    The restart is None (one store ingests everything) or ``(k, how)``.
    """
    texts = draw(st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4),
        min_size=2, max_size=14,
    ))
    records = [
        Record(record_id=f"r{i:02d}", attributes={}, description=" ".join(t))
        for i, t in enumerate(texts)
    ]
    order = draw(st.permutations(records))
    ids = [r.record_id for r in records]
    must = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        .filter(lambda p: p[0] != p[1]),
        max_size=3,
    ))
    restart = draw(st.none() | st.tuples(
        st.integers(0, len(records)), st.sampled_from(RESTARTS)
    ))
    return records, order, must, restart


@settings(max_examples=150, deadline=None)
@given(
    workload=workloads(),
    index=st.sampled_from(sorted(INDEXES)),
    oracle=st.sampled_from(sorted(ORACLES)),
    chunk_size=st.sampled_from([1, 2, 32]),
)
def test_store_equals_the_reference_resolver(
    workload, index, oracle, chunk_size
):
    records, order, must, restart = workload

    def engine():
        return MatchingEngine(backend=ORACLES[oracle]())

    def options():
        return {
            "index": INDEXES[index](), "chunk_size": chunk_size,
            "short_circuit": True, "must_link": must,
        }

    if restart is None:
        store = ResolutionStore(engine(), **options())
        results = store.ingest_all(order)
    else:
        k, how = restart
        # Hypothesis rejects function-scoped fixtures such as tmp_path.
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "store.journal"
            with ResolutionStore(
                engine(), journal=journal, **options()
            ) as first:
                results = first.ingest_all(order[:k])
                if how == "snapshot":
                    first.snapshot()
                elif how == "compact":
                    first.compact()
            with ResolutionStore.recover(
                journal, engine(), **options()
            ) as store:
                results += store.ingest_all(order[k:])
    assert store.clustering().clusters == reference_clusters(
        records, INDEXES[index](), engine, must
    )
    pairs = candidate_pairs(records, INDEXES[index]())
    assert (
        store.engine_calls + store.short_circuited
        == sum(r.candidates for r in results)
        == len(pairs)
    )
    asked = [d.key for d in store.decisions()]
    assert len(asked) == len(set(asked)) and set(asked) <= set(pairs)
