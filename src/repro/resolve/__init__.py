"""Entity resolution: pairwise match decisions → entity clusters.

The paper — and the engine built in earlier PRs — stops at independent
pairwise decisions.  A deployed pipeline must turn those decisions into
*entities*: deduplicated clusters that stay consistent as records stream
in.  This package closes that gap:

* :mod:`~repro.resolve.uf` — deterministic union-find with stable,
  insertion-order-independent cluster ids;
* :mod:`~repro.resolve.clusterer` — transitive-closure baseline plus a
  correlation-clustering mode that uses engine confidence to veto
  low-agreement merges, both honouring must-link / cannot-link
  constraints;
* :mod:`~repro.resolve.incremental` — :class:`ResolutionStore`, a
  single-writer store that ingests records one at a time (blocker
  candidates → micro-batched engine decisions → cluster update) and is
  order-invariant for transitive closure;
* :mod:`~repro.resolve.snapshot` — the snapshot/compaction format that
  turns journal recovery from O(history) into O(live state);
* :mod:`~repro.resolve.canonical` — golden-record selection per cluster
  via deterministic attribute voting;
* :mod:`~repro.resolve.metrics` — cluster-level evaluation (B³, ARI,
  pairwise F1 from clusters) that reconciles with
  :func:`repro.eval.metrics.f1_score`;
* :mod:`~repro.resolve.pipeline` — the batch edge from a
  :class:`~repro.blocking.base.BlockingResult` through the engine to a
  :class:`ResolutionReport`, with cluster-aware short-circuiting.

The CLI front door is ``repro-em resolve`` (see README).
"""

from repro.resolve.canonical import golden_record, golden_records
from repro.resolve.clusterer import (
    Clustering,
    PairDecision,
    ResolutionError,
    cluster,
    correlation_cluster,
    transitive_closure,
)
from repro.resolve.incremental import (
    IngestResult,
    ResolutionStore,
    TokenCandidateIndex,
    decision_score,
)
from repro.resolve.metrics import (
    ClusterScores,
    adjusted_rand_index,
    b_cubed,
    cluster_scores,
    pairwise_scores,
)
from repro.resolve.snapshot import (
    SNAPSHOT_VERSION,
    load_snapshot,
    snapshot_path_for,
    write_snapshot_doc,
)
from repro.resolve.pipeline import (
    ResolutionReport,
    gold_clustering,
    node_id,
    resolve_blocking,
    split_records,
)
from repro.resolve.uf import UnionFind

__all__ = [
    "Clustering",
    "ClusterScores",
    "IngestResult",
    "PairDecision",
    "ResolutionError",
    "ResolutionReport",
    "ResolutionStore",
    "SNAPSHOT_VERSION",
    "TokenCandidateIndex",
    "UnionFind",
    "adjusted_rand_index",
    "b_cubed",
    "cluster",
    "cluster_scores",
    "correlation_cluster",
    "decision_score",
    "gold_clustering",
    "golden_record",
    "golden_records",
    "load_snapshot",
    "node_id",
    "pairwise_scores",
    "resolve_blocking",
    "snapshot_path_for",
    "split_records",
    "transitive_closure",
    "write_snapshot_doc",
]
