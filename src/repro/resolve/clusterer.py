"""Pairwise decisions → entity clusters.

Two clustering modes over the same inputs (a set of elements plus a
stream of :class:`PairDecision` objects, typically produced from
:class:`~repro.engine.MatchResult` answers):

* :func:`transitive_closure` — the classic ER baseline: every positive
  decision is an edge, clusters are connected components.  The result is
  a pure function of the decision *set* (input order never matters).
* :func:`correlation_cluster` — greedy correlation clustering that uses
  the engine's confidence scores as evidence weights and vetoes merges
  whose cross-cluster agreement (positive weight over total weight)
  falls below ``min_agreement``.  One noisy "yes" can no longer glue two
  well-separated clusters together.

Both modes honour must-link / cannot-link constraints.  Must-links are
applied before any decision; a merge that would place a cannot-link pair
in one cluster is skipped.  Decisions are processed in a canonical sorted
order, so both functions are invariant to the order decisions arrive in.
:func:`cluster` picks a mode by name; every resolution path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.resolve.uf import UnionFind

__all__ = [
    "Clustering",
    "PairDecision",
    "ResolutionError",
    "cluster",
    "correlation_cluster",
    "transitive_closure",
]


class ResolutionError(ValueError):
    """Raised for contradictory constraints or malformed cluster inputs."""


def _canonical_pair(a: str, b: str) -> tuple[str, str]:
    """Unordered pair key (smaller element first)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PairDecision:
    """One pairwise matching decision between two element ids.

    ``score`` is the decision's evidence weight in [0, 1] — engine
    answers carry 1.0, degraded fallback answers less (see
    :mod:`repro.resolve.pipeline`).  Only the correlation mode uses it;
    transitive closure treats every positive decision alike.
    """

    left: str
    right: str
    match: bool
    score: float = 1.0
    source: str = "engine"

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ResolutionError(
                f"self-pair decision for element {self.left!r}"
            )
        if not 0.0 <= self.score <= 1.0:
            raise ResolutionError(f"score {self.score} outside [0, 1]")

    @property
    def key(self) -> tuple[str, str]:
        """Canonical unordered pair (identity for aggregation).

        Cached per instance (the dataclass is frozen, so the pair can
        never change): bulk consumers — clustering, journal restore,
        store replay — hit this once per decision instead of
        recomputing the canonical ordering on every access.  Cached by
        hand in ``__dict__`` rather than via ``functools.cached_property``,
        whose per-descriptor lock (still present on Python 3.11) costs
        more than the computation it saves.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _canonical_pair(self.left, self.right)
            self.__dict__["_key"] = cached
        return cached

    def as_entry(self) -> dict:
        """JSON-ready fields: the one encoding journals and snapshots share."""
        return {
            "left": self.left,
            "right": self.right,
            "match": self.match,
            "score": self.score,
            "source": self.source,
        }

    @classmethod
    def adopt_entries(
        cls, entries: list[dict]
    ) -> tuple[list["PairDecision"], list[tuple[str, str]]]:
        """Decisions over :meth:`as_entry` dicts, with their canonical keys.

        For bulk snapshot restore.  Each dict becomes its decision's own
        ``__dict__``: no copy and no re-validation, so the caller hands
        the dicts over and must not use them again.  Snapshot documents
        are written by :meth:`ResolutionStore.snapshot` from decisions
        that already passed ``__post_init__``, and are version/kind-checked
        before any row is read; JSON round-trips ``as_entry``'s
        str/bool/float fields unchanged.  Copying or re-validating tens of
        thousands of rows on every recovery would dominate restore time
        for no additional safety.

        The keys are returned, not cached in the dicts: a dict holding
        only strings, bools and floats stays untracked by the cyclic
        garbage collector, so a restore adds one tracked object per
        decision instead of two.
        """
        new = object.__new__
        set_attr = object.__setattr__
        decisions = []
        keys = []
        for entry in entries:
            left = entry["left"]
            right = entry["right"]
            keys.append((left, right) if left <= right else (right, left))
            decision = new(cls)
            set_attr(decision, "__dict__", entry)
            decisions.append(decision)
        return decisions, keys


@dataclass(frozen=True)
class Clustering:
    """An entity partition: disjoint clusters of element ids.

    Canonical form — every cluster's members are sorted, clusters are
    sorted by their id (first member), and the id of a cluster is its
    lexicographically smallest member.  Two equal partitions therefore
    compare equal regardless of how they were built.
    """

    clusters: tuple[tuple[str, ...], ...]

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[str]]) -> "Clustering":
        """Canonicalize arbitrary member groups (must be disjoint)."""
        canonical = tuple(
            sorted(
                (tuple(sorted(members)) for members in clusters if members),
                key=lambda cluster: cluster[0],
            )
        )
        seen: set[str] = set()
        for cluster in canonical:
            for member in cluster:
                if member in seen:
                    raise ResolutionError(
                        f"element {member!r} appears in two clusters"
                    )
                seen.add(member)
        return cls(clusters=canonical)

    @classmethod
    def from_union_find(cls, uf: UnionFind) -> "Clustering":
        return cls(clusters=uf.components())

    @classmethod
    def from_assignments(cls, assignments: Mapping[str, str]) -> "Clustering":
        """Build from an element → cluster-label mapping."""
        groups: dict[str, list[str]] = {}
        for element, label in assignments.items():
            groups.setdefault(label, []).append(element)
        return cls.from_clusters(groups.values())

    # ------------------------------------------------------------- read-outs

    @property
    def elements(self) -> tuple[str, ...]:
        """All clustered elements, sorted."""
        return tuple(
            sorted(member for cluster in self.clusters for member in cluster)
        )

    def assignments(self) -> dict[str, str]:
        """Element → cluster id (the cluster's smallest member)."""
        return {
            member: cluster[0]
            for cluster in self.clusters
            for member in cluster
        }

    def cluster_of(self, element: str) -> tuple[str, ...]:
        for cluster in self.clusters:
            if element in cluster:
                return cluster
        raise KeyError(f"unknown element {element!r}")

    def size_histogram(self) -> dict[int, int]:
        """Cluster size → number of clusters of that size."""
        histogram: dict[int, int] = {}
        for cluster in self.clusters:
            histogram[len(cluster)] = histogram.get(len(cluster), 0) + 1
        return dict(sorted(histogram.items()))

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)


# --------------------------------------------------------------- constraints


def _prepare(
    elements: Iterable[str],
    decisions: Sequence[PairDecision],
    must_link: Iterable[tuple[str, str]],
    cannot_link: Iterable[tuple[str, str]],
) -> tuple[UnionFind, tuple[tuple[str, str], ...]]:
    """Seed a union-find with elements + must-links; canonicalize cannot-links."""
    uf = UnionFind(elements)
    for decision in decisions:
        uf.add(decision.left)
        uf.add(decision.right)
    cannot = tuple(sorted({_canonical_pair(a, b) for a, b in cannot_link}))
    for a, b in cannot:
        uf.add(a)
        uf.add(b)
    for a, b in sorted({_canonical_pair(a, b) for a, b in must_link}):
        uf.union(a, b)
    for a, b in cannot:
        if uf.connected(a, b):
            raise ResolutionError(
                f"must-link constraints force cannot-link pair ({a!r}, {b!r}) "
                "into one cluster"
            )
    return uf, cannot


def _merge_allowed(
    uf: UnionFind, cannot: tuple[tuple[str, str], ...], a: str, b: str
) -> bool:
    """Would merging *a*'s and *b*'s components violate a cannot-link?"""
    id_a, id_b = uf.find(a), uf.find(b)
    for x, y in cannot:
        id_x, id_y = uf.find(x), uf.find(y)
        if (id_x == id_a and id_y == id_b) or (id_x == id_b and id_y == id_a):
            return False
    return True


# ----------------------------------------------------------------- clustering


def transitive_closure(
    elements: Iterable[str],
    decisions: Sequence[PairDecision],
    must_link: Iterable[tuple[str, str]] = (),
    cannot_link: Iterable[tuple[str, str]] = (),
) -> Clustering:
    """Connected components over the positive decisions.

    Without cannot-links the result is provably order-invariant: the
    partition is the connected components of the graph whose edge set is
    ``{d.key for d in decisions if d.match}``, and connected components
    are a function of the edge *set* only.  With cannot-links the greedy
    skip depends on processing order, so positive decisions are applied
    in canonical sorted order — still a pure function of the inputs.
    """
    uf, cannot = _prepare(elements, decisions, must_link, cannot_link)
    positive = sorted({d.key for d in decisions if d.match})
    for a, b in positive:
        if uf.connected(a, b):
            continue
        if _merge_allowed(uf, cannot, a, b):
            uf.union(a, b)
    return Clustering.from_union_find(uf)


def correlation_cluster(
    elements: Iterable[str],
    decisions: Sequence[PairDecision],
    must_link: Iterable[tuple[str, str]] = (),
    cannot_link: Iterable[tuple[str, str]] = (),
    min_agreement: float = 0.5,
) -> Clustering:
    """Greedy agreement-weighted clustering with low-agreement vetoes.

    Evidence is aggregated per unordered pair (repeated decisions sum).
    Candidate merges are visited in descending positive-weight order;
    a merge of clusters A and B happens only when

        pos(A, B) / (pos(A, B) + neg(A, B)) >= min_agreement

    where pos/neg sum the scores of positive/negative decisions crossing
    the two clusters.  ``min_agreement=0.5`` means "merge unless the
    negative evidence outweighs the positive"; 0.0 reduces to transitive
    closure over pairs with any positive evidence.
    """
    if not 0.0 <= min_agreement <= 1.0:
        raise ResolutionError(
            f"min_agreement {min_agreement} outside [0, 1]"
        )
    uf, cannot = _prepare(elements, decisions, must_link, cannot_link)
    #: canonical pair → [positive weight, negative weight].
    evidence: dict[tuple[str, str], list[float]] = {}
    for decision in decisions:
        weights = evidence.setdefault(decision.key, [0.0, 0.0])
        weights[0 if decision.match else 1] += decision.score

    #: component id → {other component id → [pos, neg]} cross evidence.
    cross: dict[str, dict[str, list[float]]] = {}
    for (a, b), (pos, neg) in evidence.items():
        id_a, id_b = uf.find(a), uf.find(b)
        if id_a == id_b:
            continue
        for src, dst in ((id_a, id_b), (id_b, id_a)):
            entry = cross.setdefault(src, {}).setdefault(dst, [0.0, 0.0])
            entry[0] += pos
            entry[1] += neg

    def merge_components(id_a: str, id_b: str) -> None:
        uf.union(id_a, id_b)
        merged = uf.find(id_a)
        absorbed = id_b if merged == id_a else id_a
        kept_map = cross.pop(merged, {})
        for other, weights in cross.pop(absorbed, {}).items():
            if other == merged:
                continue
            entry = kept_map.setdefault(other, [0.0, 0.0])
            entry[0] += weights[0]
            entry[1] += weights[1]
        kept_map.pop(absorbed, None)
        if kept_map:
            cross[merged] = kept_map
        for neighbours in cross.values():
            stale = neighbours.pop(absorbed, None)
            if stale is not None:
                entry = neighbours.setdefault(merged, [0.0, 0.0])
                entry[0] += stale[0]
                entry[1] += stale[1]

    candidates = sorted(
        (pair for pair, weights in evidence.items() if weights[0] > 0.0),
        key=lambda pair: (-evidence[pair][0], pair),
    )
    for a, b in candidates:
        id_a, id_b = uf.find(a), uf.find(b)
        if id_a == id_b:
            continue
        if not _merge_allowed(uf, cannot, a, b):
            continue
        pos, neg = cross.get(id_a, {}).get(id_b, (0.0, 0.0))
        total = pos + neg
        if total <= 0.0 or pos / total < min_agreement:
            continue
        merge_components(id_a, id_b)
    return Clustering.from_union_find(uf)


def cluster(
    mode: str,
    elements: Iterable[str],
    decisions: Sequence[PairDecision],
    must_link: Iterable[tuple[str, str]] = (),
    cannot_link: Iterable[tuple[str, str]] = (),
    min_agreement: float = 0.5,
) -> Clustering:
    """Cluster with the named mode: ``transitive`` or ``correlation``."""
    if mode == "transitive":
        return transitive_closure(elements, decisions, must_link, cannot_link)
    if mode == "correlation":
        return correlation_cluster(
            elements, decisions, must_link, cannot_link, min_agreement
        )
    raise ValueError(f"unknown resolution mode {mode!r}")
