"""Seeded synthetic dedup corpora for blocking benchmarks.

The real benchmark splits top out at a few thousand records; measuring
blocking *scale* (ingest throughput, candidate growth at 100k records)
needs a corpus whose size, duplicate rate, and corruption level are
knobs.  :func:`synthetic_dedup_corpus` generates one deterministically:

* each **entity** renders a canonical token sequence — brand and product
  line from mid-sized vocabularies (so popular tokens produce large
  token-blocking buckets at scale), a near-unique model code, a
  category, and a few spec tokens;
* each entity appears in 1..4 **records**; the copies after the first
  are corrupted (token drops, typos, joined model codes, noise words,
  reorderings), which lowers their Jaccard overlap with the canonical
  form without severing it;
* ground truth is the set of intra-entity record pairs, and arrival
  order is a seeded shuffle so ingestion never sees cluster members
  adjacently.

Everything is a pure function of ``(n, seed, knobs)`` via
:func:`~repro._util.derive_rng`, so benchmarks and tests regenerate the
exact corpus from its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro._util import derive_rng, pick
from repro.datasets.corruptions import typo
from repro.datasets.schema import Record

__all__ = ["SyntheticCorpus", "synthetic_dedup_corpus"]

_BRAND_PARTS = (
    ["ak", "bel", "cor", "dav", "el", "fen", "gor", "hal", "ist", "jov"],
    ["tron", "mex", "dale", "vio", "run", "sona", "lix", "net", "core", "bit"],
)
_LINE_PARTS = (
    ["aero", "blaze", "cryo", "delta", "echo", "flux", "gale", "halo",
     "ion", "jet", "kilo", "luma", "meso", "nova", "onyx", "pulse"],
    ["band", "cast", "dock", "edge", "form", "grid", "head", "link",
     "mark", "node", "pad", "rig", "span", "tide", "view"],
)
_CATEGORIES = [
    "headset", "printer", "camera", "router", "speaker", "keyboard",
    "monitor", "scanner", "charger", "drive", "tablet", "projector",
    "mouse", "webcam", "adapter", "enclosure", "microphone", "dock",
    "switch", "console",
]
_CAPACITIES = ["16gb", "32gb", "64gb", "128gb", "256gb", "512gb", "1tb", "2tb"]
_COLORS = [
    "black", "white", "silver", "blue", "red", "green", "gray", "gold",
]
_EDITIONS = ["pro", "lite", "max", "plus", "mini", "ultra"]
_NOISE = [
    "new", "oem", "retail", "bulk", "genuine", "refurb", "sealed", "bundle",
]

_CLUSTER_SIZES = [1, 2, 3, 4]
_CLUSTER_PROBS = [0.55, 0.25, 0.13, 0.07]


@dataclass(frozen=True)
class SyntheticCorpus:
    """A generated dedup corpus with its ground-truth clustering."""

    records: tuple[Record, ...]
    clusters: tuple[tuple[str, ...], ...]

    @cached_property
    def true_pairs(self) -> frozenset[tuple[str, str]]:
        """All intra-cluster record-id pairs, each sorted ascending."""
        pairs = set()
        for cluster in self.clusters:
            for i in range(len(cluster)):
                for j in range(i + 1, len(cluster)):
                    pairs.add(tuple(sorted((cluster[i], cluster[j]))))
        return frozenset(pairs)


def _canonical_tokens(rng: np.random.Generator) -> list[str]:
    brand = pick(rng, _BRAND_PARTS[0]) + pick(rng, _BRAND_PARTS[1])
    line = pick(rng, _LINE_PARTS[0]) + pick(rng, _LINE_PARTS[1])
    code_letters = "".join(
        chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=2)
    )
    model = f"{code_letters}-{int(rng.integers(1000, 9999))}"
    tokens = [
        brand,
        line,
        model,
        pick(rng, _CATEGORIES),
        pick(rng, _CAPACITIES),
        pick(rng, _COLORS),
    ]
    if rng.random() < 0.6:
        tokens.append(pick(rng, _EDITIONS))
    return tokens


def _corrupt(
    tokens: list[str], rng: np.random.Generator, corruption: float
) -> list[str]:
    out = list(tokens)
    # Drop optional tail tokens (capacity / color / edition), never the
    # brand, line, or model code that anchor the match.
    kept = out[:3] + [
        token for token in out[3:] if rng.random() >= corruption * 0.6
    ]
    out = kept
    if rng.random() < corruption:
        which = int(rng.integers(0, 2))  # brand or line word
        out[which] = typo(out[which], rng)
    if rng.random() < corruption * 0.8:
        out[2] = out[2].replace("-", "")  # "ak-4821" -> "ak4821"
    for word in _NOISE:
        if rng.random() < corruption * 0.15:
            out.append(word)
    if rng.random() < 0.5:
        rng.shuffle(out)
    return out


def synthetic_dedup_corpus(
    n: int, seed: int = 0, corruption: float = 0.25
) -> SyntheticCorpus:
    """Generate *n* records with seeded duplicate clusters.

    ``corruption`` in [0, 1] scales how far duplicate renderings drift
    from the canonical token sequence (0.25 keeps intra-cluster Jaccard
    mostly above 0.5).  Record ids are ``s<width-padded ordinal>``;
    arrival order is a seeded shuffle of the generation order.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= corruption <= 1.0:
        raise ValueError("corruption must be in [0, 1]")
    rng = derive_rng(seed, "synthetic", "dedup", n)
    width = len(str(n - 1))
    records: list[Record] = []
    clusters: list[tuple[str, ...]] = []
    while len(records) < n:
        size = min(
            int(rng.choice(_CLUSTER_SIZES, p=_CLUSTER_PROBS)),
            n - len(records),
        )
        canonical = _canonical_tokens(rng)
        member_ids = []
        for copy in range(size):
            tokens = (
                list(canonical)
                if copy == 0
                else _corrupt(canonical, rng, corruption)
            )
            record_id = f"s{len(records):0{width}d}"
            description = " ".join(tokens)
            records.append(
                Record(
                    record_id=record_id,
                    attributes={"title": description},
                    description=description,
                )
            )
            member_ids.append(record_id)
        if size > 1:
            clusters.append(tuple(member_ids))
    order = np.arange(len(records))
    derive_rng(seed, "synthetic", "order", n).shuffle(order)
    shuffled = tuple(records[int(i)] for i in order)
    return SyntheticCorpus(records=shuffled, clusters=tuple(clusters))
