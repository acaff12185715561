"""Dimension 2b: LLM-based training-example generation (paper §5.2).

Three generation methods, all iterating over a seed training set and asking
the generator model (GPT-4o in the paper) for **three non-matches and one
match** per seed:

* ``brief`` — short task description.  Reproduces the paper's inspection
  findings: generated matches have too-similar strings (easy positives) and
  correctness is shaky (easy non-matches mislabeled as matches).
* ``detailed`` — task background plus corner-case instructions: same
  category as the seed, more variation, mixed correctness.
* ``demonstration`` — additionally conditions on the six seed pairs nearest
  in the embedding space; the most variance, still imperfect labels.

The quality profiles below encode exactly those observations; downstream,
error-based and relevancy filtering (``repro.core.selection``) recover
usable training data from the mixed-quality pool, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import derive_rng, pick
from repro.datasets.build import HardnessProfile, build_split
from repro.datasets.catalog import ProductCatalog, SoftwareCatalog, PRODUCT_CATEGORIES
from repro.datasets.products import _mixed_renderer
from repro.datasets.schema import EntityPair, Split
from repro.llm.embeddings import EmbeddingModel

__all__ = [
    "GENERATION_METHODS",
    "GenerationProfile",
    "PROFILES",
    "generate_examples",
    "inspection_report",
]

GENERATION_METHODS = ("brief", "detailed", "demonstration")


@dataclass(frozen=True)
class GenerationProfile:
    """Quality profile of one generation method (from manual inspection)."""

    #: rendering-noise range for generated matches (low = too-similar strings)
    match_noise: tuple[float, float]
    #: fraction of generated non-matches that are corner cases (siblings)
    corner_neg_rate: float
    #: probability a generated "match" is actually two different entities
    label_error_match: float
    #: probability a generated "non-match" is actually the same entity
    label_error_nonmatch: float
    #: probability of drifting away from the seed's product category
    category_drift: float


PROFILES: dict[str, GenerationProfile] = {
    "brief": GenerationProfile(
        match_noise=(0.05, 0.25),
        corner_neg_rate=0.15,
        label_error_match=0.22,
        label_error_nonmatch=0.02,
        category_drift=0.5,
    ),
    "detailed": GenerationProfile(
        match_noise=(0.2, 0.7),
        corner_neg_rate=0.55,
        label_error_match=0.12,
        label_error_nonmatch=0.03,
        category_drift=0.15,
    ),
    "demonstration": GenerationProfile(
        match_noise=(0.1, 0.9),
        corner_neg_rate=0.6,
        label_error_match=0.15,
        label_error_nonmatch=0.04,
        category_drift=0.25,
    ),
}


def _seed_category(pair: EntityPair) -> str | None:
    """Product category of a seed pair, if its records expose one."""
    for record in (pair.left, pair.right):
        category = record.attributes.get("category")
        if category:
            return str(category)
    if "vendor" in pair.left.attributes or "vendor" in pair.right.attributes:
        return "software"
    return None


def _generate_for_seed(
    seed: EntityPair,
    method: str,
    index: int,
    generator: str,
    seed_value: int,
) -> list[EntityPair]:
    """One match + three non-matches derived from one seed pair."""
    profile = PROFILES[method]
    rng = derive_rng(seed_value, "generate", generator, method, seed.pair_id)
    category = _seed_category(seed)
    if category is None or rng.random() < profile.category_drift:
        category = pick(rng, [*PRODUCT_CATEGORIES, "software"])

    if category == "software":
        catalog = SoftwareCatalog(
            int(derive_rng(seed_value, "gen-cat", method, index).integers(1, 2**31))
        )
    else:
        catalog = ProductCatalog(
            int(derive_rng(seed_value, "gen-cat", method, index).integers(1, 2**31)),
            categories=[category],
        )
    render = _mixed_renderer()
    out: list[EntityPair] = []

    # one generated match
    entity = catalog.sample()
    noise = float(rng.uniform(*profile.match_noise))
    mislabeled = rng.random() < profile.label_error_match
    other = catalog.sibling(entity, 0) if mislabeled else entity
    out.append(
        EntityPair(
            pair_id=f"gen-{method}-{index}-m",
            left=render(entity, rng, noise * 0.5, view="a"),
            right=render(other, rng, noise, view="b"),
            label=True,
            corner_case=noise > 0.5,
            source=f"generated:{method}" + (":mislabeled" if mislabeled else ""),
        )
    )

    # three generated non-matches
    for j in range(3):
        entity = catalog.sample()
        mislabeled = rng.random() < profile.label_error_nonmatch
        if mislabeled:
            other = entity
        elif rng.random() < profile.corner_neg_rate:
            other = catalog.sibling(entity, j)
        else:
            other = catalog.sample()
        out.append(
            EntityPair(
                pair_id=f"gen-{method}-{index}-n{j}",
                left=render(entity, rng, 0.3, view="a"),
                right=render(other, rng, 0.3, view="b"),
                label=False,
                corner_case=other.entity_id.startswith(entity.entity_id),
                source=f"generated:{method}" + (":mislabeled" if mislabeled else ""),
            )
        )
    return out


def generate_examples(
    seeds: Split,
    methods: tuple[str, ...] = GENERATION_METHODS,
    generator: str = "gpt-4o",
    seed: int = 71,
    embedding: EmbeddingModel | None = None,
) -> list[EntityPair]:
    """Generate synthetic training pairs from every seed in *seeds*.

    The demonstration method selects the six most similar seed pairs in the
    embedding space as in-prompt demonstrations; their categories broaden
    the category distribution of that method's output.
    """
    unknown = [m for m in methods if m not in GENERATION_METHODS]
    if unknown:
        raise ValueError(f"unknown generation methods: {unknown}")
    generated: list[EntityPair] = []
    demo_corpus = None
    if "demonstration" in methods:
        embedding = embedding or EmbeddingModel()
        texts = [p.left.description for p in seeds.pairs]
        demo_corpus = embedding.embed_many(texts)
    for index, pair in enumerate(seeds.pairs):
        for method in methods:
            if method == "demonstration" and demo_corpus is not None:
                # The demonstrations anchor the generation; the seed used for
                # category conditioning becomes the most similar *other* seed
                # half of the time, broadening category coverage.
                query = embedding.embed(pair.left.description)
                neighbours = embedding.nearest(query, demo_corpus, k=7)
                neighbours = [i for i in neighbours if i != index][:6]
                rng = derive_rng(seed, "demo-pick", pair.pair_id)
                if neighbours and rng.random() < 0.5:
                    pair_for_category = seeds.pairs[neighbours[0]]
                else:
                    pair_for_category = pair
                generated.extend(
                    _generate_for_seed(pair_for_category, method, index, generator, seed)
                )
            else:
                generated.extend(
                    _generate_for_seed(pair, method, index, generator, seed)
                )
    return generated


def inspection_report(pairs: list[EntityPair]) -> dict[str, dict[str, float]]:
    """Manual-inspection summary per generation method (paper §5.2).

    Returns, per method: number generated, positive rate, corner-case rate
    and the true mislabeling rate (known here because the generator is
    simulated; the paper estimated it by manual inspection).
    """
    report: dict[str, dict[str, float]] = {}
    for method in GENERATION_METHODS:
        subset = [p for p in pairs if p.source.startswith(f"generated:{method}")]
        if not subset:
            continue
        report[method] = {
            "count": len(subset),
            "positive_rate": sum(p.label for p in subset) / len(subset),
            "corner_rate": sum(p.corner_case for p in subset) / len(subset),
            "mislabeled_rate": sum(
                p.source.endswith(":mislabeled") for p in subset
            ) / len(subset),
        }
    return report
