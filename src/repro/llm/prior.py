"""Persona representation and pretrained prior head.

The simulated "pretraining" of each persona happens here, once, at model
build time:

1. A broad **pretraining mixture** of moderately hard product / software /
   scholar pairs is generated (shared across personas).
2. The persona's **representation matrix** ``M`` distorts the true feature
   vector: high-fidelity features pass through, low-fidelity (subtle)
   features are attenuated and smeared with generic signals.
3. A logistic-regression **prior head** is fitted on the persona's own view
   of (the first ``pretrain_pairs`` of) the mixture, then corrupted with
   persona weight noise.  Stronger personas = more pretraining + less noise.

The resulting head is frozen; fine-tuning only ever adds a LoRA delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro._util import derive_rng, stable_hash
from repro.datasets.build import HardnessProfile, build_split
from repro.datasets.catalog import PaperCatalog, ProductCatalog, SoftwareCatalog
from repro.datasets.schema import EntityPair
from repro.llm.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    NUM_FEATURES,
    FeatureMemo,
    featurize_pairs,
)
from repro.llm.registry import PersonaProfile

__all__ = [
    "PriorHead",
    "SUBTLE_FEATURES",
    "build_prior",
    "pretraining_mixture",
    "representation_matrix",
]

#: Features whose perception degrades first on smaller models: fine-grained
#: evidence that requires careful reading of codes, versions and fields.
SUBTLE_FEATURES = (
    "near_code_match",
    "version_match",
    "version_conflict",
    "edition_match",
    "edition_conflict",
    "sku_match",
    "sku_conflict",
    "unit_spec_match",
    "unit_spec_conflict",
    "author_initial_compat",
    "title_field_sim",
    "title_field_containment",
    "venue_compat",
    "venue_conflict",
)

#: Internal width of the scoring layer (the LoRA delta has shape k × d).
HEAD_COMPONENTS = 16


#: Std-dev (in feature units) of per-pair observation noise at fidelity 0.
REPRESENTATION_NOISE = 0.4

#: Observation-noise masks per record type: product/software evidence slots
#: cannot fire on fielded records and vice versa.
_SCHOLAR_MASK = np.array(
    [0.0 if FEATURE_GROUPS[n] in ("product", "software") else 1.0
     for n in FEATURE_NAMES]
)
_PRODUCT_MASK = np.array(
    [0.0 if FEATURE_GROUPS[n] == "scholar" else 1.0 for n in FEATURE_NAMES]
)


def _pair_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, built as ``Generator(PCG64(seed))``.

    That is what ``default_rng`` of an int builds, and it costs the same:
    in three series of 15 interleaved trials of 2,000 ``stable_hash``
    seeds (numpy 2.4.6, 2-vCPU VM), the median per seed read 10.5 /
    10.6 / 12.1 µs here and 10.3 / 10.4 / 12.0 µs for ``default_rng``.
    Nearly all of it is seeding (``SeedSequence``), so the two
    generators a pair's logit needs (observation and perception noise)
    are its largest fixed cost.
    """
    return np.random.Generator(np.random.PCG64(seed))


@dataclass
class PriorHead:
    """Frozen pretrained scoring head of one persona.

    ``logit = v · (W0 @ observe(pair)) + perception_noise(pair)``

    ``observe`` is the persona's *reading* of a pair: the linear distortion
    ``M φ`` plus per-pair stochastic observation noise on low-fidelity
    features.  The stochastic part is what makes degraded evidence
    genuinely unlearnable — a deterministic linear distortion alone could be
    inverted by the fine-tuned adapter.
    """

    persona: PersonaProfile
    #: representation distortion matrix (d × d)
    M: np.ndarray
    #: frozen scoring layer (k × d)
    W0: np.ndarray
    #: fixed combination vector (k,)
    v: np.ndarray
    #: additional per-feature observation noise accumulated through
    #: fine-tuning interference (None before any fine-tuning)
    extra_obs_sigma: np.ndarray | None = None
    #: perception-noise multipliers per record type (flat, fielded):
    #: fine-tuning sharpens perception on the rehearsed domain (further
    #: with explanation-augmented training) and degrades it out of domain.
    perception_scale: tuple[float, float] = (1.0, 1.0)
    #: per-feature multiplier on observation noise (< 1 after fine-tuning
    #: with explanations taught the model to read that evidence better)
    obs_sigma_scale: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Per-feature observation-noise scale: zero at full fidelity.
        self._obs_sigma = REPRESENTATION_NOISE * (1.0 - np.diag(self.M))
        if self.obs_sigma_scale is not None:
            self._obs_sigma = self._obs_sigma * self.obs_sigma_scale
        if self.extra_obs_sigma is not None:
            self._obs_sigma = self._obs_sigma + self.extra_obs_sigma
        self._noisy = bool(np.any(self._obs_sigma))
        self._obs_cache: dict[tuple[str, str], np.ndarray] = {}
        # The persona is frozen, so its miscalibration vector is too.
        bias = np.zeros(NUM_FEATURES)
        for name, delta in self.persona.feature_bias.items():
            bias[FEATURE_NAMES.index(name)] = delta
        bias.flags.writeable = False
        self._feature_bias = bias

    def represent(self, phi: np.ndarray) -> np.ndarray:
        """Noise-free linear part of the persona view (n × d)."""
        return phi @ self.M.T

    def observe(
        self, pairs: list[EntityPair], memo: FeatureMemo | None = None
    ) -> np.ndarray:
        """Persona reading of *pairs*: distorted features + observation noise.

        Deterministic per (persona, pair), so training and every later
        evaluation see the same reading.  Noise is masked to the evidence
        slots that can be active for the pair's record type — a model
        reading a product title has no bibliographic perception to
        misread, and vice versa.

        Without a *memo*, readings are cached per pair for the life of the
        head (overlapping experiment splits read for free).  With one, the
        features come from the memo's per-description views, nothing per
        pair is kept (an engine asks each pair once), and each pair is
        read by its own one-row product, as ``observe([pair])`` reads it.
        """
        phi = featurize_pairs(pairs, memo)
        if memo is None or len(phi) == 1:
            x = self.represent(phi)
        else:
            # One-row products: a pair's reading has the same bits in
            # any micro-batch (BLAS picks its kernels by shape).
            x = np.concatenate(
                [self.represent(phi[i: i + 1]) for i in range(len(phi))]
            )
        if not self._noisy:
            return x
        cache = self._obs_cache if memo is None else None
        noise = np.empty_like(x)
        for i, pair in enumerate(pairs):
            key = (pair.left.description, pair.right.description)
            row = cache.get(key) if cache is not None else None
            if row is None:
                rng = _pair_rng(stable_hash("observe", self.persona.name, *key))
                row = self._obs_sigma * rng.standard_normal(x.shape[1])
                fielded = ";" in pair.left.description
                row = row * (_SCHOLAR_MASK if fielded else _PRODUCT_MASK)
                if cache is not None:
                    cache[key] = row
            noise[i] = row
        return x + noise

    def feature_bias_vector(self) -> np.ndarray:
        """Persona miscalibration as a per-feature logit contribution.

        Systematic dispositions (e.g. under-predicting matches on fielded
        bibliographic pairs) are a property of the instruction-tuned model,
        not of the matching knowledge in ``W0`` — so fine-tuning
        interference never erases them.
        """
        return self._feature_bias

    def logits_for(self, pairs: list[EntityPair]) -> np.ndarray:
        """Prior logits for pairs (no adapter, no prompt bias)."""
        x = self.observe(pairs)
        return x @ (self.v @ self.W0) + x @ self.feature_bias_vector()

    def perception_noise(self, pairs: list[EntityPair]) -> np.ndarray:
        """Deterministic per-pair logit noise (same across prompts).

        Fielded bibliographic records are scaled by the persona's
        ``scholar_noise_factor`` — long structured records are less
        ambiguous to read than cryptic product titles.
        """
        sigma = self.persona.perception_noise
        if sigma == 0.0 or not pairs:
            return np.zeros(len(pairs))
        factor = self.persona.scholar_noise_factor
        flat_scale, fielded_scale = self.perception_scale
        out = np.empty(len(pairs))
        for i, pair in enumerate(pairs):
            rng = _pair_rng(
                stable_hash("perception", self.persona.name,
                            pair.left.description, pair.right.description)
            )
            fielded = ";" in pair.left.description
            scale = factor * fielded_scale if fielded else flat_scale
            out[i] = sigma * scale * rng.standard_normal()
        return out


@lru_cache(maxsize=1)
def pretraining_mixture() -> tuple[EntityPair, ...]:
    """The shared pretraining corpus: a broad, moderately hard mixture."""
    profile = HardnessProfile(
        corner_frac_pos=0.4,
        corner_frac_neg=0.4,
        noise_easy=0.35,
        noise_hard=0.8,
        label_noise_train=0.01,
    )
    from repro.datasets.products import _product_renderer, _software_renderer
    from repro.datasets.scholar import _paper_renderer

    seed = 424242
    parts: list[EntityPair] = []

    product_catalog = ProductCatalog(seed + 1)
    parts.extend(
        build_split(
            "pretrain-product", 1200, 2400, profile,
            product_catalog.sample, product_catalog.sibling,
            _product_renderer("pretrain"), seed + 1, is_train=True,
        ).pairs
    )
    software_catalog = SoftwareCatalog(seed + 2)
    parts.extend(
        build_split(
            "pretrain-software", 250, 500, profile,
            software_catalog.sample, software_catalog.sibling,
            _software_renderer(), seed + 2, is_train=True,
        ).pairs
    )
    paper_catalog = PaperCatalog(seed + 3)
    parts.extend(
        build_split(
            "pretrain-scholar", 1200, 2400, profile,
            paper_catalog.sample, paper_catalog.sibling,
            _paper_renderer({"a": 0.7, "b": 1.1}), seed + 3, is_train=True,
        ).pairs
    )

    order = derive_rng(seed, "mixture-order").permutation(len(parts))
    return tuple(parts[int(i)] for i in order)


def representation_matrix(persona: PersonaProfile) -> np.ndarray:
    """Distortion matrix M: φ̃ = M φ.

    Full-fidelity features pass through; degraded features keep only a
    ``fidelity`` fraction of their value and receive a smear of generic
    signals — the model "feels" overall similarity instead of reading the
    precise evidence.
    """
    rng = derive_rng(persona.seed, "representation", persona.name)
    M = np.zeros((NUM_FEATURES, NUM_FEATURES))
    generic_idx = [
        i for i, name in enumerate(FEATURE_NAMES) if FEATURE_GROUPS[name] == "generic"
    ]
    for i, name in enumerate(FEATURE_NAMES):
        group = FEATURE_GROUPS[name]
        if group == "bias":
            fidelity = 1.0
        elif name in SUBTLE_FEATURES:
            fidelity = persona.subtle_fidelity
        else:
            fidelity = persona.generic_fidelity
        if group in persona.group_fidelity:
            fidelity = min(fidelity, persona.group_fidelity[group])
        M[i, i] = fidelity
        if fidelity < 1.0:
            smear = rng.random(len(generic_idx))
            smear = smear / smear.sum() * (1.0 - fidelity) * 0.5
            for j, g in enumerate(generic_idx):
                M[i, g] += smear[j]
    return M


def _fit_logistic(
    X: np.ndarray, y: np.ndarray, l2: float, epochs: int, lr: float, seed: int
) -> np.ndarray:
    """Plain full-batch gradient-descent logistic regression."""
    rng = np.random.default_rng(seed)
    w = 0.01 * rng.standard_normal(X.shape[1])
    n = X.shape[0]
    for _ in range(epochs):
        z = X @ w
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        grad = X.T @ (p - y) / n + l2 * w
        w -= lr * grad
    return w


@lru_cache(maxsize=None)
def build_prior(persona_name: str) -> PriorHead:
    """Fit (and cache) the frozen prior head for *persona_name*."""
    from repro.llm.registry import get_persona

    persona = get_persona(persona_name)
    mixture = list(pretraining_mixture())[: persona.pretrain_pairs]
    M = representation_matrix(persona)
    v = np.ones(HEAD_COMPONENTS) / np.sqrt(HEAD_COMPONENTS)
    # The persona pretrains on its *own* noisy readings of the corpus.
    probe = PriorHead(
        persona=persona, M=M, W0=np.zeros((HEAD_COMPONENTS, NUM_FEATURES)), v=v
    )
    X = probe.observe(mixture)
    y = np.array([p.label for p in mixture], dtype=float)

    w = _fit_logistic(X, y, l2=1e-3, epochs=600, lr=1.5, seed=persona.seed)

    # Per-group skill: attenuate evidence the persona's pretraining covered
    # poorly (e.g. bibliographic conventions for the Llama models).
    for group, skill in persona.group_skill.items():
        for i, name in enumerate(FEATURE_NAMES):
            if FEATURE_GROUPS[name] == group:
                w[i] *= skill

    # Persona weight corruption: imperfect pretraining for entity matching.
    # Per-group multipliers let a persona be noisier/cleaner on one kind of
    # evidence than its average (e.g. clean bibliographic conventions).
    rng = derive_rng(persona.seed, "prior-noise", persona.name)
    scale = persona.prior_noise * np.linalg.norm(w) / np.sqrt(w.size)
    noise = scale * rng.standard_normal(w.size)
    for group, mult in persona.group_noise.items():
        for i, name in enumerate(FEATURE_NAMES):
            if FEATURE_GROUPS[name] == group:
                noise[i] *= mult
    w_noisy = w + noise

    # W0 chosen so that v @ W0 == w_noisy, spread over k components so the
    # LoRA delta (k × d) has meaningful room to act.
    W0 = np.outer(v, w_noisy) / float(v @ v)
    return PriorHead(persona=persona, M=M, W0=W0, v=v)
