"""The simulated chat LLM.

A :class:`ChatModel` is one persona in one state (zero-shot or fine-tuned).
Fine-tuning never mutates a model: :meth:`ChatModel.fine_tune` returns a
new instance carrying the trained LoRA adapter, the (slightly interfered)
prior, the prompt it was tuned with and the explanation style of its
training set.

Two inference paths exist and agree with each other (tested):

* :meth:`complete` / :meth:`complete_batch` — the chat interface: takes
  rendered prompt strings, recovers the entity descriptions, answers in
  natural language;
* :meth:`predict_pairs` — the vectorized experiment path used by the
  evaluator and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro._util import derive_rng, stable_hash
from repro.datasets.schema import EntityPair, Record, Split
from repro.llm.adapter import LoRAAdapter
from repro.llm.decoding import is_hedged, realize_answer
from repro.llm.features import FeatureMemo
from repro.llm.parsing import parse_yes_no
from repro.llm.prior import PriorHead, build_prior
from repro.llm.registry import PersonaProfile, get_persona
from repro.prompts.builder import extract_entities, identify_prompt
from repro.prompts.templates import DEFAULT_PROMPT, PromptTemplate
from repro.training.config import FineTuneConfig, defaults_for
from repro.training.trainer import TrainingExample, fine_tune as run_fine_tune

__all__ = ["ChatModel", "build_model"]


@dataclass(frozen=True)
class ChatModel:
    """One simulated LLM (persona + optional fine-tuned adapter)."""

    persona: PersonaProfile
    prior: PriorHead
    #: prior scoring layer actually used (differs from prior.W0 after
    #: fine-tuning interference)
    W0: np.ndarray
    adapter: LoRAAdapter | None = None
    #: the prompt the adapter was trained with (None when zero-shot)
    ft_prompt: PromptTemplate | None = None
    #: explanation style present in the fine-tuning set, if any
    explanation_style: str | None = None
    #: human-readable tag of the training set ("zero-shot", "wdc-small", ...)
    training_set: str = "zero-shot"

    # ------------------------------------------------------------------ api

    @property
    def name(self) -> str:
        return self.persona.name

    @property
    def is_fine_tuned(self) -> bool:
        return self.adapter is not None

    def prompt_bias(self, template: PromptTemplate) -> float:
        """Persona-specific logit shift induced by a prompt's wording."""
        return _prompt_bias(
            self.persona.name, self.persona.prompt_bias_sigma, template.question
        )

    def logits(
        self,
        pairs: Sequence[EntityPair],
        template: PromptTemplate = DEFAULT_PROMPT,
        memo: FeatureMemo | None = None,
    ) -> np.ndarray:
        """Raw matching logits for candidate pairs under *template*.

        *memo* holds the caller's per-description feature views (see
        :class:`~repro.llm.features.FeatureMemo`).  With one, every
        product is taken one pair at a time, so a pair's logit has the
        same bits in any batch: those of ``logits([pair])``.  Without
        one, the batch is multiplied at once, and BLAS, which picks its
        kernels by shape, may move the last bits.
        """
        pairs = list(pairs)
        if not pairs:
            return np.zeros(0)
        x = self.prior.observe(pairs, memo)
        w = self.prior.v @ self.W0
        if memo is None or len(x) == 1:
            scores = self._linear_scores(x, w)
        else:
            scores = np.concatenate(
                [self._linear_scores(x[i: i + 1], w) for i in range(len(x))]
            )
        scores = scores + self._template_bias(template)
        scores = scores + self.prior.perception_noise(pairs)
        return scores

    def _linear_scores(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Head, persona miscalibration and adapter terms of the logits."""
        scores = x @ w
        scores = scores + x @ self.prior.feature_bias_vector()
        if self.adapter is not None:
            scores = scores + self.persona.adapter_scale * self.adapter.logit_delta(
                x, self.prior.v
            )
        return scores

    def _template_bias(self, template: PromptTemplate) -> float:
        """The logit shift a prompt's wording causes in this model."""
        bias = self.prompt_bias(template)
        if self.adapter is not None and self.ft_prompt is not None:
            # Fine-tuning anchors the model to the matching task: wording
            # variations move the logits far less than they do zero-shot
            # (the paper's §3.3 finding).  The fine-tuning prompt's own bias
            # was part of the training forward pass, so it applies in full.
            ft_bias = self.prompt_bias(self.ft_prompt)
            bias = ft_bias + 0.2 * (bias - ft_bias)
        return bias

    def predict_pairs(
        self,
        pairs: Sequence[EntityPair],
        template: PromptTemplate = DEFAULT_PROMPT,
    ) -> np.ndarray:
        """Boolean match predictions *after answer parsing*.

        Hedged (unparseable) zero-shot answers count as non-matches, the
        same convention the evaluator applies to :meth:`complete` output.
        """
        pairs = list(pairs)
        decisions = self.logits(pairs, template) > 0.0
        if not self.is_fine_tuned and not template.forced:
            for i, pair in enumerate(pairs):
                if decisions[i] and is_hedged(
                    self.persona,
                    template,
                    pair.left.description,
                    pair.right.description,
                    fine_tuned=False,
                ):
                    decisions[i] = False
        return decisions

    def complete(self, prompt: str) -> str:
        """Chat interface: answer a rendered matching prompt.

        The question wording is identified against the known templates;
        unknown wordings behave like a free-form custom prompt.
        """
        return self.complete_batch([prompt])[0]

    def complete_batch(
        self, prompts: Sequence[str], memo: FeatureMemo | None = None
    ) -> list[str]:
        """Answer every prompt, in order, as :meth:`complete` answers each.

        Each prompt is parsed once and the pairs of each template are
        scored by one :meth:`logits` call.  *memo* holds the caller's
        per-description feature views.  A malformed prompt raises
        ``ValueError`` and no answer is returned.
        """
        parsed = [_parse_prompt(p) for p in prompts]
        by_template: dict[PromptTemplate, list[int]] = {}
        for i, (_, _, template) in enumerate(parsed):
            by_template.setdefault(template, []).append(i)
        decisions = [False] * len(parsed)
        for template, members in by_template.items():
            pairs = [_adhoc_pair(*parsed[i][:2]) for i in members]
            for i, score in zip(members, self.logits(pairs, template, memo)):
                decisions[i] = bool(score > 0.0)
        return [
            self._answer(left, right, template, decision)
            for (left, right, template), decision in zip(parsed, decisions)
        ]

    def _answer(
        self, left: str, right: str, template: PromptTemplate, decision: bool
    ) -> str:
        """The completion text for one decided pair."""
        explanation = None
        if self.explanation_style is not None:
            from repro.core.explanations import render_completion_explanation

            explanation = render_completion_explanation(
                self.explanation_style, left, right, decision
            )
        return realize_answer(
            decision,
            self.persona,
            template,
            left,
            right,
            fine_tuned=self.is_fine_tuned,
            explanation=explanation,
        )

    def answer_pair(
        self, pair: EntityPair, template: PromptTemplate = DEFAULT_PROMPT
    ) -> bool:
        """Single-pair convenience: prompt, complete, parse (None → False)."""
        response = self.complete(template.render(pair.left.description,
                                                 pair.right.description))
        parsed = parse_yes_no(response)
        return bool(parsed)

    # ---------------------------------------------------------- fine-tuning

    def fine_tune(
        self,
        examples: Sequence[TrainingExample],
        valid: Split | None = None,
        template: PromptTemplate = DEFAULT_PROMPT,
        config: FineTuneConfig | None = None,
        training_set: str = "custom",
        explanation_style: str | None = None,
    ) -> tuple["ChatModel", object]:
        """Return (fine-tuned model, FineTuneResult).

        Uses provider defaults for this persona unless *config* overrides.
        Validation (when a split is given) selects the best visible
        checkpoint by F1, replicating the paper's callback setup.
        """
        from repro.eval.metrics import f1_score  # avoid import cycle

        if config is None:
            config = defaults_for(self.persona.kind)

        examples = list(examples)
        if not examples:
            raise ValueError("cannot fine-tune on an empty training set")
        # Provider-side replay: hosted pipelines mix general data into the
        # fine-tuning set to protect broad capabilities (this is what keeps
        # cross-domain performance from collapsing for the GPT models).
        if self.persona.replay_fraction > 0.0 and examples:
            from repro.llm.prior import pretraining_mixture

            mixture = pretraining_mixture()
            n_replay = min(
                int(self.persona.replay_fraction * len(examples)), len(mixture)
            )
            if n_replay > 0:
                rng = derive_rng(config.seed, "replay", self.persona.name)
                chosen = rng.choice(len(mixture), size=n_replay, replace=False)
                examples = examples + [
                    TrainingExample(pair=mixture[int(i)], label=mixture[int(i)].label)
                    for i in chosen
                ]

        validate = None
        if valid is not None and len(valid) > 0:
            valid_pairs = list(valid.pairs)
            valid_labels = np.array(valid.labels(), dtype=bool)

            def validate(adapter: LoRAAdapter) -> float:
                candidate = replace(
                    self,
                    adapter=adapter,
                    ft_prompt=template,
                    training_set=training_set,
                )
                preds = candidate.predict_pairs(valid_pairs, template)
                return f1_score(valid_labels, preds).f1

        from repro.llm.features import featurize_pairs

        phi_train = featurize_pairs([ex.pair for ex in examples])
        usage = np.mean(np.abs(phi_train), axis=0) / _reference_feature_scale()
        usage = np.clip(usage, 0.0, 1.0)

        # Dimension 1: explanations teach the model to read the attribute
        # evidence it rehearses — observation noise on used features drops
        # in proportion to how explicit the explanation style is.
        from repro.core.explanations import EXPLANATION_FIDELITY_GAIN

        gain = EXPLANATION_FIDELITY_GAIN.get(explanation_style, 0.0)
        sigma_scale = self.prior.obs_sigma_scale
        if gain > 0.0:
            new_scale = 1.0 - gain * usage
            sigma_scale = (
                new_scale if sigma_scale is None else sigma_scale * new_scale
            )
        train_prior = replace(
            self.prior, W0=self.W0, obs_sigma_scale=sigma_scale
        )

        result = run_fine_tune(
            prior=train_prior,
            examples=list(examples),
            config=config,
            prompt_bias=self.prompt_bias(template),
            validate=validate,
        )

        # Fine-tuning interference (catastrophic forgetting): knowledge in
        # the frozen head decays toward zero in proportion to how far the
        # adapter moved and how unstable this persona is under fine-tuning.
        # Decay concentrates on evidence that was *not* rehearsed during
        # fine-tuning — feature weights exercised by the training data are
        # continuously re-anchored by the task loss, while unused ones fade.
        # This is the mechanism behind the paper's cross-domain degradation.
        # convex in usage: features exercised at even moderate levels are
        # continuously re-anchored; only truly unrehearsed evidence fades
        fade_per_feature = 0.05 + 0.95 * (1.0 - usage) ** 3

        # A LoRA delta cannot encode behaviour for evidence that never fired
        # during fine-tuning: its projection columns for those features keep
        # their random initialization (they receive no gradient).  Routing
        # real out-of-domain feature values through random directions would
        # be an artefact of the simulator, so those columns are zeroed.
        result.adapter.A[:, usage < 0.02] = 0.0
        w_norm = np.linalg.norm(self.W0)
        # The relative update magnitude saturates: very hard or very large
        # training sets churn the adapter more, but interference with the
        # base model does not grow without bound.
        relative_update = min(result.adapter.update_norm() / max(w_norm, 1e-9), 0.7)
        drift = self.persona.ft_instability * relative_update
        shrink = np.clip(drift * fade_per_feature, 0.0, 0.9)
        W0_new = self.W0 * (1.0 - shrink)[None, :]
        # Interference also degrades how faithfully the model *reads*
        # unrehearsed evidence from now on (both the prior and the adapter
        # consume these degraded readings).
        extra_obs = drift * fade_per_feature * 0.5
        if self.prior.extra_obs_sigma is not None:
            extra_obs = extra_obs + self.prior.extra_obs_sigma
        # Perception specializes to the rehearsed record type: it sharpens
        # in-domain (further when explanations spell the evidence out) and
        # degrades out of domain in proportion to the interference.
        fielded_frac = float(
            np.mean([";" in ex.pair.left.description for ex in examples])
        )
        flat_scale, fielded_scale = self.prior.perception_scale
        ood_factor = min(1.0 + 3.0 * drift, 2.2)
        sharpen = 1.0 - 0.5 * gain
        if fielded_frac < 0.2:
            fielded_scale *= ood_factor
            flat_scale *= sharpen
        elif fielded_frac > 0.8:
            flat_scale *= ood_factor
            fielded_scale *= sharpen
        else:
            flat_scale *= sharpen
            fielded_scale *= sharpen
        prior_new = replace(
            self.prior,
            extra_obs_sigma=extra_obs,
            perception_scale=(flat_scale, fielded_scale),
            obs_sigma_scale=sigma_scale,
        )

        tuned = replace(
            self,
            prior=prior_new,
            W0=W0_new,
            adapter=result.adapter,
            ft_prompt=template,
            explanation_style=explanation_style,
            training_set=training_set,
        )
        return tuned, result

    # -------------------------------------------------------------- helpers

    def describe(self) -> str:
        """One-line human-readable description."""
        state = f"fine-tuned on {self.training_set}" if self.is_fine_tuned else "zero-shot"
        style = f", explanations={self.explanation_style}" if self.explanation_style else ""
        return f"{self.persona.display} ({state}{style})"


def _parse_prompt(prompt: str) -> tuple[str, str, PromptTemplate]:
    """(left, right, template) of a rendered prompt; ValueError if malformed."""
    left, right = extract_entities(prompt)
    template = identify_prompt(prompt)
    if template is None:
        # The line identify_prompt reads and PromptTemplate.render
        # writes: a question may hold \r or other str.splitlines breaks.
        question = prompt.partition("\n")[0].strip('" ')
        template = PromptTemplate(name="custom", question=question, forced=False)
    return left, right, template


def _adhoc_pair(left: str, right: str) -> EntityPair:
    return EntityPair(
        pair_id="adhoc",
        left=Record(record_id="adhoc-l", attributes={}, description=left),
        right=Record(record_id="adhoc-r", attributes={}, description=right),
        label=False,
    )


@lru_cache(maxsize=1024)
def _prompt_bias(persona_name: str, sigma: float, question: str) -> float:
    """The logit shift a persona reads into one question wording."""
    rng = np.random.default_rng(stable_hash("prompt-bias", persona_name, question))
    return float(sigma * rng.standard_normal())


@lru_cache(maxsize=1)
def _reference_feature_scale() -> np.ndarray:
    """Typical per-feature magnitude over the broad pretraining mixture.

    Used to decide how *rehearsed* each feature is by a fine-tuning set:
    a feature exercised at its corpus-typical level is fully anchored;
    one that never fires in the training data fades.
    """
    from repro.llm.features import featurize_pairs
    from repro.llm.prior import pretraining_mixture

    phi = featurize_pairs(list(pretraining_mixture()))
    return np.maximum(np.mean(np.abs(phi), axis=0), 1e-6)


@lru_cache(maxsize=None)
def build_model(persona_name: str) -> ChatModel:
    """Build (and cache) the zero-shot model for a persona."""
    persona = get_persona(persona_name)
    prior = build_prior(persona.name)
    return ChatModel(persona=persona, prior=prior, W0=prior.W0.copy())
