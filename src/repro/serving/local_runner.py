"""Local batched inference runner (the Transformers path of the paper).

Runs open-source models locally in micro-batches with deterministic
(temperature-0) decoding, mirroring how the paper drives the Llama models
through Hugging Face Transformers on multi-GPU machines.  The batch size
only controls chunking here, but the interface — and the determinism
guarantee across batch sizes, which real inference stacks famously violate
— is part of the library's contract and covered by tests.  Each batch is
scored by one model call (:meth:`~repro.llm.model.ChatModel.complete_batch`)
that takes its products one pair at a time, so a pair's logit has the
same bits whatever batch it lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.features import FeatureMemo
from repro.llm.model import ChatModel, build_model

__all__ = ["LocalRunner"]


@dataclass
class LocalRunner:
    """Batched prompt runner for locally hosted models.

    The runner owns the :class:`~repro.llm.features.FeatureMemo` of its
    model calls: descriptions are featurized once per runner, and the
    views are dropped with it.
    """

    model: ChatModel
    batch_size: int = 32
    memo: FeatureMemo = field(
        init=False, default_factory=FeatureMemo, repr=False, compare=False
    )

    @classmethod
    def for_model(cls, name: str, batch_size: int = 32) -> "LocalRunner":
        model = build_model(name)
        if model.persona.kind != "open-source":
            raise ValueError(f"{name} is a hosted model; use the batch API instead")
        return cls(model=model, batch_size=batch_size)

    def generate(self, prompts: list[str]) -> list[str]:
        """Answer every prompt, preserving order (one model call per batch)."""
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        outputs: list[str] = []
        for start in range(0, len(prompts), self.batch_size):
            chunk = prompts[start: start + self.batch_size]
            outputs.extend(self.model.complete_batch(chunk, self.memo))
        return outputs
