"""Backends: the engine's uniform view of the two inference paths.

The paper serves open-source models through local batched Transformers
inference and hosted models through the asynchronous batch API.  The
engine sees both through one :class:`Backend` protocol — ``generate``
answers a list of prompts in order — so scheduling, caching, and retry
logic are written once.

Transport-level problems surface as :class:`BackendError` (re-exported
from :mod:`repro.engine.retry`), which is what the retry policy catches.
Per-request semantic failures inside an otherwise healthy batch (e.g. a
malformed prompt the provider rejects individually) come back as empty
strings: the engine parses them to "unparseable", the same convention the
evaluator applies to hedged answers, instead of failing the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.engine.retry import BackendError
from repro.llm.features import FeatureMemo
from repro.llm.model import ChatModel, build_model
from repro.serving.batch_api import BatchAPI, BatchRequest

__all__ = [
    "Backend",
    "BackendError",
    "BatchAPIBackend",
    "LocalBackend",
    "make_backend",
]


@runtime_checkable
class Backend(Protocol):
    """Anything that can answer a list of prompts, preserving order."""

    name: str

    def generate(self, prompts: list[str]) -> list[str]:
        """Return one completion per prompt, in input order."""
        ...


@dataclass
class LocalBackend:
    """The local batched Transformers path (open-source models).

    Drives a :class:`ChatModel` in-process: each micro-batch is one
    :meth:`~repro.llm.model.ChatModel.complete_batch` call.  The backend
    owns the memo of its model calls, so descriptions are featurized
    once per backend and the views are dropped with it.  A pair's logit
    has the same bits in any micro-batch, so the engine may cut the
    batches any way it likes.
    """

    model: ChatModel
    name: str = field(init=False)
    #: per-description feature views of this backend's model calls.
    memo: FeatureMemo = field(
        init=False, default_factory=FeatureMemo, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.name = f"local:{self.model.name}"

    def generate(self, prompts: list[str]) -> list[str]:
        try:
            return self.model.complete_batch(prompts, self.memo)
        except BackendError:
            raise
        # repro-lint: disable=broad-except — transport boundary: any model
        # failure (e.g. ValueError on a malformed prompt) must surface as
        # BackendError for the retry policy to see, like the other backends.
        except Exception as exc:
            raise BackendError(f"{self.name}: {exc}") from exc


@dataclass
class BatchAPIBackend:
    """The asynchronous batch-API path (hosted models).

    Each engine micro-batch becomes one provider batch job which is polled
    to completion.  Responses are re-ordered by ``custom_id``; per-request
    provider errors become empty completions (see module docstring).
    """

    api: BatchAPI
    model_name: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"batch-api:{self.model_name}"

    @classmethod
    def for_model(cls, model: ChatModel) -> "BatchAPIBackend":
        api = BatchAPI()
        registered = api.register_model(model)
        return cls(api=api, model_name=registered)

    def generate(self, prompts: list[str]) -> list[str]:
        requests = [
            BatchRequest(custom_id=f"req-{i}", prompt=prompt)
            for i, prompt in enumerate(prompts)
        ]
        try:
            job = self.api.submit(self.model_name, requests)
            responses = self.api.run_to_completion(job.job_id)
        except BackendError:
            raise
        # repro-lint: disable=broad-except — transport boundary: any batch-API
        # failure must surface as BackendError for the retry policy to see.
        except Exception as exc:
            raise BackendError(f"{self.name}: {exc}") from exc
        # Re-order by custom_id with an explicit missing-key check: a bare
        # ``by_id[...]`` here could leak KeyError across the Backend
        # boundary, which the engine's typed handlers would not catch.
        by_id = {r.custom_id: r for r in responses}
        out: list[str] = []
        for i in range(len(prompts)):
            response = by_id.get(f"req-{i}")
            if response is None:
                raise BackendError(
                    f"{self.name}: incomplete batch response (missing req-{i})"
                )
            out.append(response.content or "")
        return out


def make_backend(model: ChatModel | str) -> Backend:
    """Build the paper-faithful backend for a model (or persona name).

    Open-source personas go through :class:`LocalBackend` (the Transformers
    path); hosted personas go through :class:`BatchAPIBackend` (the OpenAI
    batch path) — the same routing the paper's experiments use.
    """
    if isinstance(model, str):
        model = build_model(model)
    if model.persona.kind == "open-source":
        return LocalBackend(model)
    return BatchAPIBackend.for_model(model)
