"""OpenAI-style asynchronous batch API (simulated).

Requests are submitted as a batch, the job advances through the states
``validating → in_progress → completed``, and responses come back keyed by
``custom_id`` — the same shape as the real batch endpoint the paper used
for the hosted models.  Oversized batches are rejected at validation, and
malformed prompts produce per-request errors instead of failing the job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.llm.features import FeatureMemo
from repro.llm.model import ChatModel

__all__ = [
    "BatchRequest",
    "BatchResponse",
    "BatchJob",
    "BatchAPI",
    "UnknownJobError",
]

#: Maximum number of requests the endpoint accepts per batch (the real
#: endpoint caps at 50,000).
MAX_BATCH_SIZE = 50_000


class UnknownJobError(KeyError):
    """A job id the endpoint has never issued (or from another endpoint)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown batch job {self.job_id!r}: this endpoint never issued it"


@dataclass(frozen=True)
class BatchRequest:
    """One chat completion request inside a batch."""

    custom_id: str
    prompt: str
    temperature: float = 0.0


@dataclass(frozen=True)
class BatchResponse:
    """The completion (or error) for one request."""

    custom_id: str
    content: str | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchJob:
    """A submitted batch moving through the provider's state machine."""

    job_id: str
    model_name: str
    requests: list[BatchRequest]
    status: str = "validating"
    responses: list[BatchResponse] = field(default_factory=list)
    error: str | None = None

    @property
    def counts(self) -> dict[str, int]:
        done = len(self.responses)
        failed = sum(1 for r in self.responses if not r.ok)
        return {"total": len(self.requests), "completed": done, "failed": failed}


class BatchAPI:
    """Simulated provider endpoint for batched chat completions."""

    def __init__(self) -> None:
        self._jobs: dict[str, BatchJob] = {}
        self._models: dict[str, ChatModel] = {}
        self._ids = itertools.count(1)
        #: per-description feature views, dropped with the endpoint.
        self._memo = FeatureMemo()

    def register_model(self, model: ChatModel, name: str | None = None) -> str:
        """Make a model (zero-shot or fine-tuned) addressable by name."""
        name = name or f"{model.name}:{model.training_set}"
        self._models[name] = model
        return name

    def submit(self, model_name: str, requests: list[BatchRequest]) -> BatchJob:
        """Submit a batch; returns the job in ``validating`` state."""
        job = BatchJob(
            job_id=f"batch-{next(self._ids)}",
            model_name=model_name,
            requests=list(requests),
        )
        self._jobs[job.job_id] = job
        if model_name not in self._models:
            job.status = "failed"
            job.error = f"unknown model {model_name!r}"
        elif len(requests) > MAX_BATCH_SIZE:
            job.status = "failed"
            job.error = f"batch exceeds {MAX_BATCH_SIZE} requests"
        elif len({r.custom_id for r in requests}) != len(requests):
            job.status = "failed"
            job.error = "duplicate custom_id in batch"
        return job

    def _job(self, job_id: str) -> BatchJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def poll(self, job_id: str) -> BatchJob:
        """Advance the job one state and return it (validating→…→completed).

        Raises :class:`UnknownJobError` (never a bare ``KeyError``) for a
        job id this endpoint did not issue.
        """
        job = self._job(job_id)
        if job.status == "validating":
            job.status = "in_progress"
        elif job.status == "in_progress":
            self._execute(job)
            job.status = "completed"
        return job

    def run_to_completion(self, job_id: str) -> list[BatchResponse]:
        """Poll until terminal and return the responses.

        Raises :class:`UnknownJobError` for an id this endpoint never
        issued, and ``RuntimeError`` when the job ends in ``failed``.
        """
        job = self._job(job_id)
        while job.status not in ("completed", "failed"):
            job = self.poll(job_id)
        if job.status == "failed":
            raise RuntimeError(f"batch {job_id} failed: {job.error}")
        return job.responses

    def _execute(self, job: BatchJob) -> None:
        """Answer the job with one model call.

        Only when that call raises (a malformed prompt) is the job asked
        again request by request, so each malformed prompt gets its own
        error and the others their completions, in order.
        """
        model = self._models[job.model_name]
        prompts = [request.prompt for request in job.requests]
        try:
            answers = [
                (content, None)
                for content in model.complete_batch(prompts, self._memo)
            ]
        except ValueError:
            answers = [self._complete_one(model, prompt) for prompt in prompts]
        job.responses.extend(
            BatchResponse(custom_id=request.custom_id, content=content, error=error)
            for request, (content, error) in zip(job.requests, answers)
        )

    def _complete_one(
        self, model: ChatModel, prompt: str
    ) -> "tuple[str | None, str | None]":
        """(completion, None), or (None, error) for a malformed prompt."""
        try:
            return model.complete_batch([prompt], self._memo)[0], None
        except ValueError as exc:
            return None, str(exc)
