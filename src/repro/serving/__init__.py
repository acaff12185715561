"""Serving substrate: the hosted inference/fine-tuning paths of the paper.

The paper prompts hosted models through the **OpenAI batch API** and local
models through **Hugging Face Transformers**; hosted fine-tuning goes
through a job-based API that only exposes the final checkpoint plus two
intermediate ones.  This package simulates the hosted interfaces so
experiment code exercises the same control flow (job submission, polling,
partial checkpoint visibility) a user of the real systems would.  The
local path needs no such simulation: it is
:class:`~repro.engine.backends.LocalBackend`, which calls the model
in-process.
"""

from repro.serving.batch_api import BatchAPI, BatchJob, BatchRequest, BatchResponse
from repro.serving.finetune_api import FineTuneAPI, FineTuneJob

__all__ = [
    "BatchAPI",
    "BatchJob",
    "BatchRequest",
    "BatchResponse",
    "FineTuneAPI",
    "FineTuneJob",
]
