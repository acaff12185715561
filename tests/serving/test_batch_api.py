"""Tests for the simulated batch API."""

import pytest

from repro.llm.model import ChatModel, build_model
from repro.prompts.templates import COMPLEX_FORCE
from repro.serving.batch_api import BatchAPI, BatchRequest, UnknownJobError


@pytest.fixture
def api():
    api = BatchAPI()
    api.register_model(build_model("gpt-4o-mini"), name="gpt-4o-mini")
    return api


def _requests(product_split, n=5):
    return [
        BatchRequest(
            custom_id=f"req-{i}",
            prompt=COMPLEX_FORCE.render(p.left.description, p.right.description),
        )
        for i, p in enumerate(product_split.pairs[:n])
    ]


class TestBatchAPI:
    def test_state_machine(self, api, product_split):
        job = api.submit("gpt-4o-mini", _requests(product_split))
        assert job.status == "validating"
        job = api.poll(job.job_id)
        assert job.status == "in_progress"
        job = api.poll(job.job_id)
        assert job.status == "completed"
        assert job.counts["completed"] == 5

    def test_run_to_completion(self, api, product_split):
        job = api.submit("gpt-4o-mini", _requests(product_split))
        responses = api.run_to_completion(job.job_id)
        assert len(responses) == 5
        assert all(r.ok for r in responses)
        assert all(r.content for r in responses)

    def test_unknown_model_fails_validation(self, api, product_split):
        job = api.submit("gpt-9", _requests(product_split))
        assert job.status == "failed"
        assert "unknown model" in job.error

    def test_duplicate_custom_id_rejected(self, api, product_split):
        requests = _requests(product_split)
        requests.append(requests[0])
        job = api.submit("gpt-4o-mini", requests)
        assert job.status == "failed"

    def test_malformed_prompt_is_per_request_error(self, api):
        job = api.submit(
            "gpt-4o-mini",
            [BatchRequest(custom_id="bad", prompt="not a matching prompt")],
        )
        responses = api.run_to_completion(job.job_id)
        assert not responses[0].ok
        assert responses[0].content is None

    def test_failed_job_raises_on_completion(self, api):
        job = api.submit("gpt-9", [])
        with pytest.raises(RuntimeError, match="failed"):
            api.run_to_completion(job.job_id)

    def test_fine_tuned_model_registration(self, api):
        model = build_model("gpt-4o-mini")
        name = api.register_model(model)
        assert name == "gpt-4o-mini:zero-shot"


class TestOneModelCallPerJob:
    """A job is answered by one ``complete_batch`` call unless it fails."""

    @staticmethod
    def _expected(requests):
        """Each request answered on its own: a completion or its error."""
        model = build_model("gpt-4o-mini")
        expected = []
        for request in requests:
            try:
                expected.append((request.custom_id, model.complete(request.prompt), None))
            except ValueError as exc:
                expected.append((request.custom_id, None, str(exc)))
        return expected

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        original = ChatModel.complete_batch

        def spy(model, prompts, memo=None):
            calls.append(list(prompts))
            return original(model, prompts, memo)

        monkeypatch.setattr(ChatModel, "complete_batch", spy)
        return calls

    def test_an_all_valid_job_makes_one_model_call(
        self, api, product_split, monkeypatch
    ):
        requests = _requests(product_split, n=8)
        expected = self._expected(requests)
        calls = self._spy(monkeypatch)
        responses = api.run_to_completion(
            api.submit("gpt-4o-mini", requests).job_id
        )
        assert calls == [[r.prompt for r in requests]]
        assert [(r.custom_id, r.content, r.error) for r in responses] == expected

    def test_a_malformed_prompt_still_gets_its_own_error(
        self, api, product_split, monkeypatch
    ):
        requests = _requests(product_split, n=4)
        requests.insert(2, BatchRequest(custom_id="bad", prompt="malformed"))
        expected = self._expected(requests)
        calls = self._spy(monkeypatch)
        responses = api.run_to_completion(
            api.submit("gpt-4o-mini", requests).job_id
        )
        assert [(r.custom_id, r.content, r.error) for r in responses] == expected
        assert [r.ok for r in responses] == [True, True, False, True, True]
        # The job's call raised; each request is then asked on its own.
        assert calls == [[r.prompt for r in requests]] + [
            [r.prompt] for r in requests
        ]


class TestUnknownJob:
    """Foreign job ids raise a structured error, never a bare KeyError."""

    def test_poll_unknown_id(self, api):
        with pytest.raises(UnknownJobError) as exc_info:
            api.poll("batch-999")
        assert exc_info.value.job_id == "batch-999"
        assert "never issued" in str(exc_info.value)
        assert "batch-999" in str(exc_info.value)

    def test_run_to_completion_unknown_id(self, api):
        with pytest.raises(UnknownJobError, match="never issued"):
            api.run_to_completion("nope")

    def test_still_catchable_as_keyerror(self, api):
        # Callers written against the old contract keep working.
        with pytest.raises(KeyError):
            api.poll("batch-999")

    def test_ids_are_per_endpoint(self, api, product_split):
        job = api.submit("gpt-4o-mini", _requests(product_split))
        other = BatchAPI()
        with pytest.raises(UnknownJobError):
            other.poll(job.job_id)


class TestBatchCounts:
    def test_counts_track_failures(self, api):
        job = api.submit(
            "gpt-4o-mini",
            [
                BatchRequest(custom_id="good",
                             prompt='q\nEntity 1: a\nEntity 2: b'),
                BatchRequest(custom_id="bad", prompt="malformed"),
            ],
        )
        api.run_to_completion(job.job_id)
        assert job.counts == {"total": 2, "completed": 2, "failed": 1}

    def test_counts_before_execution_show_pending_work(self, api, product_split):
        job = api.submit("gpt-4o-mini", _requests(product_split, n=3))
        assert job.counts == {"total": 3, "completed": 0, "failed": 0}
        api.poll(job.job_id)  # validating → in_progress: still nothing done
        assert job.counts == {"total": 3, "completed": 0, "failed": 0}
        api.poll(job.job_id)  # in_progress → completed
        assert job.counts == {"total": 3, "completed": 3, "failed": 0}

    def test_counts_with_every_request_failing(self, api):
        job = api.submit(
            "gpt-4o-mini",
            [
                BatchRequest(custom_id="bad-1", prompt="x"),
                BatchRequest(custom_id="bad-2", prompt="y"),
            ],
        )
        responses = api.run_to_completion(job.job_id)
        assert all(not r.ok for r in responses)
        # "completed" counts processed requests; per-request errors land
        # in "failed" without failing the job itself.
        assert job.status == "completed"
        assert job.counts == {"total": 2, "completed": 2, "failed": 2}
