"""Tests for prompt building and entity extraction."""

import pytest

from repro.prompts.builder import build_matching_prompt, extract_entities, identify_prompt
from repro.prompts.templates import (
    COMPLEX_FORCE,
    DEFAULT_PROMPT,
    PROMPTS,
    SIMPLE_FORCE,
    PromptTemplate,
    escape_description,
    unescape_description,
)


class TestExtractEntities:
    def test_roundtrip(self):
        prompt = DEFAULT_PROMPT.render("Jabra Evolve 80", "jabra evolve-80 stereo")
        left, right = extract_entities(prompt)
        assert left == "Jabra Evolve 80"
        assert right == "jabra evolve-80 stereo"

    def test_multiline_right_description(self):
        prompt = 'q\nEntity 1: alpha\nEntity 2: beta gamma'
        assert extract_entities(prompt) == ("alpha", "beta gamma")

    def test_missing_block_raises(self):
        with pytest.raises(ValueError):
            extract_entities("no entities here")

    @pytest.mark.parametrize(
        ("left", "right"),
        [
            ("trailing space ", "plain"),
            (" leading", "  double lead"),
            ("line one\nline two", "plain"),
            ("plain", "ends with newline\n"),
            ("left\nEntity 2: decoy", "real right"),
            ("Entity 1: payload", "Entity 2: payload"),
            ("back\\slash", "literal \\n sequence"),
            ("", ""),
        ],
    )
    def test_adversarial_roundtrip_is_exact(self, left, right):
        """render → extract must be lossless for every template (the
        prompt-roundtrip lint rule checks the same contract)."""
        for template in PROMPTS.values():
            assert extract_entities(template.render(left, right)) == (left, right)


class TestEscapeDescription:
    @pytest.mark.parametrize(
        "text",
        ["plain", "a\nb", "a\\nb", "a\\\\nb", "ends\\", "\n", "", "a\\\nb"],
    )
    def test_unescape_inverts_escape(self, text):
        assert unescape_description(escape_description(text)) == text

    def test_plain_text_renders_unchanged(self):
        assert escape_description("Jabra Evolve 80 ") == "Jabra Evolve 80 "

    def test_newline_becomes_two_characters(self):
        assert escape_description("a\nb") == "a\\nb"


class TestIdentifyPrompt:
    def test_known_templates_identified(self):
        prompt = SIMPLE_FORCE.render("a", "b")
        assert identify_prompt(prompt) is SIMPLE_FORCE

    def test_unknown_returns_none(self):
        assert identify_prompt('"Some custom question?"\nEntity 1: a\nEntity 2: b') is None

    @pytest.mark.parametrize("template", list(PROMPTS.values()), ids=list(PROMPTS))
    @pytest.mark.parametrize("quoted", list(PROMPTS.values()), ids=list(PROMPTS))
    def test_a_description_quoting_a_question_changes_nothing(
        self, template, quoted
    ):
        prompt = template.render("Sony camera " + quoted.question, "Sony camera")
        assert identify_prompt(prompt) is template
        prompt = template.render("Sony camera", f'"{quoted.question}"')
        assert identify_prompt(prompt) is template

    def test_the_model_answers_the_rendered_template(self):
        # The default prompt is free, so the zero-shot answer is verbose;
        # identified as the longer, forced complex-force question quoted
        # in the description it was a bare "No.".
        from repro.llm.model import build_model

        prompt = DEFAULT_PROMPT.render(
            "Sony camera " + COMPLEX_FORCE.question, "Sony camera"
        )
        answer = build_model("llama-3.1-8b").complete(prompt)
        assert answer not in ("Yes.", "No.")

    def test_a_custom_question_containing_a_known_one_is_custom(self):
        custom = PromptTemplate(
            name="custom",
            question="Context first. " + SIMPLE_FORCE.question,
            forced=False,
        )
        assert identify_prompt(custom.render("a", "b")) is None


class TestBuildMatchingPrompt:
    def test_uses_pair_descriptions(self, product_split):
        pair = product_split.pairs[0]
        prompt = build_matching_prompt(pair)
        assert pair.left.description in prompt
        assert pair.right.description in prompt
