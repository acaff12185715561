"""Building matching prompts and parsing entity descriptions back out.

The chat interface of the simulated models works on plain prompt strings,
so the model needs to recover the two entity descriptions (and recognize
the question wording) from the prompt text — mirroring how a real LLM reads
the serialized pair out of the prompt.
"""

from __future__ import annotations

import re

from repro.datasets.schema import EntityPair
from repro.prompts.templates import (
    DEFAULT_PROMPT,
    PROMPTS,
    PromptTemplate,
    unescape_description,
)

__all__ = ["build_matching_prompt", "extract_entities", "identify_prompt"]

# The captures keep the exact surface form (including leading/trailing
# whitespace inside a description): everything the model "perceives" —
# observation noise, hedging — is keyed on the description string, so a
# lossy round-trip would make the chat path disagree with the vectorized
# path on records whose serialization ends in whitespace.  Rendered
# descriptions are newline-escaped (see ``escape_description``), which
# makes the ``\nEntity 2:`` separator unambiguous even for descriptions
# that themselves contain ``Entity 1:``/``Entity 2:``-shaped payloads.
_ENTITY_RE = re.compile(
    r"Entity 1: ?(?P<left>.*?)\nEntity 2: ?(?P<right>.*?)\n?$",
    re.DOTALL,
)


def build_matching_prompt(
    pair: EntityPair, template: PromptTemplate = DEFAULT_PROMPT
) -> str:
    """Render the matching prompt for one candidate pair."""
    return template.render(pair.left.description, pair.right.description)


def extract_entities(prompt: str) -> tuple[str, str]:
    """Recover the two entity descriptions from a matching prompt.

    Raises ``ValueError`` when the prompt does not contain the
    ``Entity 1: ... / Entity 2: ...`` block.
    """
    match = _ENTITY_RE.search(prompt)
    if match is None:
        raise ValueError(
            "prompt does not contain 'Entity 1: ...' / 'Entity 2: ...' lines"
        )
    return (
        unescape_description(match.group("left")),
        unescape_description(match.group("right")),
    )


#: a known template by the quoted question line it renders first.
_BY_QUESTION_LINE = {f'"{t.question}"': t for t in PROMPTS.values()}


def identify_prompt(prompt: str) -> PromptTemplate | None:
    """Identify which known template a prompt was rendered from.

    Only the prompt's first line, the quoted question, is compared, and
    it must equal a known template's exactly: a description that quotes
    a template's question does not change which template the prompt
    was rendered from.  Returns None for custom wordings (their bias is
    then derived from the raw question text instead of a template name).
    """
    return _BY_QUESTION_LINE.get(prompt.partition("\n")[0])
