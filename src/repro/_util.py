"""Shared utilities: stable hashing, seeded RNG derivation, small helpers.

Everything in the library derives randomness from explicit seeds via
:func:`derive_rng` so that every experiment is bit-reproducible across
processes and platforms (Python's built-in ``hash`` is salted per process
and is therefore never used for anything that feeds randomness).
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "stable_hash",
    "stable_unit_floats",
    "derive_rng",
    "derive_seed",
    "pick",
    "tokenize_simple",
    "extract_numbers",
    "clamp",
]

_T = TypeVar("_T")

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[./-][a-z0-9]+)*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")


def stable_hash(*parts: object) -> int:
    """Return a 64-bit stable hash of the string representations of *parts*.

    Deterministic across processes and platforms (unlike built-in ``hash``).
    """
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def stable_unit_floats(n: int, *parts: object) -> np.ndarray:
    """Return *n* floats in [0, 1) derived deterministically from *parts*."""
    rng = np.random.default_rng(stable_hash(*parts))
    return rng.random(n)


def derive_seed(base_seed: int, *parts: object) -> int:
    """Derive a child seed from *base_seed* and a namespace path."""
    return stable_hash(base_seed, *parts) & 0x7FFFFFFF


def derive_rng(base_seed: int, *parts: object) -> np.random.Generator:
    """Return a generator seeded from *base_seed* namespaced by *parts*.

    Independent namespaces yield statistically independent streams, so code
    that adds a new consumer does not perturb existing ones.
    """
    return np.random.default_rng(derive_seed(base_seed, *parts))


def pick(rng: np.random.Generator, options: Sequence[_T]) -> _T:
    """Return one element of *options*, drawn as ``rng.choice(options)`` draws it.

    ``Generator.choice`` without ``p`` or ``size`` makes one
    ``integers(0, len(options))`` draw and indexes with it, so this gives
    the same element and leaves *rng* in the same state, without first
    turning the sequence into a numpy array (the bulk of ``choice``'s cost
    on a short list).  The element comes back as it is in *options*, not as
    a numpy scalar.  Empty *options* raise ``ValueError``, as ``choice``
    does.
    """
    return options[int(rng.integers(0, len(options)))]


def tokenize_simple(text: str) -> list[str]:
    """Lower-case word/number tokens; joins like ``pg-730`` stay together."""
    return _TOKEN_RE.findall(text.lower())


def extract_numbers(text: str) -> list[str]:
    """All numeric substrings (integers and decimals) in *text*."""
    return _NUMBER_RE.findall(text)


def clamp(value: float, low: float = 0.0, high: float = 1.0) -> float:
    """Clamp *value* into ``[low, high]``."""
    return max(low, min(high, value))


def dedupe_preserving_order(items: Iterable[str]) -> list[str]:
    """Remove duplicates while keeping first-seen order."""
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out
