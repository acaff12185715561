"""Persona routing: request names a model persona, router owns the engines.

The provider→model routing idiom (one named route per capability
profile, resolved before any work is queued): a request carries a
persona name — a canonical name from
:data:`repro.llm.registry.PERSONAS`, a paper alias, or ``"default"`` —
and the router resolves it to the one
:class:`~repro.engine.MatchingEngine` serving that persona, building it
lazily on first use via :meth:`MatchingEngine.for_model`.

Unknown names raise :class:`UnknownPersonaError`, which the gateway
turns into a structured 404-style response (and the CLI into a one-line
``unknown persona: ...`` exit) — never a traceback.

The engine factory is injectable so tests and chaos runs route to
deterministic engines over fake or fault-injected backends without
building any model.
"""

from __future__ import annotations

import threading
from typing import Annotated, Callable, Iterable

from repro.concurrency import guarded_by
from repro.engine.engine import MatchingEngine
from repro.llm.registry import MODEL_NAMES, get_persona
from repro.serve.protocol import DEFAULT_PERSONA

__all__ = ["PersonaRouter", "UnknownPersonaError"]


class UnknownPersonaError(ValueError):
    """A request named a persona the router does not serve (404-style)."""

    def __init__(self, name: str, choices: Iterable[str]) -> None:
        self.persona = name
        self.choices = tuple(choices)
        super().__init__(
            f"unknown persona: {name} (choose from "
            f"{', '.join(self.choices)})"
        )


class PersonaRouter:
    """Resolve persona names to (lazily built) matching engines."""

    #: canonical persona → built engine (one engine per persona).
    _engines: Annotated["dict[str, MatchingEngine]", guarded_by("_lock")]

    def __init__(
        self,
        default: str = "llama-3.1-8b",
        personas: Iterable[str] | None = None,
        engine_factory: Callable[[str], MatchingEngine] | None = None,
    ) -> None:
        """Serve *personas* (default: every registered persona).

        *engine_factory(name)* builds the engine for one canonical
        persona; the default is the paper-faithful
        ``MatchingEngine.for_model`` path.  Each engine's knobs, its
        ``batch_size`` among them, are the factory's: the gateway cuts a
        persona's chunks at its engine's ``batch_size``.
        """
        allowed = tuple(personas) if personas is not None else MODEL_NAMES
        self._allowed = tuple(get_persona(name).name for name in allowed)
        self._default = get_persona(default).name
        if self._default not in self._allowed:
            raise ValueError(
                f"default persona {default!r} is not among the served "
                f"personas {', '.join(self._allowed)}"
            )
        self._factory = engine_factory or MatchingEngine.for_model
        self._engines = {}
        self._lock = threading.Lock()

    @property
    def personas(self) -> tuple[str, ...]:
        """Canonical names this router serves."""
        return self._allowed

    @property
    def default(self) -> str:
        return self._default

    def resolve(self, name: str) -> str:
        """Canonical persona for *name* (alias-aware); 404 on unknown."""
        if not name or name == DEFAULT_PERSONA:
            return self._default
        try:
            persona = get_persona(name).name
        except ValueError:
            raise UnknownPersonaError(
                name, (DEFAULT_PERSONA, *self._allowed)
            ) from None
        if persona not in self._allowed:
            raise UnknownPersonaError(name, (DEFAULT_PERSONA, *self._allowed))
        return persona

    def engine(self, name: str) -> MatchingEngine:
        """The engine serving *name*, built on first use."""
        persona = self.resolve(name)
        with self._lock:
            engine = self._engines.get(persona)
            if engine is None:
                engine = self._factory(persona)
                self._engines[persona] = engine
            return engine

    def engines(self) -> "dict[str, MatchingEngine]":
        """Engines built so far (for stats reconciliation and shutdown)."""
        with self._lock:
            return dict(self._engines)
