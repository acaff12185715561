"""Engine- and evaluation-hygiene rules.

The serving engine is the layer every future performance PR touches, so
its failure handling gets the strictest checks: no bare excepts anywhere,
no over-broad catches inside ``repro/engine`` without a justified
suppression, and degraded (fallback) answers must never poison the result
cache — a cached fallback would keep answering for the pair after the
backend recovers, which is exactly the kind of silent skew the paper's
numbers cannot absorb.  Metric code additionally must not compare floats
with ``==``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule

__all__ = []

_ENGINE_SCOPE = "repro/engine"
_EVAL_SCOPE = "repro/eval"
#: packages whose time handling must flow through injectable seams: the
#: engine (retry backoff, breaker cooldowns), the fault injectors (simulated
#: timeouts), serving (batch polling), and the gateway (queue deadlines,
#: load replay) are all driven on simulated clocks by tests and the
#: chaos harnesses.
_CLOCK_SCOPES = ("repro/engine", "repro/faults", "repro/serving", "repro/serve")


@rule(
    "untyped-except",
    family="engine-hygiene",
    scope="file",
    description="bare `except:` clauses",
)
def check_untyped_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield ctx.finding(
                "untyped-except", "error", node,
                "bare `except:` catches everything, including "
                "KeyboardInterrupt and SystemExit",
                hint="name the exception types this handler expects",
            )


def _is_broad(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in ("Exception", "BaseException")
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(element) for element in expr.elts)
    return False


@rule(
    "broad-except",
    family="engine-hygiene",
    scope="file",
    description="`except Exception` inside repro/engine needs a justified "
    "suppression",
)
def check_broad_except(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_package(_ENGINE_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and _is_broad(node.type)
        ):
            yield ctx.finding(
                "broad-except", "warning", node,
                "over-broad except in engine code can swallow programming "
                "errors as transient backend failures",
                hint="catch the specific transport exceptions, or suppress "
                "with a comment justifying the translation boundary",
            )


@rule(
    "fallback-cache",
    family="engine-hygiene",
    scope="file",
    description="fallback answers must not be written to the result cache",
)
def check_fallback_cache(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_package(_ENGINE_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "put"):
            continue
        try:
            receiver = ast.unparse(func.value)
        except Exception:  # pragma: no cover - unparse failures are cosmetic
            receiver = ""
        if "cache" not in receiver.lower():
            continue
        enclosing = ctx.enclosing_function(node)
        if enclosing is not None and "fallback" in enclosing.name.lower():
            yield ctx.finding(
                "fallback-cache", "error", node,
                f"{receiver}.put() inside {enclosing.name}(): a cached "
                "fallback answer keeps masking the backend after it recovers",
                hint="return fallback results without caching them",
            )


@rule(
    "injectable-sleep",
    family="engine-hygiene",
    scope="file",
    description="ambient time calls (time.sleep/time.time, asyncio.sleep, "
    "loop.time) in clock-injectable packages (engine, faults, serving, "
    "serve)",
)
def check_injectable_sleep(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_package(*_CLOCK_SCOPES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr in ("sleep", "time")
        ):
            # Referencing time.sleep/time.monotonic as a *default* for an
            # injectable parameter is the approved seam; only direct calls
            # are flagged (a default is a reference, never a Call node).
            yield ctx.finding(
                "injectable-sleep", "error", node,
                f"time.{func.attr}() call bypasses the injectable clock "
                "seam, so chaos/timeout tests cannot simulate it",
                hint="accept clock/sleep callables (defaulting to "
                "time.monotonic / time.sleep) and call those instead",
            )
        elif (
            isinstance(func.value, ast.Name)
            and func.value.id == "asyncio"
            and func.attr == "sleep"
            and not _is_zero_literal(node)
        ):
            # asyncio.sleep(0) is a pure scheduler yield — it suspends for
            # exactly one loop pass regardless of any clock, so it stays
            # legal; every nonzero duration must go through the seam.
            yield ctx.finding(
                "injectable-sleep", "error", node,
                "ambient asyncio.sleep() waits on wall-clock time that "
                "simulated-time tests cannot advance",
                hint="accept a sleep_async callable (defaulting to "
                "asyncio.sleep) or use ManualClock.sleep_async",
            )
        elif func.attr == "time" and _is_event_loop(func.value):
            yield ctx.finding(
                "injectable-sleep", "error", node,
                "event-loop .time() reads the loop's wall clock, bypassing "
                "the injectable clock seam",
                hint="read timestamps from the injected clock callable "
                "instead of the event loop",
            )


def _is_zero_literal(call: ast.Call) -> bool:
    """True for ``asyncio.sleep(0)`` / ``asyncio.sleep(0.0)``."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return isinstance(arg, ast.Constant) and arg.value == 0


def _is_event_loop(expr: ast.expr) -> bool:
    """Match ``loop``-named receivers and direct asyncio loop accessors."""
    if isinstance(expr, ast.Name):
        return "loop" in expr.id.lower()
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return (
            isinstance(expr.func.value, ast.Name)
            and expr.func.value.id == "asyncio"
            and expr.func.attr in ("get_running_loop", "get_event_loop")
        )
    return False


@rule(
    "float-eq",
    family="engine-hygiene",
    scope="file",
    description="float literal ==/!= comparisons in metric code",
)
def check_float_eq(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_package(_EVAL_SCOPE):
        return

    def is_float_literal(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and isinstance(expr.value, float)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if is_float_literal(lhs) or is_float_literal(rhs):
                yield ctx.finding(
                    "float-eq", "error", node,
                    "exact ==/!= against a float literal is "
                    "rounding-fragile in metric code",
                    hint="compare with a tolerance (math.isclose) or "
                    "restructure to integer counts",
                )
                break
