"""Async-aware whole-program analysis: the thread↔loop boundary, checked.

``repro.serve`` made the reproduction an asyncio service whose
correctness rests on invariants the earlier ``--deep`` analyses stop
short of: coroutines must never block the event loop, futures created on
the loop may only be completed through ``call_soon_threadsafe`` from
worker threads, and fields shared between dispatch threads and
coroutines need an explicit happens-before edge.  This module extends
the symbol table / call graph with async metadata and runs three
analyses over it:

**Context classification** (the lattice ``unknown < loop, thread <
both``): coroutine defs and ``call_soon_threadsafe`` callbacks seed
*loop*; ``threading.Thread(target=...)`` targets and callables handed to
``run_in_executor`` / ``asyncio.to_thread`` / ``Executor.submit`` seed
*thread*; the classification of a *sync* function is the join of its
callers' contexts, propagated over resolved call edges to a fixpoint.
Coroutines never leave *loop* — their bodies always run on the owning
event loop, wherever they were created.

**Loop-blocking**: inside every coroutine, any call that transitively
blocks — ``time.sleep``, file I/O, un-awaited ``wait``/``join``/
``acquire``, blocking ``queue.Queue`` operations, or any path reaching a
Protocol-declared I/O method (the sync engine dispatch) — is flagged
unless the work hops to a thread via an executor.  Findings carry the
same provenance chains as the taint analysis: the call site in the
coroutine, the helper hops, and the intrinsic blocker at the end.
Acquiring a *slow* lock (one some other holder blocks under, per
:class:`~repro.lint.locks.LockAnalysis`) is also flagged — a fast
bounded critical section is fine on the loop, a lock held across backend
I/O is not.

**Future discipline**: a future born on the loop (``loop.create_future``
/ ``asyncio.Future()``-typed values) may only be completed
(``set_result`` / ``set_exception``) from loop context; thread-classified
code must route completion through ``call_soon_threadsafe``.  Coroutine
objects must be awaited or handed to a tracking call
(``ensure_future``, ``create_task``, ``gather``, ...) — a discarded or
never-awaited coroutine is dead code that looks like work.

**Thread↔loop happens-before**: a field mutated from thread context and
accessed from loop context (or vice versa) needs a ``guarded_by``
declaration (held-ness is then enforced by ``deep-lock-field``) or a
``call_soon_threadsafe`` hand-off — accesses inside registered
``call_soon_threadsafe`` callbacks are exempt, because the edge itself
establishes the ordering.  Construction (``__init__``/``__post_init__``)
is exempt: it happens-before publication.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import CallGraph, CallSite, _Resolver
from repro.lint.locks import LockAnalysis
from repro.lint.symbols import FunctionSymbol, SymbolTable

__all__ = [
    "LOOP",
    "THREAD",
    "BOTH",
    "AsyncFlowAnalysis",
    "BlockingFinding",
    "FutureViolation",
    "UnawaitedCoroutine",
    "RaceFinding",
]

LOOP = "loop"
THREAD = "thread"
BOTH = "both"

#: asyncio callables a coroutine object may be handed to and count as
#: tracked (awaited-or-scheduled).
_TASK_FUNCS = frozenset(
    {
        "ensure_future", "create_task", "gather", "wait", "wait_for",
        "shield", "run", "run_until_complete", "run_coroutine_threadsafe",
        "as_completed",
    }
)

#: attribute-call names that block the calling thread when not awaited.
_BLOCKING_ATTRS = frozenset({"sleep", "wait", "wait_for", "join", "acquire"})

#: attribute-call names that are synchronous file/OS I/O.
_BLOCKING_IO_ATTRS = frozenset(
    {"read_text", "write_text", "readlines", "flush", "fsync"}
)

#: container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "pop", "popleft",
        "popitem", "remove", "clear", "add", "discard", "update",
        "setdefault", "put", "put_nowait", "sort", "reverse", "move_to_end",
    }
)

#: construction-time methods exempt from happens-before checks.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass
class BlockingFinding:
    """One transitively-blocking call inside a coroutine."""

    fn: str
    relpath: str
    line: int
    #: what blocks, with the provenance chain down to the intrinsic cause.
    reason: str


@dataclass
class FutureViolation:
    """A loop-owned future completed from thread-classified context."""

    fn: str
    relpath: str
    line: int
    #: "set_result" | "set_exception"
    method: str
    receiver: str
    context: str


@dataclass
class UnawaitedCoroutine:
    """A coroutine object that is neither awaited nor handed to a task."""

    fn: str
    relpath: str
    line: int
    callee: str
    #: "discarded" (bare expression) | "never-awaited" (dead assignment)
    how: str


@dataclass
class _Access:
    fn: str
    relpath: str
    line: int
    context: str
    #: "read" | "write"
    kind: str
    #: access happens inside a call_soon_threadsafe callback.
    via_cst: bool


@dataclass
class RaceFinding:
    """A field shared across the thread↔loop boundary without ordering."""

    cls: str
    field_name: str
    write: _Access
    other: _Access


@dataclass
class _BlockSummary:
    """Why one function may block the thread running it, or None."""

    reason: str | None = None


class AsyncFlowAnalysis:
    """Async metadata + the three thread↔loop analyses, computed once."""

    def __init__(
        self, table: SymbolTable, graph: CallGraph, locks: LockAnalysis
    ) -> None:
        self.table = table
        self.graph = graph
        self.locks = locks
        #: function qualname → "loop" | "thread" | "both".
        self.context: dict[str, str] = {}
        #: callback qualnames registered via call_soon(_threadsafe).
        self.cst_callbacks: set[str] = set()
        #: thread-root qualnames (Thread targets, executor callables).
        self.thread_roots: set[str] = set()
        #: caller qualname → lines of executor hops seen in it.
        self.executor_hops: dict[str, list[int]] = {}
        #: await expression count per coroutine.
        self.await_sites: dict[str, int] = {}
        #: per-function blocking summaries (sync functions only propagate).
        self.summaries: dict[str, _BlockSummary] = {}
        self.blocking: list[BlockingFinding] = []
        self.future_violations: list[FutureViolation] = []
        self.unawaited: list[UnawaitedCoroutine] = []
        self.races: list[RaceFinding] = []
        #: lock tokens some holder blocks under ("slow" locks).
        self._slow_tokens = {v.held for v in locks.blocking_violations}
        #: resolution accounting for the ``--deep`` summary.
        self._classified_sites = 0
        self._candidate_sites = 0
        self._classified_awaits = 0
        self._total_awaits = 0

        self._parents: dict[str, dict[ast.AST, ast.AST]] = {}
        self._collect_metadata()
        self._classify_contexts()
        self._compute_block_summaries()
        self._check_loop_blocking()
        self._check_future_discipline()
        self._check_races()
        self._account_resolution()

    # ------------------------------------------------------------- utilities

    def _parent_map(self, fn: FunctionSymbol) -> dict[ast.AST, ast.AST]:
        cached = self._parents.get(fn.qualname)
        if cached is None:
            cached = {}
            for parent in ast.walk(fn.node):
                for child in ast.iter_child_nodes(parent):
                    cached[child] = parent
            self._parents[fn.qualname] = cached
        return cached

    def is_coroutine(self, qualname: str) -> bool:
        fn = self.table.functions.get(qualname)
        return fn is not None and fn.is_coroutine

    def _resolve_callback(
        self, fn: FunctionSymbol, expr: ast.expr
    ) -> str | None:
        """Qualname of a function handed somewhere as a first-class value."""
        if isinstance(expr, ast.Lambda):
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and fn.cls is not None
        ):
            found = self.table.lookup_method(fn.cls, expr.attr)
            return found.qualname if found is not None else None
        try:
            text = ast.unparse(expr)
        except Exception:  # pragma: no cover
            return None
        mod = self.table.modules[fn.module]
        qual = self.table.resolve_dotted(mod, text)
        if qual in self.table.functions:
            return qual
        return None

    @staticmethod
    def _callee_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return ""

    # ------------------------------------------------------- async metadata

    def _collect_metadata(self) -> None:
        for qualname, fn in self.table.functions.items():
            if isinstance(fn.node, ast.AsyncFunctionDef):
                self.await_sites[qualname] = sum(
                    isinstance(n, ast.Await) for n in ast.walk(fn.node)
                )
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = self._callee_name(node)
                if name == "Thread":
                    for kw in node.keywords:
                        if kw.arg == "target":
                            target = self._resolve_callback(fn, kw.value)
                            if target is not None:
                                self.thread_roots.add(target)
                elif name in {"call_soon_threadsafe", "call_soon"}:
                    if node.args:
                        cb = self._resolve_callback(fn, node.args[0])
                        if cb is not None:
                            self.cst_callbacks.add(cb)
                elif name in {"run_in_executor", "to_thread", "submit"}:
                    site = self._site_for(fn, node)
                    if site is not None and site.status == "resolved":
                        continue  # a project method that shares the name.
                    arg_idx = 1 if name == "run_in_executor" else 0
                    if len(node.args) > arg_idx:
                        hopped = self._resolve_callback(fn, node.args[arg_idx])
                        if hopped is not None:
                            self.thread_roots.add(hopped)
                    self.executor_hops.setdefault(qualname, []).append(
                        node.lineno
                    )

    def _site_for(self, fn: FunctionSymbol, call: ast.Call) -> CallSite | None:
        for site in self.graph.sites.get(fn.qualname, []):
            if site.node is call:
                return site
        return None

    # -------------------------------------------------------- classification

    def _classify_contexts(self) -> None:
        def join(qualname: str, ctx: str) -> bool:
            if self.is_coroutine(qualname):
                ctx = LOOP  # coroutine bodies always run on the loop.
            cur = self.context.get(qualname)
            new = ctx if cur is None or cur == ctx else BOTH
            if new != cur:
                self.context[qualname] = new
                return True
            return False

        for qualname in self.table.functions:
            if self.is_coroutine(qualname):
                join(qualname, LOOP)
        for qualname in self.cst_callbacks:
            join(qualname, LOOP)
        for qualname in self.thread_roots:
            join(qualname, THREAD)

        # Propagate caller context into resolved *sync* callees.
        for _ in range(len(self.table.functions) + 1):
            changed = False
            for caller, sites in self.graph.sites.items():
                ctx = self.context.get(caller)
                if ctx is None:
                    continue
                for site in sites:
                    if site.status != "resolved":
                        continue
                    for target in site.targets:
                        if self.is_coroutine(target):
                            continue
                        changed |= join(target, ctx)
            if not changed:
                break

    def contexts(self) -> dict[str, int]:
        counts = {LOOP: 0, THREAD: 0, BOTH: 0}
        for ctx in self.context.values():
            counts[ctx] += 1
        return counts

    # --------------------------------------------------- blocking summaries

    def _compute_block_summaries(self) -> None:
        for qualname in self.table.functions:
            self.summaries[qualname] = _BlockSummary()
        for _ in range(10):
            changed = False
            for qualname, fn in self.table.functions.items():
                reason = self._summarize_blocking(fn)
                if reason != self.summaries[qualname].reason:
                    self.summaries[qualname] = _BlockSummary(reason)
                    changed = True
            if not changed:
                break

    def _summarize_blocking(self, fn: FunctionSymbol) -> str | None:
        parents = self._parent_map(fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                reason = self._intrinsic_block(fn, node, parents)
                if reason is not None:
                    return reason
        for site in self.graph.sites.get(fn.qualname, []):
            if site.status != "resolved":
                continue
            if isinstance(parents.get(site.node), ast.Await):
                continue  # awaiting suspends; the callee blocks on its own.
            for target in site.targets:
                if self.is_coroutine(target):
                    continue
                if target in self.locks._protocol_methods:
                    return (
                        f"protocol I/O call {site.callee_text}(...) at "
                        f"{fn.relpath}:{site.line}"
                    )
                summary = self.summaries.get(target)
                if summary is not None and summary.reason is not None:
                    return f"{target} (line {site.line}) -> {summary.reason}"
        return None

    def _intrinsic_block(
        self,
        fn: FunctionSymbol,
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
    ) -> str | None:
        """Why *call* intrinsically blocks, ignoring resolved project calls."""
        site = self._site_for(fn, call)
        if site is not None and site.status == "resolved":
            return None  # project callee: its own summary decides.
        if isinstance(parents.get(call), ast.Await):
            return None  # awaited primitives suspend, they don't block.
        func = call.func
        origin = f"{fn.relpath}:{call.lineno}"
        if isinstance(func, ast.Name):
            if func.id == "open":
                return f"open(...) at {origin}"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr in _BLOCKING_IO_ATTRS:
            try:
                return f"{ast.unparse(func)}(...) file/OS I/O at {origin}"
            except Exception:  # pragma: no cover
                return f"{attr}(...) file/OS I/O at {origin}"
        if attr in _BLOCKING_ATTRS:
            if isinstance(func.value, ast.Constant):
                return None  # " ".join(...) and friends: a str method.
            try:
                text = ast.unparse(func)
            except Exception:  # pragma: no cover
                text = attr
            return f"{text}(...) at {origin}"
        if attr in {"get", "put"} and self._is_queue_receiver(fn, func.value):
            return f"queue.{attr}(...) at {origin}"
        return None

    def _is_queue_receiver(self, fn: FunctionSymbol, recv: ast.expr) -> bool:
        """Whether *recv* names a local constructed as a ``queue.Queue``."""
        if not isinstance(recv, ast.Name):
            return False
        mod = self.table.modules[fn.module]
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == recv.id
                and isinstance(node.value, ast.Call)
            ):
                try:
                    text = ast.unparse(node.value.func)
                except Exception:  # pragma: no cover
                    continue
                target = mod.imports.get(text.split(".")[0], text)
                if "Queue" in text and (
                    target == "queue" or text.split(".")[-1] == "Queue"
                ):
                    return True
        return False

    # ------------------------------------------------------- loop blocking

    def _check_loop_blocking(self) -> None:
        for qualname, fn in self.table.functions.items():
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            parents = self._parent_map(fn)
            resolver = _Resolver(self.graph, fn)
            seen_lines: set[int] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    reason = self._blocking_call_reason(fn, node, parents)
                    if reason is not None and node.lineno not in seen_lines:
                        seen_lines.add(node.lineno)
                        self.blocking.append(
                            BlockingFinding(
                                fn=qualname,
                                relpath=fn.relpath,
                                line=node.lineno,
                                reason=reason,
                            )
                        )
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        held = self.locks._lock_of(item.context_expr, resolver)
                        if held is not None and held.token in self._slow_tokens:
                            self.blocking.append(
                                BlockingFinding(
                                    fn=qualname,
                                    relpath=fn.relpath,
                                    line=item.context_expr.lineno,
                                    reason=(
                                        f"acquires {held.token}, which other "
                                        "holders block under (see "
                                        "deep-lock-blocking)"
                                    ),
                                )
                            )

    def _blocking_call_reason(
        self,
        fn: FunctionSymbol,
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
    ) -> str | None:
        intrinsic = self._intrinsic_block(fn, call, parents)
        if intrinsic is not None:
            return intrinsic
        site = self._site_for(fn, call)
        if site is None or site.status != "resolved":
            return None
        if isinstance(parents.get(call), ast.Await):
            return None
        for target in site.targets:
            if self.is_coroutine(target):
                continue  # findings land inside the coroutine itself.
            if target in self.locks._protocol_methods:
                return (
                    f"protocol I/O call {site.callee_text}(...) at "
                    f"{fn.relpath}:{call.lineno}"
                )
            summary = self.summaries.get(target)
            if summary is not None and summary.reason is not None:
                return f"{target} (line {call.lineno}) -> {summary.reason}"
        return None

    # ---------------------------------------------------- future discipline

    def _future_typed(self, fn: FunctionSymbol, recv: ast.expr) -> bool:
        """Whether *recv* holds an ``asyncio.Future``-shaped value."""
        if isinstance(recv, ast.Name):
            ann = fn.param_annotations.get(recv.id)
            if ann is not None and self._mentions_future(ann):
                return True
            for node in ast.walk(fn.node):
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if node.target.id == recv.id and self._mentions_future(
                        node.annotation
                    ):
                        return True
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == recv.id
                    and isinstance(node.value, ast.Call)
                ):
                    name = self._callee_name(node.value)
                    if name in {"create_future", "Future"}:
                        return True
            return False
        if isinstance(recv, ast.Attribute):
            resolver = _Resolver(self.graph, fn)
            owner = resolver.receiver_type(recv.value)
            if owner is None:
                return False
            cls = self.table.classes.get(owner)
            if cls is None:
                return False
            ann = cls.attr_types.get(recv.attr) or cls.attr_annotations.get(
                recv.attr
            )
            return ann is not None and self._mentions_future(ann)
        return False

    @staticmethod
    def _mentions_future(ann: ast.expr) -> bool:
        try:
            text = ast.unparse(ann)
        except Exception:  # pragma: no cover
            return False
        return "Future" in text

    def _check_future_discipline(self) -> None:
        for qualname, fn in self.table.functions.items():
            ctx = self.context.get(qualname)
            parents = self._parent_map(fn)
            # 1) futures completed from thread-classified contexts.
            if ctx in (THREAD, BOTH) and qualname not in self.cst_callbacks:
                for node in ast.walk(fn.node):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in {"set_result", "set_exception"}
                    ):
                        continue
                    recv = node.func.value
                    if not self._future_typed(fn, recv):
                        continue
                    try:
                        recv_text = ast.unparse(recv)
                    except Exception:  # pragma: no cover
                        recv_text = "<future>"
                    self.future_violations.append(
                        FutureViolation(
                            fn=qualname,
                            relpath=fn.relpath,
                            line=node.lineno,
                            method=node.func.attr,
                            receiver=recv_text,
                            context=ctx,
                        )
                    )
            # 2) coroutine objects that are never awaited or tracked.
            for site in self.graph.sites.get(qualname, []):
                if site.status != "resolved" or not site.targets:
                    continue
                if not all(self.is_coroutine(t) for t in site.targets):
                    continue
                how = self._untracked_how(fn, site.node, parents)
                if how is not None:
                    self.unawaited.append(
                        UnawaitedCoroutine(
                            fn=qualname,
                            relpath=fn.relpath,
                            line=site.line,
                            callee=site.callee_text,
                            how=how,
                        )
                    )

    def _untracked_how(
        self,
        fn: FunctionSymbol,
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
    ) -> str | None:
        """None when the coroutine object is awaited/tracked, else how not."""
        node: ast.AST = call
        while True:
            parent = parents.get(node)
            if parent is None:
                return None  # benefit of the doubt at the function boundary.
            if isinstance(parent, ast.Await):
                return None
            if isinstance(parent, ast.Return):
                return None  # delegated to the caller.
            if isinstance(parent, ast.Call) and node is not parent.func:
                name = self._callee_name(parent)
                if name in _TASK_FUNCS:
                    return None
                return None  # handed to some callable: assume tracked.
            if isinstance(parent, ast.Expr):
                return "discarded"
            if isinstance(parent, ast.Assign):
                names = [
                    leaf.id
                    for target in parent.targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                ]
                if names and not self._name_later_tracked(fn, names, parents):
                    return "never-awaited"
                return None
            if isinstance(
                parent,
                (ast.BoolOp, ast.IfExp, ast.Starred, ast.GeneratorExp,
                 ast.ListComp, ast.SetComp, ast.comprehension, ast.keyword),
            ):
                node = parent
                continue
            return None

    def _name_later_tracked(
        self,
        fn: FunctionSymbol,
        names: list[str],
        parents: dict[ast.AST, ast.AST],
    ) -> bool:
        """Whether any of *names* is later awaited, returned, or tracked."""
        wanted = set(names)
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Name) and node.id in wanted):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            cur: ast.AST = node
            while True:
                parent = parents.get(cur)
                if parent is None or isinstance(parent, ast.stmt):
                    if isinstance(parent, ast.Return):
                        return True
                    break
                if isinstance(parent, ast.Await):
                    return True
                if isinstance(parent, ast.Call) and cur is not parent.func:
                    return True  # passed along: assume tracked.
                cur = parent
        return False

    # ------------------------------------------------------------- races

    def _check_races(self) -> None:
        accesses: dict[tuple[str, str], list[_Access]] = {}
        for qualname, fn in self.table.functions.items():
            ctx = self.context.get(qualname)
            if ctx is None or fn.name in _CONSTRUCTORS:
                continue
            resolver = _Resolver(self.graph, fn)
            parents = self._parent_map(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = resolver.receiver_type(node.value)
                if owner is None:
                    continue
                cls = self.table.classes.get(owner)
                if cls is None:
                    continue
                attr = node.attr
                known = (
                    attr in cls.attr_types or attr in cls.attr_annotations
                )
                if not known:
                    continue
                if attr in self.table.lock_attrs_of(owner):
                    continue
                if attr in self.table.guarded_fields_of(owner):
                    continue  # deep-lock-field enforces held-ness.
                accesses.setdefault((owner, attr), []).append(
                    _Access(
                        fn=qualname,
                        relpath=fn.relpath,
                        line=node.lineno,
                        context=ctx,
                        kind=(
                            "write"
                            if self._is_write(node, parents, resolver)
                            else "read"
                        ),
                        via_cst=qualname in self.cst_callbacks,
                    )
                )
        for (owner, attr), acc in sorted(accesses.items()):
            finding = self._race_of(owner, attr, acc)
            if finding is not None:
                self.races.append(finding)

    def _is_write(
        self,
        node: ast.Attribute,
        parents: dict[ast.AST, ast.AST],
        resolver: _Resolver,
    ) -> bool:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return True
        parent = parents.get(node)
        if (
            isinstance(parent, ast.Attribute)
            and parent.attr in _MUTATOR_METHODS
        ):
            grand = parents.get(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                # A project class's own method (``self.stats.add``) is not a
                # container mutation: its field accesses are checked in it.
                field_type = resolver.receiver_type(node)
                return (
                    field_type is None
                    or self.table.lookup_method(field_type, parent.attr) is None
                )
        if isinstance(parent, ast.Subscript) and isinstance(
            parent.ctx, (ast.Store, ast.Del)
        ):
            return True
        return False

    @staticmethod
    def _sides(ctx: str) -> frozenset:
        return frozenset((LOOP, THREAD)) if ctx == BOTH else frozenset((ctx,))

    def _race_of(
        self, owner: str, attr: str, accesses: list[_Access]
    ) -> RaceFinding | None:
        # call_soon_threadsafe callbacks are the sanctioned hand-off: their
        # accesses are ordered after the thread-side call that posted them.
        live = [a for a in accesses if not a.via_cst]
        writes = [a for a in live if a.kind == "write"]
        if not writes:
            return None
        for write in sorted(writes, key=lambda a: (a.relpath, a.line)):
            wsides = self._sides(write.context)
            for other in sorted(live, key=lambda a: (a.relpath, a.line)):
                if other is write and other.context != BOTH:
                    continue
                osides = self._sides(other.context)
                if (THREAD in wsides and LOOP in osides) or (
                    LOOP in wsides and THREAD in osides
                ):
                    return RaceFinding(
                        cls=owner, field_name=attr, write=write, other=other
                    )
        return None

    # ------------------------------------------------------------- summary

    def _account_resolution(self) -> None:
        async_fns = {
            q
            for q in self.table.functions
            if self.is_coroutine(q) or q in self.context
        }
        for qualname in sorted(async_fns):
            fn = self.table.functions[qualname]
            parents = self._parent_map(fn)
            for site in self.graph.sites.get(qualname, []):
                if site.status in ("resolved", "external", "builtin"):
                    self._candidate_sites += 1
                    self._classified_sites += 1
                elif site.status == "unresolved":
                    self._candidate_sites += 1
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Await):
                    continue
                self._total_awaits += 1
                value = node.value
                if isinstance(value, ast.Call):
                    site = self._site_for(fn, value)
                    if site is not None and site.status in (
                        "resolved", "external", "builtin", "dynamic",
                    ):
                        self._classified_awaits += 1
                else:
                    # Awaiting a stored future/task: classified by shape.
                    self._classified_awaits += 1

    def summary(self) -> dict[str, object]:
        """Async accounting for the ``--deep`` JSON summary."""
        candidates = self._candidate_sites + self._total_awaits
        classified = self._classified_sites + self._classified_awaits
        rate = classified / candidates if candidates else 1.0
        return {
            "coroutines": sum(
                1 for q in self.table.functions if self.is_coroutine(q)
            ),
            "await_sites": sum(self.await_sites.values()),
            "contexts": self.contexts(),
            "thread_roots": len(self.thread_roots),
            "cst_callbacks": len(self.cst_callbacks),
            "executor_hops": sum(
                len(lines) for lines in self.executor_hops.values()
            ),
            "classified_sites": classified,
            "candidate_sites": candidates,
            "resolution_rate": round(rate, 4),
        }
