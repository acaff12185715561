"""Repo walker: collect files, run rules, apply suppressions.

:func:`run_lint` is the single entry point the CLI, CI, and tests share.
File-scoped rules walk each source file's AST; repo-scoped rules
introspect declared artifacts once per invocation.  Findings landing on a
line covered by a ``# repro-lint: disable=...`` directive are dropped
(including findings from repo-scoped rules, which also resolve to
file:line locations).
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Iterable, Iterator

# Importing the rule modules registers them.
import repro.lint.rules_contracts  # noqa: F401
import repro.lint.rules_determinism  # noqa: F401
import repro.lint.rules_engine  # noqa: F401
import repro.lint.rules_markers  # noqa: F401
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, iter_rules
from repro.lint.suppress import SuppressionIndex

__all__ = ["DEFAULT_ROOTS", "changed_files", "iter_python_files", "run_lint"]

#: linted by default: the library itself plus the executable side trees.
DEFAULT_ROOTS = ("src/repro", "scripts", "benchmarks")

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(
    root: Path, paths: Iterable[str] | None = None
) -> Iterator[Path]:
    """Yield python files under *paths* (default roots when omitted).

    Missing explicit paths raise ``FileNotFoundError`` — a typo'd path
    silently linting nothing would defeat the CI gate.
    """
    targets = list(paths) if paths else list(DEFAULT_ROOTS)
    explicit = paths is not None and len(list(targets)) > 0
    seen: set[Path] = set()
    for target in targets:
        candidate = Path(target)
        if not candidate.is_absolute():
            candidate = root / candidate
        if candidate.is_file():
            if candidate.suffix == ".py" and candidate not in seen:
                seen.add(candidate)
                yield candidate
        elif candidate.is_dir():
            for path in sorted(candidate.rglob("*.py")):
                if set(path.parts) & _SKIP_DIRS:
                    continue
                if path not in seen:
                    seen.add(path)
                    yield path
        elif explicit and paths:
            raise FileNotFoundError(f"lint target does not exist: {target}")


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def changed_files(root: Path | str = ".", base: str = "HEAD") -> list[str]:
    """Python files changed vs *base* (``git diff``) plus untracked ones.

    Paths are repo-relative, restricted to the default lint roots, and
    deleted files are dropped.  Raises ``ValueError`` when *root* is not
    a git checkout or *base* does not resolve — a silent empty answer
    would make ``--changed-only`` pass vacuously.
    """
    root = Path(root)
    names: list[str] = []
    for cmd in (
        ["git", "-C", str(root), "diff", "--name-only", base, "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise ValueError(
                f"changed-files lookup failed ({' '.join(cmd[3:])}): "
                f"{detail[0] if detail else 'git error'}"
            )
        names.extend(line.strip() for line in proc.stdout.splitlines())
    out = []
    for name in sorted(set(names)):
        if not name.endswith(".py") or not (root / name).is_file():
            continue
        if any(
            name == r or name.startswith(f"{r}/") for r in DEFAULT_ROOTS
        ):
            out.append(name)
    return out


def _lint_one_file(
    path: Path, root: Path, file_rules: list
) -> tuple[str, list[Finding], SuppressionIndex | None]:
    """Parse + file-rule phase for one file."""
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        ctx = FileContext.from_source(source, relpath, path=path)
    except SyntaxError as exc:
        finding = Finding(
            rule="syntax-error",
            severity="error",
            path=relpath,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
        )
        return relpath, [finding], None
    index = SuppressionIndex.from_source(source, ctx.tree)
    kept = [
        finding
        for file_rule in file_rules
        for finding in file_rule.check(ctx)
        if not index.is_suppressed(finding.rule, finding.line)
    ]
    return relpath, kept, index


def run_lint(
    root: Path | str = ".",
    paths: Iterable[str] | None = None,
    rules: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint the repository; returns unsuppressed findings, sorted.

    ``rules`` filters by rule id (``ValueError`` on unknown ids).  Files
    that fail to parse produce a non-suppressible ``syntax-error`` finding.
    """
    root = Path(root)
    selected = list(iter_rules(rules))
    file_rules = [r for r in selected if r.scope == "file"]
    repo_rules = [r for r in selected if r.scope == "repo"]

    findings: list[Finding] = []
    suppressions: dict[str, SuppressionIndex] = {}

    for path in iter_python_files(root, paths):
        relpath, file_findings, index = _lint_one_file(path, root, file_rules)
        findings.extend(file_findings)
        if index is not None:
            suppressions[relpath] = index

    for repo_rule in repo_rules:
        for finding in repo_rule.check(root):
            index = suppressions.get(finding.path)
            if index is None:
                target = root / finding.path
                if target.is_file():
                    try:
                        index = SuppressionIndex.from_source(
                            target.read_text(encoding="utf-8")
                        )
                    except SyntaxError:
                        index = SuppressionIndex({})
                else:
                    index = SuppressionIndex({})
                suppressions[finding.path] = index
            if not index.is_suppressed(finding.rule, finding.line):
                findings.append(finding)

    return sorted(findings, key=Finding.sort_key)
