"""Regression: the linter still parses the tree after Hypothesis has run.

On CPython 3.11, once any Hypothesis test had run in the process, parsing
files from worker threads failed with ``SystemError: AST constructor
recursion depth mismatch``; a serial pass never did.  The linter is
serial, and this module pins that: a Hypothesis test runs first (pytest
keeps file order within a module), then the whole default tree is linted
through the library and through the CLI.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.lint import DEFAULT_ROOTS, run_lint


@pytest.fixture(autouse=True)
def in_repo_root(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers()))
def test_hypothesis_runs_first(values):
    assert sorted(sorted(values)) == sorted(values)


def test_run_lint_after_hypothesis(repo_root):
    assert run_lint(repo_root, paths=list(DEFAULT_ROOTS)) == []


def test_cli_lint_after_hypothesis(capsys):
    assert main(["lint", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0
