"""Walker behaviour, the `repro-em lint` CLI, and the self-lint gate."""

import json
import subprocess

import pytest

from repro.cli import main
from repro.lint import DEFAULT_ROOTS, run_lint
from repro.lint.findings import Finding, format_json, format_text
from repro.lint.walker import changed_files

BAD_FIXTURE = "tests/lint/fixtures/bad_determinism.py"
CLEAN_FIXTURE = "tests/lint/fixtures/clean_module.py"


@pytest.fixture(autouse=True)
def in_repo_root(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)


class TestRunLint:
    def test_bad_fixture_produces_expected_rules(self, repo_root):
        findings = run_lint(repo_root, paths=[BAD_FIXTURE])
        rules = {f.rule for f in findings}
        assert {
            "ambient-clock",
            "unseeded-rng",
            "set-iteration",
            "salted-hash",
            "untyped-except",
        } <= rules
        assert all(f.path.endswith("bad_determinism.py") for f in findings)

    def test_clean_fixture_is_clean(self, repo_root):
        assert run_lint(repo_root, paths=[CLEAN_FIXTURE]) == []

    def test_rule_filter(self, repo_root):
        findings = run_lint(
            repo_root, paths=[BAD_FIXTURE], rules=["salted-hash"]
        )
        assert findings and {f.rule for f in findings} == {"salted-hash"}

    def test_unknown_rule_raises(self, repo_root):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(repo_root, paths=[BAD_FIXTURE], rules=["nope"])

    def test_missing_explicit_path_raises(self, repo_root):
        with pytest.raises(FileNotFoundError):
            run_lint(repo_root, paths=["does/not/exist.py"])

    def test_syntax_error_becomes_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        findings = run_lint(tmp_path, paths=[str(broken)])
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_self_lint_whole_tree_is_clean(self, repo_root):
        """Acceptance criterion: zero unsuppressed findings on the tree."""
        findings = run_lint(repo_root, paths=list(DEFAULT_ROOTS))
        assert findings == [], format_text(findings)


class TestCli:
    def test_exit_zero_on_clean_target(self, capsys):
        assert main(["lint", CLEAN_FIXTURE]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_bad_fixture(self, capsys):
        assert main(["lint", BAD_FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "bad_determinism.py" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["lint", "--rule", "nope"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(["lint", "--format", "json", BAD_FIXTURE]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert {"rule", "severity", "path", "line", "message", "hint"} <= set(first)

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "prompt-roundtrip" in out

    def test_rule_filter_on_clean_rule(self):
        # the bad fixture has no engine-hygiene fallback violation
        assert main(["lint", "--rule", "fallback-cache", BAD_FIXTURE]) == 0


class TestChangedFiles:
    @staticmethod
    def _git(repo, *argv):
        subprocess.run(
            ["git", "-C", str(repo), *argv], check=True, capture_output=True
        )

    @pytest.fixture()
    def scratch_repo(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "config", "user.email", "lint@test")
        self._git(tmp_path, "config", "user.name", "lint")
        (tmp_path / "src" / "repro" / "a.py").write_text("x = 1\n")
        (tmp_path / "src" / "repro" / "gone.py").write_text("g = 1\n")
        (tmp_path / "notes.txt").write_text("hi\n")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        return tmp_path

    def test_modified_and_untracked_python_under_roots(self, scratch_repo):
        (scratch_repo / "src" / "repro" / "a.py").write_text("x = 2\n")
        (scratch_repo / "src" / "repro" / "b.py").write_text("y = 1\n")
        (scratch_repo / "top.py").write_text("z = 1\n")  # outside roots
        (scratch_repo / "notes.txt").write_text("changed\n")  # not python
        got = changed_files(scratch_repo)
        assert got == ["src/repro/a.py", "src/repro/b.py"]

    def test_clean_tree_yields_nothing(self, scratch_repo):
        assert changed_files(scratch_repo) == []

    def test_deleted_files_are_dropped(self, scratch_repo):
        (scratch_repo / "src" / "repro" / "gone.py").unlink()
        assert changed_files(scratch_repo) == []

    def test_outside_a_checkout_raises(self, tmp_path):
        with pytest.raises(ValueError, match="changed-files lookup failed"):
            changed_files(tmp_path)

    def test_bad_base_raises(self, scratch_repo):
        with pytest.raises(ValueError, match="changed-files lookup failed"):
            changed_files(scratch_repo, base="no-such-ref")


class TestCliScoping:
    def test_changed_only_conflicts_with_explicit_paths(self, capsys):
        assert main(["lint", "--changed-only", BAD_FIXTURE]) == 2
        assert "--changed-only" in capsys.readouterr().err

    def test_changed_only_on_the_repo_exits_cleanly(self, repo_root, capsys):
        inside = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "--is-inside-work-tree"],
            capture_output=True,
        )
        if inside.returncode != 0:
            pytest.skip(
                "--changed-only diffs against git HEAD, and this tree is not "
                "a git work tree (a `git archive` export)"
            )
        # Whatever is in flight vs HEAD must satisfy the self-lint gate,
        # so the scoped run agrees with the whole-tree run above.
        assert main(["lint", "--changed-only"]) == 0
        assert "findings" in capsys.readouterr().out


class TestFindingRendering:
    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Finding(rule="r", severity="fatal", path="p", line=1, message="m")

    def test_json_is_sorted_and_stable(self):
        findings = [
            Finding(rule="b", severity="error", path="z.py", line=9, message="m2"),
            Finding(rule="a", severity="error", path="a.py", line=1, message="m1"),
        ]
        payload = json.loads(format_json(findings))
        assert [f["path"] for f in payload["findings"]] == ["a.py", "z.py"]
