"""CLI flows (``repro lint``) and the self-lint gate."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.lint.cli import changed_python_files, default_lint_paths
from repro.analysis.lint.engine import lint_paths
from repro.analysis.lint.rules import default_rules
from repro.cli import main as repro_main

BAD_SOURCE = "import numpy as np\nnp.random.rand(3)\n"
GOOD_SOURCE = "import numpy as np\n\n\ndef f(rng):\n    return rng.random(3)\n"


@pytest.fixture
def bad_tree(tmp_path):
    (tmp_path / "mod.py").write_text(BAD_SOURCE, encoding="utf-8")
    return tmp_path


class TestReproSubcommand:
    def test_findings_exit_nonzero(self, bad_tree, capsys):
        code = repro_main(["lint", str(bad_tree)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[GR001]" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(GOOD_SOURCE, encoding="utf-8")
        assert repro_main(["lint", str(tmp_path)]) == 0

    def test_json_format_and_artifact(self, bad_tree, tmp_path, capsys):
        artifact = tmp_path / "LINT.json"
        code = repro_main([
            "lint", str(bad_tree), "--format", "json", "--out", str(artifact),
        ])
        assert code == 1
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(artifact.read_text(encoding="utf-8"))
        assert stdout_report == file_report
        assert file_report["version"] == 2
        assert file_report["ok"] is False
        assert file_report["findings"][0]["rule"] == "GR001"

    def test_inline_suppression_is_the_accepted_exception(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\nnp.random.rand(3)  # lint-ignore: GR001\n",
            encoding="utf-8",
        )
        assert repro_main(["lint", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flags", [
        ["--baseline", "lint-baseline.json"],
        ["--no-baseline"],
        ["--write-baseline"],
        ["--check"],
        ["--verbose"],
    ])
    def test_baseline_flags_are_gone(self, bad_tree, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["lint", str(bad_tree), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_path_is_a_clean_error(self, tmp_path):
        missing = tmp_path / "no_such_dir"
        with pytest.raises(SystemExit, match="no_such_dir"):
            repro_main(["lint", str(missing)])

    def test_default_paths_prefer_src_repro(self, tmp_path, monkeypatch):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        assert default_lint_paths() == [str(Path("src") / "repro")]

    def test_default_paths_fall_back_to_installed_package(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (found,) = default_lint_paths()
        assert Path(found) == Path(repro.__file__).parent


@pytest.fixture
def git_repo(tmp_path, monkeypatch):
    """A throwaway git repo with one committed clean module."""
    import subprocess

    monkeypatch.chdir(tmp_path)
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    for key, value in env.items():
        monkeypatch.setenv(key, value)

    def git(*argv):
        subprocess.run(["git", *argv], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "committed.py").write_text(GOOD_SOURCE, encoding="utf-8")
    git("add", "committed.py")
    git("commit", "-qm", "seed")
    return tmp_path


class TestChangedScope:
    def test_no_changes_is_a_clean_noop(self, git_repo, capsys):
        assert repro_main(["lint", "--changed"]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_untracked_and_edited_files_are_picked_up(self, git_repo):
        (git_repo / "fresh.py").write_text(BAD_SOURCE, encoding="utf-8")
        (git_repo / "committed.py").write_text(
            GOOD_SOURCE + "\n# edited\n", encoding="utf-8"
        )
        assert sorted(changed_python_files()) == [
            "committed.py", "fresh.py",
        ]
        # The bad untracked file fails the scoped run...
        assert repro_main(["lint", "--changed"]) == 1
        # ...and fixing it restores a green run without linting the
        # rest of the tree.
        (git_repo / "fresh.py").write_text(GOOD_SOURCE, encoding="utf-8")
        assert repro_main(["lint", "--changed"]) == 0

    def test_deleted_files_are_skipped(self, git_repo):
        (git_repo / "committed.py").unlink()
        assert changed_python_files() == []

    def test_changed_rejects_explicit_paths(self, git_repo):
        with pytest.raises(SystemExit):
            repro_main(["lint", "--changed", "committed.py"])

    def test_bad_base_ref_is_a_clean_error(self, git_repo):
        with pytest.raises(SystemExit):
            repro_main(["lint", "--changed", "no-such-ref"])


class TestSelfLint:
    def test_src_repro_is_lint_clean(self):
        """The tentpole acceptance gate: the repo lints itself clean."""
        package_dir = Path(repro.__file__).parent
        report = lint_paths([package_dir], rules=default_rules())
        assert report.files_checked > 100
        locations = [f.location() for f in report.findings]
        assert locations == [], f"self-lint found: {locations}"
