"""The ``repro lint`` command.

It exits 1 on any finding: zero findings is the only baseline, and an
accepted exception is an inline ``# lint-ignore`` on its line.

Examples::

    repro lint                       # lint src/repro
    repro lint --format json --out LINT.json
    repro lint src/repro/core tests  # explicit paths
    repro lint --changed             # only files touched vs HEAD
    repro lint --changed origin/main # only files touched vs a base ref
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.engine import lint_paths
from repro.analysis.lint.output import render_json, render_text
from repro.analysis.lint.rules import default_rules


def default_lint_paths() -> list[str]:
    """What ``repro lint`` checks when no paths are given.

    Prefers ``src/repro`` relative to the working directory; falls back
    to the installed package location so the command works from
    anywhere in the repo.
    """
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [str(candidate)]
    import repro

    return [str(Path(repro.__file__).parent)]


def changed_python_files(base: str = "HEAD") -> list[str]:
    """Python files git reports as changed relative to ``base``.

    Unions ``git diff --name-only <base>`` (tracked edits, staged or
    not) with untracked files, so a freshly added module is linted
    before its first commit.  Deleted files are skipped.  Raises
    ``SystemExit`` when git is unavailable or ``base`` is not a ref.
    """
    import subprocess

    commands = [
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    names: list[str] = []
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except FileNotFoundError:
            raise SystemExit("lint --changed needs git on PATH")
        except subprocess.CalledProcessError as error:
            raise SystemExit(
                f"lint --changed: {' '.join(command)} failed: "
                f"{error.stderr.strip() or error.returncode}"
            )
        names.extend(proc.stdout.splitlines())
    seen: set[str] = set()
    files = []
    for name in names:
        if name.endswith(".py") and name not in seen and Path(name).is_file():
            seen.add(name)
            files.append(name)
    return files


def run_lint(args) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.changed is not None:
        if args.paths:
            raise SystemExit(
                "lint --changed derives the file list from git; drop the "
                "explicit paths (or drop --changed)"
            )
        paths = changed_python_files(args.changed)
        if not paths:
            print(f"lint --changed: no Python files changed vs "
                  f"{args.changed}; nothing to check")
            return 0
    else:
        paths = args.paths or default_lint_paths()
    try:
        report = lint_paths(paths, rules=default_rules())
    except FileNotFoundError as error:
        raise SystemExit(str(error))
    if args.out:
        Path(args.out).write_text(render_json(report) + "\n",
                                  encoding="utf-8")
    print(render_json(report) if args.format == "json"
          else render_text(report))
    return report.exit_code()
