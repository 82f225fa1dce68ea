"""Every ``python -m repro …`` command the docs quote still parses.

A renamed or removed flag must take its stale examples with it: each
command quoted in the README, ``docs/*.md``, the CI workflow and the
verify skill is parsed with the real ``build_parser()`` (backslash
continuations joined, shell comments, pipes and redirections dropped).
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCES = sorted(
    [ROOT / "README.md", *(ROOT / "docs").glob("*.md"),
     ROOT / ".github" / "workflows" / "ci.yml",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

#: ``python -m repro`` as a command (not ``python -m repro.analysis…``).
_COMMAND = re.compile(r"python3? -m repro(?=\s|$)")

#: Shell syntax that ends the command's own arguments.
_SHELL_STOPS = {"|", "||", "&&", ";", ">", ">>", "2>&1", "&"}


def _snippets(text: str, markdown: bool) -> list[str]:
    """Code a reader would run: fenced lines and inline spans in
    markdown, every line elsewhere; continuations joined."""
    if not markdown:
        return text.replace("\\\n", " ").splitlines()
    snippets: list[str] = []
    prose: list[str] = []
    for index, block in enumerate(re.split(r"^```.*$", text, flags=re.M)):
        if index % 2:
            snippets += block.replace("\\\n", " ").splitlines()
        else:
            prose.append(block)
    for span in re.findall(r"`([^`]+)`", "".join(prose)):
        snippets.append(span.replace("\n", " "))
    return snippets


def _commands() -> list[tuple[str, list[str]]]:
    commands = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for snippet in _snippets(text, path.suffix == ".md"):
            for match in _COMMAND.finditer(snippet):
                argv = []
                for token in shlex.split(snippet[match.end():],
                                         comments=True):
                    if token in _SHELL_STOPS:
                        break
                    argv.append(token)
                label = f"{path.relative_to(ROOT)}: repro {' '.join(argv)}"
                commands.append((label, argv))
    return commands


COMMANDS = _commands()


def test_the_sources_quote_commands():
    assert len(COMMANDS) >= 60
    assert all(path.exists() for path in SOURCES)


@pytest.mark.parametrize(
    "argv", [argv for _, argv in COMMANDS],
    ids=[label for label, _ in COMMANDS],
)
def test_quoted_command_parses(argv):
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"repro {' '.join(argv)}: {stderr.getvalue().strip()}")
