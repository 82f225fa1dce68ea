"""Every ``python -m repro …`` command the docs quote still parses.

A renamed or removed flag must take its stale examples with it: each
command quoted in the README, ``docs/*.md``, the CI workflow and the
verify skill is parsed with the real ``build_parser()`` (backslash
continuations joined, shell comments, pipes and redirections dropped).

An inline ``repro …`` span in the README and ``docs/*.md`` is often a
name rather than a command (``repro bench``, ``repro train --sanitize
contract``), so it is held to a weaker rule: every flag it names exists
on that command or one of its subcommands, beside any flag it requires
(:data:`repro.cli.REQUIRES`).
"""

import argparse
import contextlib
import io
import pathlib
import re
import shlex

import pytest

from repro.cli import REQUIRES, build_parser

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


def _inline_spans(text: str) -> list[str]:
    """The inline code spans of a markdown text's prose, one line each."""
    prose = re.split(r"^```.*$", text, flags=re.M)[::2]
    return [span.replace("\n", " ")
            for span in re.findall(r"`([^`]+)`", "".join(prose))]


def _snippets(text: str, markdown: bool) -> list[str]:
    """Code a reader would run: fenced lines and inline spans in
    markdown, every line elsewhere; continuations joined."""
    if not markdown:
        return text.replace("\\\n", " ").splitlines()
    fenced = re.split(r"^```.*$", text, flags=re.M)[1::2]
    return [line for block in fenced
            for line in block.replace("\\\n", " ").splitlines()
            ] + _inline_spans(text)


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


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(
        (action.choices for action in parser._actions
         if isinstance(action, argparse._SubParsersAction)),
        {},
    )


def _flags_below(parser: argparse.ArgumentParser) -> set[str]:
    """The flags of ``parser`` and of every subcommand under it."""
    flags = {flag for action in parser._actions
             for flag in action.option_strings}
    for child in _subcommands(parser).values():
        flags |= _flags_below(child)
    return flags


def weak_rule_errors(argv: list[str]) -> list[str]:
    """What the weaker rule finds wrong with ``repro`` + ``argv``."""
    parser, path = build_parser(), []
    for token in argv:
        children = _subcommands(parser)
        if token not in children:
            break
        parser = children[token]
        path.append(token)
    named = [token.split("=", 1)[0] for token in argv
             if token.startswith("-") and not re.fullmatch(r"-[\d.]+", token)]
    known = _flags_below(parser)
    errors = [f"{flag} is not a flag of repro {' '.join(path)}"
              for flag in named if flag not in known]
    for flag, needed in REQUIRES.get(" ".join(path), {}).items():
        if flag in named and needed not in named:
            errors.append(f"{flag} requires {needed}")
    return errors


def _inline_commands() -> list[tuple[str, list[str]]]:
    commands = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for span in _inline_spans(path.read_text(encoding="utf-8")):
            if re.match(r"repro(\s|$)", span):
                argv = shlex.split(span)[1:]
                commands.append(
                    (f"{path.relative_to(ROOT)}: {span}", argv)
                )
    return commands


INLINE = _inline_commands()


def test_the_docs_quote_inline_commands():
    assert len(INLINE) >= 40


@pytest.mark.parametrize(
    "argv", [argv for _, argv in INLINE],
    ids=[label for label, _ in INLINE],
)
def test_inline_command_names_only_its_flags(argv):
    assert weak_rule_errors(argv) == []


@pytest.mark.parametrize("span, error", [
    ("repro report A.jsonl --compare B.jsonl",
     "--compare is not a flag of repro report"),
    ("repro report --clock sim", "--clock requires --chrome"),
    ("repro bench --checks", "--checks is not a flag of repro bench"),
])
def test_the_weaker_rule_refuses_a_stale_span(span, error):
    assert weak_rule_errors(shlex.split(span)[1:]) == [error]


@pytest.mark.parametrize("span", [
    "repro bench", "repro bench --check", "repro train --sanitize contract",
    "repro report T --chrome C --clock sim", "repro train --seed -1",
])
def test_the_weaker_rule_passes_a_name(span):
    assert weak_rule_errors(shlex.split(span)[1:]) == []
