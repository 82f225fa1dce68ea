"""Run metadata stamped on every benchmark/report artifact.

Perf numbers are only attributable when the artifact records *what*
produced them: the commit (and whether the tree was dirty), the NumPy
that executed the kernels, the platform, and the seed.  Every JSON the
bench CLIs and the history file write carries one of these stamps, all
produced by :func:`run_metadata` so the schema cannot drift between
harnesses.
"""

from __future__ import annotations

import platform
import subprocess
from datetime import datetime, timezone

import numpy as np

#: Bumped when the metadata stamp's keys change.
METADATA_VERSION = 1


def _git(args: list[str], cwd: str | None = None) -> str | None:
    """One git query; ``None`` when git or the repo is unavailable."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_revision(cwd: str | None = None) -> tuple[str, bool]:
    """The current commit SHA and whether the worktree is dirty.

    Changes under ``benchmarks/results/``, where the bench CLIs write
    their results and history, do not count: they are what a run
    produced, not what it measured.  Returns ``("unknown", False)``
    outside a git checkout so artifacts can still be written from
    installed copies.
    """
    sha = _git(["rev-parse", "HEAD"], cwd=cwd)
    if not sha:
        return "unknown", False
    status = _git(["status", "--porcelain", "--",
                   ":(top,exclude)benchmarks/results"], cwd=cwd)
    return sha, bool(status)


def run_metadata(seed: int | None = None,
                 cwd: str | None = None,
                 timestamp: bool = True) -> dict:
    """The shared metadata stamp for one benchmark/report artifact.

    ``timestamp=False`` drops the wall-clock field for callers that
    need byte-reproducible artifacts (golden-file tests).
    """
    sha, dirty = git_revision(cwd=cwd)
    meta: dict = {
        "metadata_version": METADATA_VERSION,
        "git_sha": sha,
        "git_dirty": dirty,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }
    if timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return meta
