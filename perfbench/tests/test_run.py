"""The command itself: smoke sizing, result line, and the empty directory."""

import json
import os
import shutil
import subprocess
import sys
import time

from perfbench import metrics as M

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _run(*argv, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *argv], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_smoke_of_all_four_workloads_is_quick(tmp_path):
    started = time.perf_counter()
    done = _run("--smoke", "--out", str(tmp_path))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 15.0
    for workload in M.WORKLOADS:
        assert f"== {workload} " in done.stdout
        record = json.loads((tmp_path / f"{workload}-seed0-e2e.json").read_text())
        env = record["environment"]
        assert {"git_sha", "git_dirty", "seed", "nproc", "thread_pinning",
                "numpy_version", "python_version", "spawn_method"} <= set(env)
        assert all(value == "1" for value in env["thread_pinning"].values())
        for cell in record["cells"]:
            assert cell["samples"] == len(cell["step_s"]) >= 1


def test_result_lines_carry_every_metric(tmp_path):
    for trace, units in ((0, M.END_TO_END_UNITS), (1, M.PER_LAYER_UNITS)):
        done = _run("--workload", "sweep_small_fused", "--seed", "4",
                    "--seconds", "1", "--smoke", "--trace", str(trace),
                    "--out", str(tmp_path))
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float)
            assert metric["value"] == metric["value"], name  # not NaN
    trace = json.loads(
        (tmp_path / "sweep_small_fused-seed4-trace-chrome.json").read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_without_the_repository_it_refuses_and_prints_no_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "sweep_large", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert "{" not in done.stdout


_ADOPT_ORPHANS = """
import ctypes, os, subprocess, sys
PR_SET_CHILD_SUBREAPER = 36
assert ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
done = subprocess.run([sys.executable] + sys.argv[1:], stdout=subprocess.DEVNULL)
try:
    left = os.waitpid(-1, os.WNOHANG)   # an orphan of the run, alive or zombie
except ChildProcessError:
    left = None
print(done.returncode, left)
"""


def test_a_run_leaves_no_process_behind(tmp_path):
    """Orphans of the run (the shared-memory resource tracker was one) are
    adopted by a sub-reaper parent, which must find none."""
    for trace in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _ADOPT_ORPHANS, RUN, "--workload",
             "parallel_nproc2", "--seed", "2", "--seconds", "1", "--smoke",
             "--trace", trace, "--out", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.stdout.split() == ["0", "None"], done.stdout + done.stderr
