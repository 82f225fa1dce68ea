#!/usr/bin/env python3
"""perfbench: one command for the repository's performance ladder.

    python perfbench/run.py                        all workloads, end to end
    python perfbench/run.py --trace                ... then the per-layer run
    python perfbench/run.py --workload sweep_large --seed 3 --trace 1
    python perfbench/run.py --agree 2              repeatability evidence
    python perfbench/run.py --smoke                seconds-long sanity sizing

With ``--workload`` the last line of standard output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end metrics
for ``--trace 0``, the per-layer metrics for ``--trace 1``.  Without it every
workload runs in a process of its own, the way the driver runs them.  The
exit code is non-zero when an output check failed.  See README.md.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One BLAS/OpenMP thread: the sandbox has two cores and parallel_nproc2 puts
# a process on each.  Set before NumPy loads; children inherit it.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402


def _children_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss_mb(probes_kib: int) -> float:
    """Peak resident set of this process plus its largest waited-for child.

    The import probes were children too (``probes_kib`` is the largest of
    them): a largest child no bigger than that means the workload had none.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = _children_rss_kib()
    if children <= probes_kib:
        children = 0
    return (own + children) / 1024.0  # Linux reports KiB


#: What ``run_workload`` imports before its clock reads ``import_s``.
_IMPORTS = ("import numpy, repro.bench.runner, repro.comm.parallel, "
            "perfbench.spans, perfbench.workloads")


def _import_seconds(own: float, repeats: int) -> float:
    """Median of this process's import time and ``repeats`` fresh interpreters'.

    Imports are the one part of set-up a process can do only once, and half of
    ``setup_s`` on the training workloads; a single sample of 0.3 s moves by
    tens of per cent with the neighbours.
    """
    probe = ("import sys, time; start = time.perf_counter(); "
             f"sys.path[:0] = {sys.path[:2]!r}; {_IMPORTS}; "
             "print(time.perf_counter() - start)")
    samples = [own] + [
        float(subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return sorted(samples)[len(samples) // 2]


def _environment(args) -> dict:
    """The program's own artifact stamp plus what only a benchmark cares for."""
    from repro.bench.metadata import run_metadata

    return {
        **run_metadata(seed=args.seed, cwd=ROOT),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "thread_pinning": {var: os.environ.get(var) for var in PINNED},
        "spawn_method": "spawn",
        "argv": sys.argv[1:],
    }


def _print_table(title: str, rows) -> None:
    print(f"\n== {title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")


def _print_cells(cells) -> None:
    print(f"  {'cell':<24}{'samples':>8}{'step q1 ms':>13}{'setup s':>10}"
          f"{'wire B/step':>14}{'to target':>10}  failed")
    for cell in cells:
        q1 = 1e3 * cell.step_typical_s if cell.step_s else float("nan")
        target = cell.steps_to_target if cell.steps_to_target else "-"
        gate = "" if cell.gated else " (not gated)"
        print(f"  {cell.name + gate:<24}{len(cell.step_s):>8}{q1:>13.3f}"
              f"{cell.setup_s:>10.3f}{cell.wire_bytes_per_step:>14.1f}"
              f"{target!s:>10}  {cell.failed}/{cell.attempted}")
        for error in cell.errors[:3]:
            print(f"      ! {error}")


def _per_layer(outcome, sizing, seed) -> tuple[dict, dict]:
    """Every per-layer metric of one traced run, plus detail for the file."""
    from perfbench import metrics as M
    from perfbench import probes
    from perfbench import workloads as W

    values = W.per_layer_from_spans(outcome)
    exchange = W.exchange_cost(outcome)
    for name in ("parallel.exchange_ms_per_step", "parallel.exchange_share"):
        values[name] = exchange[name]
    gradients = outcome["gradients"]
    kernel = W.kernel_cost_from_spans(outcome)
    probed = [c for c in M.COMPRESSORS if c not in kernel]
    kernel.update(probes.probe_compressors(probed, gradients, seed))
    for name in M.COMPRESSORS:
        compress, decompress = kernel[name]
        values[f"compressors.compress_ms_per_mb.{name}"] = compress
        values[f"compressors.decompress_ms_per_mb.{name}"] = decompress
    values["perfmodel.kernel_error_geomean"] = probes.kernel_model_error(
        kernel, gradients)
    values.update(probes.probe_tensorlib(seed))
    values.update(probes.probe_fusion(gradients, outcome["fusion_bytes"]))
    values.update(probes.probe_wire(seed))
    sizes = [int(g.size) for g in gradients.values()]
    arena, probe_spawn_s = probes.probe_arena(
        dense_bytes=min(4 << 20, 4 * sum(sizes)),
        sparse_k=max(1, max(sizes) // 100), seed=seed,
    )
    values.update(arena)
    values["parallel.spawn_s"] = outcome.get("spawn_s", probe_spawn_s)
    values["telemetry.trace_overhead_share"] = probes.probe_tracer_overhead(
        outcome["topk_build"], steps=2 if sizing.smoke else 10)
    detail = {
        "exchange_per_cell": exchange["per_cell"],
        "kernels_probed_directly": probed,
        "probe_spawn_s": probe_spawn_s,
    }
    return values, detail


def run_workload(args) -> int:
    """Measure one workload in this process; returns the exit code."""
    import numpy  # noqa: F401  (import cost belongs to set-up)
    import repro.bench.runner  # noqa: F401
    import repro.comm.parallel  # noqa: F401
    from perfbench import metrics as M
    from perfbench import spans
    from perfbench import workloads as W

    import_s = _import_seconds(time.perf_counter() - _PROCESS_START,
                               repeats=0 if args.smoke else 2)
    probes_kib = _children_rss_kib()
    workload, trace = args.workload, bool(args.trace)
    sizing = W.Sizing(seconds=args.seconds, smoke=args.smoke)
    started = time.perf_counter()
    outcome = W.RUNNERS[workload](sizing, args.seed, trace)
    cells = outcome["cells"] + outcome.get("stand_ins", [])
    attempted = sum(c.attempted for c in cells)
    failed = sum(c.failed for c in cells)
    detail = {}
    try:
        if trace:
            values, detail = _per_layer(outcome, sizing, args.seed)
            units = M.PER_LAYER_UNITS
        else:
            values = W.end_to_end(outcome, import_s, _peak_rss_mb(probes_kib))
            units = M.END_TO_END_UNITS
        metrics = M.as_metrics(values, units)
    except Exception as exc:  # nothing measurable: report, do not print a result
        print(f"perfbench: {workload}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        for cell in cells:
            for error in cell.errors[:3]:
                print(f"  {cell.name}: {error}", file=sys.stderr)
        return 2
    measured_s = time.perf_counter() - started

    kind = "per-layer (traced run)" if trace else "end to end (untraced run)"
    _print_table(
        f"{workload}  seed={args.seed}  {kind}",
        [(name, m["value"], m["unit"]) for name, m in metrics.items()],
    )
    _print_cells(cells)
    exchange = detail.get("exchange_per_cell", {})
    for name, row in exchange.items() if len(exchange) <= 4 else ():
        print(f"  exchange {name}: {row['exchange_ms']:.3f} ms of "
              f"{row['step_ms']:.3f} ms = {row['exchange_share']:.3f}")
    share = failed / attempted if attempted else 1.0
    print(f"  failed_share {share:.6f}  ({failed} of {attempted} steps and "
          f"checks)   measured for {measured_s:.1f} s")

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(
        args.out,
        f"{workload}-seed{args.seed}-{'trace' if trace else 'e2e'}",
    )
    record = {
        "workload": workload, "trace": trace,
        "environment": _environment(args),
        "import_s": import_s, "measured_s": measured_s,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": share, "metrics": metrics,
        "cells": [c.to_json() for c in cells], "detail": detail,
    }
    if trace:
        recorders = [c.recorder for c in cells if c.recorder is not None]
        spans.write_chrome_trace(recorders, stem + "-chrome.json")
        record["layers"] = [row for rec in recorders for row in rec.table()]
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _stop_helpers() -> None:
    """End, and wait for, every process multiprocessing started for us.

    ``run_parallel`` and the arena probe join their own workers, but the
    shared-memory resource tracker they start outlives this process by
    default: it would be left to init as an orphan.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # CPython has no public call for this; without the private one the
    # tracker only ends once this process is gone, and nobody waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# Every workload, each in a process of its own
# ---------------------------------------------------------------------------


def _child(args, workload: str, trace: int, seed: int, quiet: bool):
    """Run one workload the way the driver does; returns its result line."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", args.out,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if not quiet:
        print("\n".join(lines[:-1]))
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        print(f"perfbench: {workload} printed no result "
              f"(exit code {done.returncode})", file=sys.stderr)
        return None
    return result


def run_all(args) -> int:
    from perfbench.metrics import WORKLOADS

    status = 0
    for trace in ((0, 1) if args.trace else (0,)):
        for workload in WORKLOADS:
            result = _child(args, workload, trace, args.seed, quiet=False)
            if result is None or not result["correct"]:
                status = 1
    return status


def run_agree(args) -> int:
    """N sets back to back; every pair must agree within the bounds."""
    from perfbench import metrics as M

    sets = []
    for index in range(args.agree):
        seed = args.seed + index if args.vary_seed else args.seed
        results = {}
        for workload in M.WORKLOADS:
            started = time.perf_counter()
            result = _child(args, workload, 0, seed, quiet=True)
            if result is None or not result["correct"]:
                print(f"set {index}: {workload} failed")
                return 1
            results[workload] = {
                name: m["value"] for name, m in result["metrics"].items()
            }
            print(f"set {index} seed {seed} {workload}: "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
        sets.append(results)
    status = 0
    print(f"\n{'workload':<19}{'metric':<21}{'median':>15}{'q1':>15}"
          f"{'q3':>15}{'spread':>9}{'bound':>7}")
    for workload in M.WORKLOADS:
        for name, _, better, bound in M.END_TO_END:
            values = [results[workload][name] for results in sets]
            mid, q1, q3, rel = (
                M.spread(values) if len(values) > 1
                else (values[0], values[0], values[0], 0.0)
            )
            worst = (max(values) - min(values)) / mid if mid else 0.0
            verdict = ""
            if name in M.EXACT and not args.vary_seed and worst != 0.0:
                verdict = "  NOT EXACT"
            elif worst > bound:
                verdict = "  DISAGREE"
            if verdict and name != "setup_s":
                status = 1
            print(f"{workload:<19}{name:<21}{mid:>15.6g}{q1:>15.6g}"
                  f"{q3:>15.6g}{rel:>9.4f}{bound:>7.3f}{verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="size of the timed regions (default 15)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run through proxies")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="result files go here (default perfbench/out)")
    parser.add_argument("--agree", type=int, metavar="N", default=0,
                        help="run N full sets and compare them")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --agree: set i uses seed + i")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and step counts; not a measurement")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro next to {HERE}; the benchmark "
              "measures the repository it sits in", file=sys.stderr)
        return 2
    from perfbench.metrics import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if args.agree:
        return run_agree(args)
    if args.workload is not None:
        # A terminated run unwinds like a finished one, so workers are joined.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        try:
            return run_workload(args)
        finally:
            _stop_helpers()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
