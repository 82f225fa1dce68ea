"""Command-line interface.

Examples::

    python -m repro list
    python -m repro compress --method topk --elements 65536 --param ratio=0.05
    python -m repro train --benchmark ncf-movielens --compressor topk
    python -m repro train --benchmark ncf-movielens --compressor topk \
        --trace /tmp/run.jsonl
    python -m repro report /tmp/run.jsonl --chrome /tmp/run.trace.json
    python -m repro experiment fig6 --panels a,d
    python -m repro experiment table1
    python -m repro lint --check --format json --out LINT.json
    python -m repro train --benchmark ncf-movielens --compressor qsgd \
        --sanitize
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np


def _parse_params(pairs: list[str]) -> dict:
    """Parse repeated ``--param key=value`` options with literal typing."""
    params: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = {"true": True, "false": False}.get(raw.lower(), raw)
        params[key] = value
    return params


def cmd_list(args) -> int:
    """Print Table I for every implemented method."""
    from repro.bench.experiments import table1

    print(table1.format(table1.run()))
    return 0


def cmd_compress(args) -> int:
    """Compress one synthetic gradient and report the wire stats."""
    from repro.core import create
    from repro.core.wire import framing_overhead_bytes
    from repro.telemetry.formatting import render_fields, wire_stats_fields

    rng = np.random.default_rng(args.seed)
    side = int(np.sqrt(args.elements))
    tensor = (args.scale * rng.standard_normal((side, side))).astype(
        np.float32
    )
    compressor = create(args.method, seed=args.seed,
                        **_parse_params(args.param))
    kernel_start = time.perf_counter()
    compressed = compressor.compress(tensor, "cli")
    kernel_seconds = time.perf_counter() - kernel_start
    restored = compressor.decompress(compressed)
    error = np.linalg.norm(restored - tensor) / np.linalg.norm(tensor)
    fields = [
        ("method", args.method),
        ("input", f"{tensor.size} elements ({tensor.nbytes:,} bytes)"),
    ]
    fields += wire_stats_fields(
        raw_nbytes=tensor.nbytes,
        wire_nbytes=compressed.nbytes,
        framing_nbytes=framing_overhead_bytes(compressed.payload),
        kernel_seconds=kernel_seconds,
    )
    fields += [
        ("relative error", f"{error:.4f}"),
        ("strategy", compressor.communication),
        ("default memory", compressor.default_memory),
    ]
    print(render_fields(fields))
    return 0


#: ``train`` flags only some backends or topologies read: each maps to
#: the choices that read it and its default.
_BACKEND_FLAGS = {"checkpoint_dir": (("parallel",), None)}
_TOPOLOGY_FLAGS = {
    "racks": (("hier",), 2),
    "aggregation": (("ps", "hier"), "auto"),
}

#: ``bench`` flags only some suites read, in the same form.
_RUN_SUITES = ("fusion", "overlap", "faults", "throughput")
_SUITE_FLAGS = {
    "compressor": (("fusion",), "topk"),
    "workers": (("fusion",), 8),
    "iterations": (("fusion",), 30),
    "parallel": (("throughput",), False),
    "out": (_RUN_SUITES, None),
    "record": (_RUN_SUITES, False),
    "check": (_RUN_SUITES, False),
}


def _only_for(args, flags: dict, chosen: str, option: str) -> None:
    """Exit with one line on a flag ``chosen`` would ignore; default the
    rest.

    ``flags`` maps each flag to the choices of ``option`` that read it
    and its default; a flag left unset parses as None.
    """
    for dest, (owners, default) in flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif chosen not in owners:
            raise SystemExit(f"--{dest.replace('_', '-')} requires "
                             f"{option} {' or '.join(owners)}")


def _backend_flags(args) -> dict:
    """The keywords only the chosen backend takes, for :func:`_run_cell`;
    a flag it would ignore exits with one line."""
    from repro.core.config import sanitizes

    _only_for(args, _TOPOLOGY_FLAGS, args.topology, "--topology")
    _only_for(args, _BACKEND_FLAGS, args.backend, "--backend")
    if args.backend == "sim":
        if sanitizes(args.sanitize, "arena"):
            raise SystemExit(f"--sanitize {args.sanitize} requires "
                             "--backend parallel")
        return {"topology": args.topology, "racks": args.racks,
                "aggregation": args.aggregation}
    if args.topology != "flat":
        raise SystemExit(
            "--backend parallel supports only the flat topology; use the "
            "sequential simulator (--backend sim) for ps/hier"
        )
    return {"checkpoint_dir": args.checkpoint_dir}


def _add_resilience_flags(parser) -> None:
    """The :class:`~repro.core.config.Resilience` fields as flags."""
    from repro.core.config import RECOVERY_POLICIES, STRAGGLER_POLICIES

    parser.add_argument("--faults", metavar="SPEC",
                        help="inject a deterministic fault plan, e.g. "
                             "'crash@10:rank=1,rejoin=14;"
                             "degrade@20-25:bw=0.25' "
                             "(grammar in docs/ROBUSTNESS.md)")
    parser.add_argument("--straggler-policy", default="wait",
                        choices=STRAGGLER_POLICIES,
                        help="wait for the slowest rank (default), drop "
                             "slow ranks from the cohort, or fold their "
                             "gradients back in while fresh (backup)")
    parser.add_argument("--recovery", choices=RECOVERY_POLICIES,
                        default="degrade",
                        help="crash handling: re-normalize over survivors "
                             "or roll back to the latest EF-aware "
                             "checkpoint (default %(default)s)")
    parser.add_argument("--checkpoint-every", type=int, metavar="N",
                        default=0,
                        help="checkpoint every N iterations (0: never, "
                             "or every one for restart recovery under "
                             "faults; default %(default)s)")


def _resilience(args):
    """The run's one :class:`~repro.core.config.Resilience`."""
    from repro.core.config import Resilience

    try:
        return Resilience(args.faults, args.recovery, args.checkpoint_every,
                          args.straggler_policy)
    except ValueError as error:
        raise SystemExit(str(error))


def _cell(benchmark: str, compressor: str):
    """The benchmark spec ``benchmark`` keys; a one-line exit naming the
    choices if it or ``compressor`` is unknown."""
    from repro.bench.suite import get_benchmark
    from repro.core.registry import compressor_info

    try:
        spec = get_benchmark(benchmark)
        compressor_info(compressor)
    except KeyError as error:
        raise SystemExit(error.args[0])
    return spec


def _writable(*paths) -> None:
    """Fail on unwritable output paths now, not after training.

    A file the check itself creates is removed again, so a command
    refused after the check leaves nothing behind.
    """
    for path in paths:
        if path:
            existed = os.path.exists(path)
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as error:
                raise SystemExit(f"cannot write {path!r}: {error}")
            if not existed:
                os.remove(path)


def _run_cell(args, spec, tracer_type=None, **options):
    """Train the cell ``args`` names on ``args.backend``.

    ``tracer_type`` (``Tracer``, ``ProfilingTracer`` or None) is what
    the run records with — in this process or in every rank — and
    ``options`` are the keywords ``args`` alone does not say.  Returns
    ``(report, spans, metrics, memory, parallel)``: ``metrics`` is the
    run's registry (a parallel run's keeps a ``rank`` label), ``memory``
    the profiler's high-water marks and ``parallel`` the
    :class:`~repro.comm.parallel.ParallelResult` (None on the simulator).
    """
    from repro.telemetry.profile import ProfilingTracer

    cell = dict(seed=args.seed, epochs=args.epochs,
                compressor_params=_parse_params(args.param) or None,
                fusion_mb=args.fusion_mb, overlap=args.overlap, **options)
    if args.backend == "sim":
        from repro.bench.runner import train_quality

        tracer = tracer_type() if tracer_type else None
        report = train_quality(spec, args.compressor, n_workers=args.workers,
                               tracer=tracer, **cell)
        memory = tracer.finalize() if tracer_type is ProfilingTracer else None
        return report, tracer.spans if tracer else [], report.metrics, \
            memory, None
    from repro.comm.parallel import ParallelRunConfig, run_parallel

    # Traced for any output, as on the simulator: an untraced rank records
    # no compress_/wire_ instruments for the wire stats or Prometheus.
    try:
        result = run_parallel(ParallelRunConfig(
            spec.key, args.compressor, args.workers,
            trace=tracer_type is not None,
            profile=tracer_type is ProfilingTracer, **cell,
        ))
    except ValueError as error:
        # Config the parallel backend rejects (sim-only fault kinds,
        # the backup straggler policy, rejoin under degrade, ...).
        raise SystemExit(str(error))
    return (result.report, result.events, result.metrics,
            result.memory_high_water, result)


def cmd_train(args) -> int:
    """Train one (benchmark, compressor) cell and print the report."""
    from repro.telemetry import Tracer

    spec = _cell(args.benchmark, args.compressor)
    options = _backend_flags(args)
    options.update(resilience=_resilience(args), sanitize=args.sanitize)
    outputs = (args.trace, args.chrome_trace, args.metrics_out)
    _writable(*outputs)
    tracing = any(outputs)
    report, spans, metrics, _, parallel = _run_cell(
        args, spec, Tracer if tracing else None, **options
    )
    _print_run(args, spec, report, parallel)
    if tracing:
        _export_trace(args, spans, metrics)
    return 0


def _print_run(args, spec, report, parallel) -> None:
    """``train``'s report of one run, on either backend."""
    print(f"benchmark        : {spec.key} ({spec.model_name})")
    print(f"compressor       : {args.compressor}")
    if parallel is not None:
        print(f"backend          : parallel ({args.workers} processes)")
    if args.topology != "flat":
        label = args.topology
        if args.topology == "hier":
            label = f"hier ({args.racks} racks)"
        print(f"topology         : {label}")
        root_in, root_out = (
            report.metrics.value("comm_root_bytes_total", {"direction": d})
            for d in ("ingress", "egress")
        )
        print(f"root bytes       : {root_in:,.0f} in / {root_out:,.0f} out")
    print(f"epochs           : {len(report.epoch_losses)}")
    print(f"final loss       : {report.epoch_losses[-1]:.4f}")
    print(f"best {spec.paper.metric:<12}: "
          f"{spec.display_quality(report.best_quality):.4f}")
    print(f"bytes/worker/iter: {report.bytes_per_worker_per_iteration:,.0f}")
    print(f"simulated comm   : {report.sim_comm_seconds:.3f} s")
    if parallel is not None:
        print(f"wall clock       : {parallel.wall_seconds:.2f} s")
        print("rank threads     : " + " ".join(
            f"{var}={value}" for var, value in parallel.environment.items()
        ))
        digest = next(iter(parallel.digests.values()))
        print(f"model digest     : {digest[:16]} "
              f"(all {len(parallel.digests)} ranks agree)")
        san = parallel.sanitizer
        if san is not None:
            verdict = "ok" if san.ok else f"{len(san.violations)} violation(s)"
            print(f"arena sanitizer  : {verdict} ({san.events_total} events)")
    recoveries = parallel.recoveries if parallel is not None else []
    if args.faults or recoveries:
        if parallel is None:
            metrics = report.metrics
            injected = sum(
                i.value for i in metrics.instruments("faults_injected_total")
            )
            print(f"faults injected  : {injected:,.0f}")
            print(f"retries          : {metrics.value('retries_total'):,.0f}")
            print(f"degraded iters   : "
                  f"{metrics.value('degraded_iterations_total'):,.0f}")
        else:
            print(f"recoveries       : {len(recoveries)}")
            for rec in recoveries:
                print(f"  incarnation {rec['incarnation']}: ranks "
                      f"{rec['dead_ranks']} died, cohort {rec['cohort']} "
                      f"resumed from iteration {rec['restored_iteration']}")
        print(f"recovery time    : {report.sim_recovery_seconds:.3f} s")
    if args.overlap:
        print(f"sim makespan     : {report.sim_makespan_seconds:.3f} s")
        print(f"exposed comm     : {report.sim_exposed_comm_seconds:.3f} s")
        print(f"hidden comm      : {report.sim_hidden_comm_seconds:.3f} s")
        print(f"overlap fraction : {100.0 * report.overlap_fraction:.1f}%")


def _export_trace(args, spans, metrics) -> None:
    """Print the wire stats and write the requested trace artifacts.

    The JSONL trace and the wire stats read the run's totals
    (:func:`~repro.telemetry.metrics.fold_ranks`); the Prometheus
    snapshot keeps a parallel run's per-rank series.
    """
    from repro.telemetry import (
        render_fields, wire_stats_fields, write_chrome_trace, write_jsonl,
        write_prometheus,
    )
    from repro.telemetry.metrics import fold_ranks

    run = fold_ranks(metrics)
    kernels = run.instruments("compress_kernel_seconds")
    print()
    print(render_fields(wire_stats_fields(
        raw_nbytes=run.value("compress_raw_bytes_total"),
        wire_nbytes=run.value("compress_wire_bytes_total"),
        framing_nbytes=run.value("wire_framing_overhead_bytes_total"),
        kernel_seconds=sum(histogram.sum for histogram in kernels),
    )))
    if args.trace:
        events = write_jsonl(args.trace, spans, run)
        print(f"trace            : {args.trace} ({events} events)")
    if args.chrome_trace:
        count = write_chrome_trace(args.chrome_trace, spans)
        print(f"chrome trace     : {args.chrome_trace} ({count} spans)")
    if args.metrics_out:
        write_prometheus(args.metrics_out, metrics)
        print(f"metrics          : {args.metrics_out}")


def cmd_chaos(args) -> int:
    """Run a seeded kill campaign, print and write its record, and exit
    1 if any recovery invariant broke."""
    from repro.bench.result import write_result
    from repro.faults.chaos import run_chaos

    _writable(args.out)
    try:
        result = run_chaos(args.benchmark, args.compressor, args.workers,
                           args.trials, args.seed, args.recovery)
    except (KeyError, ValueError) as error:
        # Before the clean run: an unknown name, no trial, or a config
        # the parallel backend rejects (workers < 1); after it: a run too
        # short to place a kill in.
        raise SystemExit(error.args[0])
    print(result.text)
    for failure in result.failures:
        print(f"CHAOS FAILED: {failure}")
    if args.out:
        write_result(args.out, result)
        print(f"result json      : {args.out}")
    return 1 if result.failures else 0


def cmd_bench(args) -> int:
    """Run one perf harness (or compare two recorded runs).

    Every harness returns one :class:`~repro.bench.result.RunResult`:
    one artifact (``benchmarks/results/BENCH_<suite>.json``), one
    history file and one regression gate (``--check``).
    """
    _only_for(args, _SUITE_FLAGS, args.what, "bench")
    if args.what == "compare":
        return _bench_compare(args)
    if args.refs:
        raise SystemExit(f"bench {args.what} takes no refs (only compare "
                         "does)")
    from repro.bench import history as perf_history
    from repro.bench.faults_bench import run_faults_bench
    from repro.bench.fusion_bench import run_fusion_bench
    from repro.bench.overlap_bench import run_overlap_bench
    from repro.bench.result import write_result
    from repro.bench.throughput import run_parallel_bench, run_throughput_bench

    harness = {
        "fusion": lambda: run_fusion_bench(args.compressor, args.workers,
                                           args.iterations),
        "overlap": run_overlap_bench,
        "faults": run_faults_bench,
        "throughput": (run_parallel_bench if args.parallel
                       else run_throughput_bench),
    }[args.what]
    try:
        result = harness()
    except (KeyError, ValueError) as error:
        # How the fusion harness rejects its input: an unknown
        # compressor or an out-of-range count.
        raise SystemExit(
            f"bench {args.what}: " + " ".join(map(str, error.args))
        )
    print(result.text)
    out = args.out or f"benchmarks/results/BENCH_{result.suite}.json"
    if out != "-":
        write_result(out, result)
        print(f"result json      : {out}")
    failures: list = []
    regressions: list = []
    if args.check:
        failures = result.failures
        for failure in failures:
            print(f"{result.suite.upper()} CHECK FAILED: {failure}")
        try:
            history = perf_history.read_history(args.history)
        except ValueError as error:
            raise SystemExit(f"cannot read perf history: {error}")
        regressions = perf_history.check_against_history(result, history)
        for regression in regressions:
            print(f"PERF REGRESSION: {regression}")
        if not regressions:
            gated = sum(
                1 for m in result.metrics.values() if m.direction != "info"
            )
            print(f"regression gate  : ok ({gated} gated metrics vs "
                  f"{args.history})")
    if args.record:
        if failures or regressions:
            print("history          : not recorded (checks failed)")
        else:
            entry = perf_history.append_history(args.history, result)
            print(f"history          : recorded {entry['commit'][:12]} "
                  f"-> {args.history}")
    return 1 if (failures or regressions) else 0


def _bench_compare(args) -> int:
    """Diff two recorded runs (JSON paths or history commit refs)."""
    from repro.bench import history as perf_history
    from repro.bench.result import read_result

    if len(args.refs) != 2:
        raise SystemExit(
            "bench compare needs exactly two refs (RunResult JSON paths "
            "or history commit prefixes)"
        )

    def load(ref: str) -> dict:
        if os.path.exists(ref):
            try:
                return read_result(ref).to_dict()
            except ValueError as error:
                raise SystemExit(str(error))
        try:
            history = perf_history.read_history(args.history)
            return perf_history.find_entry(history, ref)
        except (KeyError, ValueError) as error:
            raise SystemExit(str(error))

    a, b = load(args.refs[0]), load(args.refs[1])
    rows = perf_history.compare_entries(a, b)
    if not rows:
        raise SystemExit("the two runs share no metrics to compare")
    label_a = a.get("commit", args.refs[0])
    label_b = b.get("commit", args.refs[1])
    print(f"A = {label_a}")
    print(f"B = {label_b}")
    print(perf_history.diff_table(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    if worse:
        print(f"{len(worse)} metric(s) worse in B")
        return 1
    return 0


def _load_trace(path: str) -> list[dict]:
    """Read one JSONL trace for reporting; SystemExit one-liners on junk."""
    from repro.telemetry import read_events

    try:
        events = read_events(path)
    except OSError as error:
        raise SystemExit(f"cannot read trace: {error}")
    except ValueError as error:
        raise SystemExit(str(error))
    if not events:
        raise SystemExit(f"no telemetry events in {path!r} (empty trace)")
    recognized = ("span", "counter", "gauge", "histogram", "meta")
    if not any(event.get("type") in recognized for event in events):
        raise SystemExit(
            f"{path!r} contains no telemetry events — expected the JSONL "
            f"written by `repro train --trace`"
        )
    return events


def cmd_report(args) -> int:
    """Summarize a JSONL trace written by ``train --trace``."""
    from repro.telemetry import TraceSummary, write_chrome_trace

    events = _load_trace(args.trace)
    summary = TraceSummary.from_events(events)
    if args.compare:
        other = TraceSummary.from_events(_load_trace(args.compare))
        print(f"A = {args.trace}")
        print(f"B = {args.compare}")
        print(_report_diff(summary, other))
        return 0
    print(summary.format())
    if args.chrome:
        spans = write_chrome_trace(args.chrome, events, clock=args.clock)
        print()
        print(f"chrome trace     : {args.chrome} ({spans} spans)")
    return 0


def _report_diff(a, b) -> str:
    """Per-phase wall/sim diff of two trace summaries."""
    from repro.bench.report import format_table
    from repro.telemetry.summary import PhaseStats

    def row(label, stats_a, stats_b):
        wall_a, wall_b = stats_a.wall_seconds, stats_b.wall_seconds
        delta = (wall_b - wall_a) / wall_a * 100.0 if wall_a > 0 else 0.0
        return [label, f"{wall_a:.4f}", f"{wall_b:.4f}", f"{delta:+.1f}%",
                f"{stats_a.sim_seconds:.6f}", f"{stats_b.sim_seconds:.6f}"]

    rows = [
        row(phase, a.phases.get(phase, PhaseStats()),
            b.phases.get(phase, PhaseStats()))
        for phase in {**a.phases, **b.phases}
    ]
    rows.append(row("total (leaf)", *(
        PhaseStats(wall_seconds=s.total_wall_seconds,
                   sim_seconds=s.total_sim_seconds) for s in (a, b)
    )))
    return format_table(
        ["phase", "wall A", "wall B", "wall delta", "sim A", "sim B"], rows
    )


def cmd_profile(args) -> int:
    """Profile one run (or an existing trace): ``report``'s summary plus
    memory marks, folded stacks and a JSON dump.

    A parallel run's ranks each profile under their own
    :class:`~repro.telemetry.profile.ProfilingTracer`; their memory keys
    carry a ``rank<r>/`` prefix, so memory is attributed to the process
    that used it.
    """
    from repro.bench.metadata import run_metadata
    from repro.telemetry import (
        TraceSummary, telemetry_events, write_chrome_trace,
    )
    from repro.telemetry.metrics import fold_ranks
    from repro.telemetry.profile import (
        ProfilingTracer, write_folded, write_profile_json,
    )

    if args.trace:
        events = _load_trace(args.trace)
        memory = meta = None
    elif args.benchmark:
        spec = _cell(args.benchmark, args.compressor)
        _writable(args.folded, args.chrome, args.out)
        _, spans, metrics, memory, _ = _run_cell(args, spec, ProfilingTracer)
        events = telemetry_events(spans, fold_ranks(metrics))
        meta = run_metadata(seed=args.seed)
    else:
        raise SystemExit(
            "profile needs --benchmark (to run) or --trace (to load)"
        )
    summary = TraceSummary.from_events(events, memory)
    print(summary.format())
    extras = []
    if args.folded:
        lines = write_folded(args.folded, events)
        extras.append(f"folded stacks    : {args.folded} ({lines} stacks)")
    if args.chrome:
        spans = write_chrome_trace(args.chrome, events)
        extras.append(f"chrome trace     : {args.chrome} ({spans} spans)")
    if args.out:
        write_profile_json(args.out, summary, meta=meta)
        extras.append(f"profile json     : {args.out}")
    if extras:
        print()
        for line in extras:
            print(line)
    return 0


def cmd_lint(args) -> int:
    """Run the static contract rules; exit nonzero on new findings."""
    from repro.analysis.lint.cli import run_lint

    return run_lint(args)


def cmd_protocol_check(args) -> int:
    """Exhaustively model-check the 2-rank arena state machine."""
    import json

    from repro.analysis.protocol import run_protocol_check

    summary = run_protocol_check(seqs=args.seqs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for name, scenario in sorted(summary["scenarios"].items()):
        verdict = "ok" if scenario["ok"] else "FAIL"
        print(f"{name:<24}: {verdict}  "
              f"({scenario['states']} states, "
              f"{scenario['terminals']} terminal)")
    print(f"protocol-check   : {'ok' if summary['ok'] else 'FAIL'}")
    return 0 if summary["ok"] else 1


def cmd_experiment(args) -> int:
    """Regenerate one of the paper's tables/figures."""
    from repro.bench.experiments import (
        bandwidth, ef_ablation, fig1, fig6, fig7, fig8, fig9, fig10,
        table1, table2,
    )

    modules = {
        "table1": table1, "table2": table2, "fig1": fig1, "fig6": fig6,
        "fig7": fig7, "fig8": fig8, "fig9": fig9, "fig10": fig10,
        "bandwidth": bandwidth, "ef": ef_ablation,
    }
    if args.name not in modules:
        raise SystemExit(
            f"unknown experiment {args.name!r}; "
            f"choose from {', '.join(sorted(modules))}"
        )
    module = modules[args.name]
    kwargs: dict = {}
    if args.compressors:
        kwargs["compressors"] = args.compressors.split(",")
    if args.panels and args.name in ("fig6", "fig7"):
        kwargs["panels"] = args.panels.split(",")
    if args.epochs is not None and args.name in ("fig1", "fig6", "fig7",
                                                 "fig10", "ef"):
        kwargs["epochs"] = args.epochs
    rows = module.run(**kwargs)
    print(module.format(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
    from repro.core.config import SANITIZE_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRACE (ICDCS 2021) reproduction — compressed "
                    "communication for distributed ML",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print Table I (all implemented methods)")

    compress = sub.add_parser("compress",
                              help="compress one gradient-like tensor")
    compress.add_argument("--method", required=True)
    compress.add_argument("--elements", type=int, default=1 << 16)
    compress.add_argument("--scale", type=float, default=1e-2)
    compress.add_argument("--seed", type=int, default=0)
    compress.add_argument("--param", action="append", default=[],
                          metavar="KEY=VALUE")

    train = sub.add_parser("train", help="train one benchmark cell")
    train.add_argument("--benchmark", required=True)
    train.add_argument("--compressor", default="none")
    train.add_argument("--workers", type=int, default=4, metavar="N",
                       help="ranks: simulated (--backend sim) or worker "
                            "processes (--backend parallel); default 4")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    train.add_argument("--topology", choices=["flat", "ps", "hier"],
                       default="flat",
                       help="reduction substrate: flat collectives, a "
                            "central parameter server, or a two-tier "
                            "rack-then-root tree (default: flat)")
    train.add_argument("--racks", type=int, default=None, metavar="K",
                       help="rack count for --topology hier (default: 2)")
    train.add_argument("--aggregation", choices=["auto", "off", "all"],
                       default=None,
                       help="compressed-domain aggregation policy on "
                            "ps/hier topologies: auto uses it for "
                            "exact-linear schemes, whose parameter-server "
                            "aggregate ships only when smaller than the "
                            "relay, so auto never prices above off; all "
                            "extends it to codebook/sketch schemes, off "
                            "disables it (default: auto)")
    train.add_argument("--fusion-mb", type=float, default=0.0,
                       metavar="MB",
                       help="tensor-fusion buffer budget in MiB; 0 keeps "
                            "the per-tensor exchange (default)")
    train.add_argument("--overlap", action="store_true",
                       help="overlap compressed communication with the "
                            "backward pass (DDP-style bucketed schedule; "
                            "same parameter math, adds sim makespan and "
                            "overlap-fraction accounting)")
    _add_resilience_flags(train)
    train.add_argument("--sanitize", nargs="?", const="contract",
                       default="off", choices=SANITIZE_LEVELS,
                       help="runtime sanitizers (docs/ANALYSIS.md): "
                            "contract re-validates every compress call, "
                            "arena (--backend parallel) replays every "
                            "rank's arena protocol events through a "
                            "happens-before checker, all does both "
                            "(default off; bare --sanitize: contract)")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL telemetry trace here")
    train.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="write a Chrome trace_event JSON here "
                            "(load in Perfetto / chrome://tracing)")
    train.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus text snapshot here")
    train.add_argument("--backend", choices=["sim", "parallel"],
                       default="sim",
                       help="execution backend: the sequential simulator "
                            "(default) or real OS processes exchanging "
                            "gradients through shared memory (bitwise the "
                            "same model; see docs/PERFORMANCE.md)")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-rank worker checkpoints "
                            "under --backend parallel (default: a "
                            "temporary directory, removed after the run)")

    bench = sub.add_parser(
        "bench",
        help="run a perf suite (fusion, overlap, faults, throughput) or "
             "compare two recorded runs",
    )
    bench.add_argument("what",
                       choices=["fusion", "overlap", "faults",
                                "throughput", "compare"],
                       help="which suite to run (or 'compare' to diff "
                            "two recorded runs)")
    bench.add_argument("refs", nargs="*",
                       help="for compare: two RunResult JSON paths or "
                            "history commit prefixes")
    # Every flag but --history defaults to None: only a suite that reads
    # it may set it.
    bench.add_argument("--compressor",
                       help="compressor for the fusion benchmark "
                            "(default: topk)")
    bench.add_argument("--workers", type=int, metavar="N",
                       help="simulated ranks for the fusion benchmark "
                            "(default: 8)")
    bench.add_argument("--iterations", type=int, metavar="N",
                       help="training iterations for the fusion "
                            "benchmark (default: 30)")
    bench.add_argument("--out", metavar="PATH",
                       help="result JSON path (default: benchmarks/"
                            "results/BENCH_<suite>.json; '-' skips the "
                            "write)")
    bench.add_argument("--history",
                       default="benchmarks/results/PERF_HISTORY.jsonl",
                       metavar="PATH",
                       help="append-only perf-history JSONL the "
                            "regression gate and compare read")
    bench.add_argument("--record", action="store_true", default=None,
                       help="append this run to the perf history (skipped "
                            "when --check fails, so a regression cannot "
                            "poison its own baseline)")
    bench.add_argument("--check", action="store_true", default=None,
                       help="exit nonzero unless the suite's acceptance "
                            "criteria hold AND no gated metric regresses "
                            "past its tolerance band vs the rolling "
                            "history baseline")
    bench.add_argument("--parallel", action="store_true", default=None,
                       help="throughput suite: measure real multiprocess "
                            "wall clock (fused vs per-tensor) instead of "
                            "the closed-form model")

    report = sub.add_parser(
        "report", help="summarize a JSONL trace from train --trace"
    )
    report.add_argument("trace", help="JSONL trace path")
    report.add_argument("--compare", default=None, metavar="TRACE",
                        help="diff this trace (B) against the positional "
                             "trace (A): per-phase wall/sim deltas")
    report.add_argument("--chrome", default=None, metavar="PATH",
                        help="also convert the trace to Chrome JSON")
    report.add_argument("--clock", choices=["wall", "sim"], default="wall",
                        help="timeline for --chrome: measured wall clock "
                             "(default) or the simulated event timeline "
                             "(renders overlap concurrency)")

    profile = sub.add_parser(
        "profile",
        help="phase-level run profiler: train one cell (or load a "
             "trace) and attribute step time to compress/network/"
             "decompress/apply phases",
    )
    profile.add_argument("--trace", default=None, metavar="PATH",
                         help="profile an existing JSONL trace instead of "
                              "running a benchmark")
    profile.add_argument("--benchmark", default=None,
                         help="benchmark key to train under the profiler")
    profile.add_argument("--compressor", default="topk")
    profile.add_argument("--workers", type=int, default=4, metavar="N",
                         help="ranks: simulated (--backend sim) or worker "
                              "processes (--backend parallel); default 4")
    profile.add_argument("--epochs", type=int, default=1)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--fusion-mb", type=float, default=0.0,
                         metavar="MB")
    profile.add_argument("--overlap", action="store_true",
                         help="profile the overlapped exchange schedule")
    profile.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE")
    profile.add_argument("--backend", choices=["sim", "parallel"],
                         default="sim",
                         help="profile the sequential simulator (default) "
                              "or the real-parallel backend (merged "
                              "per-rank shards, rank-attributed memory)")
    profile.add_argument("--folded", default=None, metavar="PATH",
                         help="write flamegraph-compatible folded stacks "
                              "(feed to flamegraph.pl or speedscope)")
    profile.add_argument("--chrome", default=None, metavar="PATH",
                         help="write a Chrome trace_event JSON")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write the profile (with run metadata) as "
                              "JSON")

    chaos = sub.add_parser(
        "chaos",
        help="seeded kill-schedule campaign against the real-parallel "
             "backend: every trial SIGKILLs one worker mid-run and "
             "asserts recovery (see docs/ROBUSTNESS.md)",
    )
    chaos.add_argument("--benchmark", default="ncf-movielens",
                       help="training benchmark key (default: the "
                            "cheapest spawn-friendly cell)")
    chaos.add_argument("--compressor", default="topk")
    chaos.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker processes per trial (default 2)")
    chaos.add_argument("--trials", type=int, default=3, metavar="N",
                       help="seeded kills to run (default 3)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="kill-schedule seed (also the training seed)")
    from repro.core.config import RECOVERY_POLICIES

    chaos.add_argument("--recovery", choices=RECOVERY_POLICIES,
                       default="restart",
                       help="crash handling under test (default "
                            "%(default)s)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="write the campaign's RunResult JSON")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST contract rules (GR001-GR011) over "
             "src/repro or the given paths",
    )
    from repro.analysis.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    protocol = sub.add_parser(
        "protocol-check",
        help="exhaustively enumerate the 2-rank arena state machine "
             "(bump-allocator wraparound, worker death, degraded "
             "cohorts) and fail on any reachable torn read, stale "
             "metadata, or deadlock",
    )
    protocol.add_argument("--seqs", type=int, default=3, metavar="N",
                          help="sequence numbers each rank publishes; 3 "
                               "forces meta-ring and data wraparound "
                               "(default 3)")
    protocol.add_argument("--out", default=None, metavar="PATH",
                          help="also write the scenario summary as JSON")

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name")
    experiment.add_argument("--compressors", default=None,
                            help="comma-separated subset")
    experiment.add_argument("--panels", default=None,
                            help="comma-separated panels (fig6/fig7)")
    experiment.add_argument("--epochs", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "compress": cmd_compress,
        "train": cmd_train,
        "bench": cmd_bench,
        "report": cmd_report,
        "profile": cmd_profile,
        "chaos": cmd_chaos,
        "lint": cmd_lint,
        "protocol-check": cmd_protocol_check,
        "experiment": cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
