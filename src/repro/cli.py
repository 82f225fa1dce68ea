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


#: ``train`` flags only one backend reads, with that backend's defaults.
_BACKEND_FLAGS = {
    "sim": {"workers": 4},
    "parallel": {"nproc": 4, "arena_mb": 32.0, "stall_timeout": 30.0,
                 "checkpoint_dir": None},
}


def _backend_flags(args) -> None:
    """Reject each flag the chosen backend would ignore; default the rest."""
    from repro.core.config import sanitizes

    for backend, flags in _BACKEND_FLAGS.items():
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif backend != args.backend:
                raise SystemExit(
                    f"--{dest.replace('_', '-')} requires --backend {backend}"
                )
    if args.backend == "sim" and sanitizes(args.sanitize, "arena"):
        raise SystemExit(f"--sanitize {args.sanitize} requires --backend "
                         "parallel")


def _add_resilience_flags(parser, chaos: bool = False) -> None:
    """The :class:`~repro.core.config.Resilience` fields as flags.

    ``chaos`` injects its own kills: it takes no ``--faults`` or
    ``--straggler-policy`` and defaults to lossless restart recovery.
    """
    from repro.core.config import RECOVERY_POLICIES, STRAGGLER_POLICIES

    if not chaos:
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
                        default="restart" if chaos else "degrade",
                        help="crash handling: re-normalize over survivors "
                             "or roll back to the latest EF-aware "
                             "checkpoint (default %(default)s)")
    parser.add_argument("--checkpoint-every", type=int, metavar="N",
                        default=1 if chaos else 0,
                        help="checkpoint every N iterations (0: never, "
                             "or every one for restart recovery under "
                             "faults; default %(default)s)")


def _resilience(args):
    """The run's one :class:`~repro.core.config.Resilience`."""
    from repro.core.config import Resilience

    try:
        return Resilience(getattr(args, "faults", None), args.recovery,
                          args.checkpoint_every,
                          getattr(args, "straggler_policy", "wait"))
    except ValueError as error:
        raise SystemExit(str(error))


def cmd_train(args) -> int:
    """Train one (benchmark, compressor) cell and print the report."""
    from repro.bench.runner import train_quality
    from repro.bench.suite import BENCHMARKS, get_benchmark

    if args.benchmark not in BENCHMARKS:
        raise SystemExit(
            f"unknown benchmark {args.benchmark!r}; "
            f"choose from {', '.join(sorted(BENCHMARKS))}"
        )
    spec = get_benchmark(args.benchmark)
    _backend_flags(args)
    resilience = _resilience(args)
    if args.backend == "parallel":
        return _train_parallel(args, spec, resilience)
    tracing = bool(args.trace or args.chrome_trace or args.metrics_out)
    tracer = None
    if tracing:
        from repro.telemetry import Tracer

        # Fail on unwritable output paths now, not after training.
        for path in (args.trace, args.chrome_trace, args.metrics_out):
            if path:
                try:
                    with open(path, "a", encoding="utf-8"):
                        pass
                except OSError as error:
                    raise SystemExit(f"cannot write {path!r}: {error}")
        tracer = Tracer()
    result = train_quality(
        spec,
        args.compressor,
        n_workers=args.workers,
        seed=args.seed,
        epochs=args.epochs,
        compressor_params=_parse_params(args.param) or None,
        tracer=tracer,
        fusion_mb=args.fusion_mb,
        overlap=args.overlap,
        resilience=resilience,
        sanitize=args.sanitize,
        topology=args.topology,
        racks=args.racks,
        aggregation=args.aggregation,
    )
    report = result.report
    print(f"benchmark        : {spec.key} ({spec.model_name})")
    print(f"compressor       : {args.compressor}")
    if args.topology != "flat":
        label = args.topology
        if args.topology == "hier":
            label = f"hier ({args.racks} racks)"
        print(f"topology         : {label}")
        root_in = report.metrics.value(
            "comm_root_bytes_total", {"direction": "ingress"}
        )
        root_out = report.metrics.value(
            "comm_root_bytes_total", {"direction": "egress"}
        )
        print(f"root bytes       : {root_in:,.0f} in / {root_out:,.0f} out")
    print(f"epochs           : {len(report.epoch_losses)}")
    print(f"final loss       : {report.epoch_losses[-1]:.4f}")
    print(f"best {spec.paper.metric:<12}: "
          f"{result.display_quality(spec):.4f}")
    print(f"bytes/worker/iter: "
          f"{report.bytes_per_worker_per_iteration:,.0f}")
    print(f"simulated comm   : {report.sim_comm_seconds:.3f} s")
    if args.faults:
        metrics = report.metrics
        injected = sum(
            i.value for i in metrics.instruments()
            if i.name == "faults_injected_total"
        )
        print(f"faults injected  : {injected:,.0f}")
        print(f"retries          : "
              f"{metrics.value('retries_total'):,.0f}")
        print(f"degraded iters   : "
              f"{metrics.value('degraded_iterations_total'):,.0f}")
        print(f"recovery time    : {report.sim_recovery_seconds:.3f} s")
    if args.overlap:
        print(f"sim makespan     : {report.sim_makespan_seconds:.3f} s")
        print(f"exposed comm     : {report.sim_exposed_comm_seconds:.3f} s")
        print(f"hidden comm      : {report.sim_hidden_comm_seconds:.3f} s")
        print(f"overlap fraction : {100.0 * report.overlap_fraction:.1f}%")
    if tracing:
        _export_trace(args, tracer, report)
    return 0


def _train_parallel(args, spec, resilience) -> int:
    """Train one cell across real worker processes and print the report."""
    from repro.comm.parallel import ParallelRunConfig, run_parallel

    if args.topology != "flat":
        raise SystemExit(
            "--backend parallel supports only the flat topology; use the "
            "sequential simulator (--backend sim) for ps/hier"
        )
    config = ParallelRunConfig(
        benchmark=args.benchmark,
        compressor=args.compressor,
        nproc=args.nproc,
        seed=args.seed,
        epochs=args.epochs,
        compressor_params=_parse_params(args.param) or None,
        fusion_mb=args.fusion_mb,
        overlap=args.overlap,
        sanitize=args.sanitize,
        trace=bool(args.trace or args.chrome_trace),
        metrics=bool(args.metrics_out),
        arena_bytes=int(args.arena_mb * 1024 * 1024),
        resilience=resilience,
        checkpoint_dir=args.checkpoint_dir,
        stall_timeout=args.stall_timeout,
    )
    try:
        result = run_parallel(config)
    except ValueError as error:
        # Config the parallel backend rejects (sim-only fault kinds,
        # the backup straggler policy, rejoin under degrade, ...).
        raise SystemExit(str(error))
    report = result.report
    digest = next(iter(result.digests.values()))
    quality = result.best_quality
    if spec.paper.metric == "Test Perplexity":
        quality = -quality
    print(f"benchmark        : {spec.key} ({spec.model_name})")
    print(f"compressor       : {args.compressor}")
    print(f"backend          : parallel ({args.nproc} processes)")
    print(f"epochs           : {len(report.epoch_losses)}")
    print(f"final loss       : {report.epoch_losses[-1]:.4f}")
    print(f"best {spec.paper.metric:<12}: {quality:.4f}")
    print(f"bytes/worker/iter: "
          f"{report.bytes_per_worker_per_iteration:,.0f}")
    print(f"simulated comm   : {report.sim_comm_seconds:.3f} s")
    print(f"wall clock       : {result.wall_seconds:.2f} s")
    print("rank threads     : " + " ".join(
        f"{var}={value}" for var, value in result.environment.items()
    ))
    print(f"model digest     : {digest[:16]} "
          f"(all {len(result.digests)} ranks agree)")
    if result.sanitizer is not None:
        san = result.sanitizer
        print(f"arena sanitizer  : "
              f"{'ok' if san.ok else f'{len(san.violations)} violation(s)'} "
              f"({san.events_total} events)")
    if args.faults or result.recoveries:
        print(f"recoveries       : {len(result.recoveries)}")
        for rec in result.recoveries:
            print(f"  incarnation {rec['incarnation']}: ranks "
                  f"{rec['dead_ranks']} died, cohort {rec['cohort']} "
                  f"resumed from iteration {rec['restored_iteration']}")
        print(f"recovery time    : {report.sim_recovery_seconds:.3f} s")
    if args.metrics_out:
        from repro.telemetry import write_prometheus

        write_prometheus(args.metrics_out, result.metrics)
        print(f"metrics          : {args.metrics_out}")
    if args.overlap:
        print(f"sim makespan     : {report.sim_makespan_seconds:.3f} s")
        print(f"exposed comm     : {report.sim_exposed_comm_seconds:.3f} s")
        print(f"hidden comm      : {report.sim_hidden_comm_seconds:.3f} s")
        print(f"overlap fraction : {100.0 * report.overlap_fraction:.1f}%")
    if args.trace:
        _write_parallel_trace(args.trace, result.events)
        print(f"trace            : {args.trace} "
              f"({len(result.events)} events)")
    if args.chrome_trace:
        from repro.telemetry import write_chrome_trace

        spans = write_chrome_trace(args.chrome_trace, result.events)
        print(f"chrome trace     : {args.chrome_trace} ({spans} spans)")
    return 0


def _write_parallel_trace(path: str, events: list[dict]) -> None:
    """Write merged per-rank span events as a standard JSONL trace."""
    import json

    from repro.telemetry.exporters import JSONL_VERSION

    with open(path, "w", encoding="utf-8") as handle:
        meta = {"type": "meta", "version": JSONL_VERSION,
                "clock": "perf_counter"}
        for event in [meta, *events]:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


def _export_trace(args, tracer, report) -> None:
    """Write the requested trace/metrics artifacts and wire stats."""
    from repro.telemetry import (
        render_fields, wire_stats_fields, write_chrome_trace, write_jsonl,
        write_prometheus,
    )

    metrics = tracer.metrics
    print()
    print(render_fields(wire_stats_fields(
        raw_nbytes=metrics.value("compress_raw_bytes_total"),
        wire_nbytes=metrics.value("compress_wire_bytes_total"),
        framing_nbytes=metrics.value("wire_framing_overhead_bytes_total"),
        kernel_seconds=report.measured_compression_seconds,
    )))
    if args.trace:
        events = write_jsonl(args.trace, tracer, metrics)
        print(f"trace            : {args.trace} ({events} events)")
    if args.chrome_trace:
        spans = write_chrome_trace(args.chrome_trace, tracer.spans)
        print(f"chrome trace     : {args.chrome_trace} ({spans} spans)")
    if args.metrics_out:
        write_prometheus(args.metrics_out, metrics)
        print(f"metrics          : {args.metrics_out}")


def cmd_chaos(args) -> int:
    """Run a seeded kill campaign and report the recovery verdicts."""
    from repro.faults.chaos import run_chaos

    result = run_chaos(
        benchmark=args.benchmark,
        compressor=args.compressor,
        nproc=args.nproc,
        trials=args.trials,
        seed=args.seed,
        epochs=args.epochs,
        resilience=_resilience(args),
        loss_tolerance=args.loss_tolerance,
        arena_bytes=int(args.arena_mb * 1024 * 1024),
        stall_timeout=args.stall_timeout,
    )
    print(result.describe())
    if args.sanitizer_report:
        import json

        with open(args.sanitizer_report, "w", encoding="utf-8") as handle:
            json.dump(result.sanitizer_summary(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"sanitizer report : {args.sanitizer_report}")
    return 0 if result.passed else 1


#: Which harness argument each ``repro bench`` flag sets, per suite.
_BENCH_FLAGS = {
    "fusion": {"benchmark": "benchmark", "compressor": "compressor",
               "workers": "n_workers", "iterations": "iterations",
               "fusion_mb": "fusion_mb", "seed": "seed",
               "param": "compressor_params"},
    "overlap": {"benchmark": "benchmark", "compressors": "compressors",
                "networks": "networks", "workers": "n_workers",
                "fusion_mb": "fusion_mb"},
    "faults": {"workers": "n_workers", "iterations": "iterations",
               "seed": "seed"},
    "throughput": {"benchmark": "benchmark", "compressors": "compressors",
                   "workers": "n_workers", "gbps": "gbps", "seed": "seed",
                   "hier_workers": "hier_workers",
                   "hier_racks": "hier_racks",
                   "hier_compressor": "hier_compressor"},
    "parallel": {"benchmark": "benchmark", "nproc": "nproc",
                 "fusion_mb": "fusion_mb", "seed": "seed"},
}


def _bench_harness(args):
    """The harness ``args`` picks and the arguments the user gave it.

    A flag left unset is not passed, so the harness's own signature is
    the one set of defaults.
    """
    from repro.bench.faults_bench import run_faults_bench
    from repro.bench.fusion_bench import run_fusion_bench
    from repro.bench.overlap_bench import run_overlap_bench
    from repro.bench.throughput import run_parallel_bench, run_throughput_bench

    harnesses = {
        "fusion": run_fusion_bench,
        "overlap": run_overlap_bench,
        "faults": run_faults_bench,
        "throughput": run_throughput_bench,
    }
    suite = args.what
    harness = harnesses[suite]
    if suite == "throughput" and args.parallel:
        suite, harness = "parallel", run_parallel_bench
    given = dict(vars(args))
    for flag in ("compressors", "networks"):
        if given[flag]:
            given[flag] = tuple(given[flag].split(","))
    given["param"] = _parse_params(args.param) or None
    kwargs = {
        name: given[flag] for flag, name in _BENCH_FLAGS[suite].items()
        if given[flag] is not None
    }
    return harness, kwargs


def cmd_bench(args) -> int:
    """Run one perf harness (or compare two recorded runs).

    Every harness returns one :class:`~repro.bench.result.RunResult`:
    one artifact (``benchmarks/results/BENCH_<suite>.json``), one
    history file and one regression gate (``--check``).
    """
    if args.what == "compare":
        return _bench_compare(args)
    from repro.bench import history as perf_history
    from repro.bench.result import write_result

    harness, kwargs = _bench_harness(args)
    try:
        result = harness(**kwargs)
    except (KeyError, ValueError) as error:
        # How the harnesses reject their input: an unknown benchmark,
        # compressor or network profile, or an out-of-range count.
        raise SystemExit(
            f"bench {args.what}: " + " ".join(map(str, error.args))
        )
    print(result.text)
    out = args.out
    if out is None:
        out = f"benchmarks/results/BENCH_{result.suite}.json"
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
    import os

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
    from repro.telemetry import summarize_events, write_chrome_trace

    summary = summarize_events(_load_trace(args.trace))
    if args.compare:
        other = summarize_events(_load_trace(args.compare))
        print(f"A = {args.trace}")
        print(f"B = {args.compare}")
        print(_report_diff(summary, other))
        return 0
    print(summary.format())
    if args.chrome:
        events = _load_trace(args.trace)
        spans = write_chrome_trace(args.chrome, events, clock=args.clock)
        print()
        print(f"chrome trace     : {args.chrome} ({spans} spans)")
    return 0


def _report_diff(a, b) -> str:
    """Per-phase wall/sim diff of two trace summaries."""
    from repro.bench.report import format_table

    # ``iteration`` spans are parents of the leaf phases; listing them
    # next to their children would double-count the step.
    phases = [p for p in a.phases if p != "iteration"]
    phases += [p for p in b.phases if p not in a.phases and p != "iteration"]
    rows = []
    for phase in phases:
        stats_a = a.phases.get(phase)
        stats_b = b.phases.get(phase)
        wall_a = stats_a.wall_seconds if stats_a else 0.0
        wall_b = stats_b.wall_seconds if stats_b else 0.0
        sim_a = stats_a.sim_seconds if stats_a else 0.0
        sim_b = stats_b.sim_seconds if stats_b else 0.0
        delta = ((wall_b - wall_a) / wall_a * 100.0) if wall_a > 0 else 0.0
        rows.append([
            phase, f"{wall_a:.4f}", f"{wall_b:.4f}", f"{delta:+.1f}%",
            f"{sim_a:.6f}", f"{sim_b:.6f}",
        ])
    rows.append([
        "total (leaf)", f"{a.total_wall_seconds:.4f}",
        f"{b.total_wall_seconds:.4f}",
        (f"{(b.total_wall_seconds - a.total_wall_seconds) / a.total_wall_seconds * 100.0:+.1f}%"
         if a.total_wall_seconds > 0 else "+0.0%"),
        f"{a.total_sim_seconds:.6f}", f"{b.total_sim_seconds:.6f}",
    ])
    return format_table(
        ["phase", "wall A", "wall B", "wall delta", "sim A", "sim B"], rows
    )


def cmd_profile(args) -> int:
    """Phase-level profile of one run (or of an existing trace)."""
    from repro.telemetry.profile import (
        profile_events, profile_tracer, write_folded, write_profile_json,
    )
    from repro.telemetry import write_chrome_trace

    if args.trace:
        events = _load_trace(args.trace)
        profile = profile_events(events, metrics_events=events)
        spans_source = events
        meta = None
    else:
        if not args.benchmark:
            raise SystemExit(
                "profile needs --benchmark (to run) or --trace (to load)"
            )
        if args.backend == "parallel":
            profile, spans_source, meta = _profile_parallel(args)
        else:
            profile, spans_source, meta = _profile_run(args)
    print(profile.format())
    extras = []
    if args.folded:
        lines = write_folded(args.folded, spans_source)
        extras.append(f"folded stacks    : {args.folded} ({lines} stacks)")
    if args.chrome:
        spans = write_chrome_trace(args.chrome, spans_source)
        extras.append(f"chrome trace     : {args.chrome} ({spans} spans)")
    if args.out:
        write_profile_json(args.out, profile, meta=meta)
        extras.append(f"profile json     : {args.out}")
    if extras:
        print()
        for line in extras:
            print(line)
    return 0


def _profile_run(args):
    """Train one cell under the ProfilingTracer; returns its profile."""
    from repro.bench.metadata import run_metadata
    from repro.bench.runner import train_quality
    from repro.bench.suite import BENCHMARKS, get_benchmark
    from repro.telemetry.profile import ProfilingTracer, profile_tracer

    if args.benchmark not in BENCHMARKS:
        raise SystemExit(
            f"unknown benchmark {args.benchmark!r}; "
            f"choose from {', '.join(sorted(BENCHMARKS))}"
        )
    spec = get_benchmark(args.benchmark)
    tracer = ProfilingTracer()
    train_quality(
        spec,
        args.compressor,
        n_workers=args.workers,
        seed=args.seed,
        epochs=args.epochs,
        compressor_params=_parse_params(args.param) or None,
        tracer=tracer,
        fusion_mb=args.fusion_mb,
        overlap=args.overlap,
    )
    tracer.finalize()
    return profile_tracer(tracer), tracer.spans, run_metadata(seed=args.seed)


def _profile_parallel(args):
    """Profile a real-parallel run: merged shards, per-rank memory.

    Each worker rank runs under its own :class:`ProfilingTracer`
    (child-process ``tracemalloc`` + ``ru_maxrss``); the parent merges
    the span shards and prefixes every memory key with ``rank<r>/`` so
    the profile attributes memory to the process that used it.
    """
    from repro.bench.metadata import run_metadata
    from repro.bench.suite import BENCHMARKS
    from repro.comm.parallel import ParallelRunConfig, run_parallel
    from repro.telemetry.profile import profile_events

    if args.benchmark not in BENCHMARKS:
        raise SystemExit(
            f"unknown benchmark {args.benchmark!r}; "
            f"choose from {', '.join(sorted(BENCHMARKS))}"
        )
    result = run_parallel(ParallelRunConfig(
        benchmark=args.benchmark,
        compressor=args.compressor,
        nproc=args.nproc,
        seed=args.seed,
        epochs=args.epochs,
        compressor_params=_parse_params(args.param) or None,
        fusion_mb=args.fusion_mb,
        overlap=args.overlap,
        profile=True,
    ))
    profile = profile_events(
        result.events, memory=dict(sorted(result.memory_high_water.items()))
    )
    return profile, result.events, run_metadata(seed=args.seed)


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
    train.add_argument("--workers", type=int, default=None, metavar="N",
                       help="simulated ranks for --backend sim (default 4)")
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    train.add_argument("--topology", choices=["flat", "ps", "hier"],
                       default="flat",
                       help="reduction substrate: flat collectives, a "
                            "central parameter server, or a two-tier "
                            "rack-then-root tree (default: flat)")
    train.add_argument("--racks", type=int, default=2, metavar="K",
                       help="rack count for --topology hier (default: 2)")
    train.add_argument("--aggregation", choices=["auto", "off", "all"],
                       default="auto",
                       help="compressed-domain aggregation policy on "
                            "ps/hier topologies: auto uses it for "
                            "exact-linear schemes, all extends it to "
                            "codebook/sketch schemes, off disables it "
                            "(default: auto)")
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
    train.add_argument("--nproc", type=int, default=None, metavar="N",
                       help="worker processes for --backend parallel "
                            "(replaces --workers there; default 4)")
    train.add_argument("--arena-mb", type=float, default=None, metavar="MB",
                       help="per-rank shared-memory data segment size for "
                            "--backend parallel (default 32)")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-rank worker checkpoints "
                            "under --backend parallel (default: a "
                            "temporary directory, removed after the run)")
    train.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="parallel watchdog: convict a rank whose "
                            "heartbeat has been silent this long "
                            "(default 30)")

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
    # Every run flag defaults to None: a flag left unset is not passed,
    # so the harness's signature supplies the default.
    bench.add_argument("--benchmark",
                       help="training benchmark key (default: "
                            "resnet20-cifar10, the fig6 CNN)")
    bench.add_argument("--compressor",
                       help="compressor for the fusion benchmark "
                            "(default: topk)")
    bench.add_argument("--compressors",
                       help="comma-separated compressors for the overlap/"
                            "throughput grids")
    bench.add_argument("--networks",
                       help="comma-separated network profiles for the "
                            "overlap benchmark grid (e.g. 1gbps-tcp, "
                            "25gbps-rdma; default: 1gbps-tcp,10gbps-tcp)")
    bench.add_argument("--workers", type=int, metavar="N",
                       help="simulated ranks (default: 8)")
    bench.add_argument("--iterations", type=int, metavar="N",
                       help="training iterations for fusion and faults "
                            "(default: 30; faults needs at least 21)")
    bench.add_argument("--fusion-mb", type=float, metavar="MB",
                       help="fusion buffer budget in MiB (default: 64 for "
                            "the fusion benchmark, 0.125 for overlap)")
    bench.add_argument("--gbps", type=float,
                       help="link bandwidth for the throughput suite "
                            "(default: 10)")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--hier-workers", type=int, metavar="N",
                       help="worker count for the throughput suite's "
                            "hierarchical section (default: 16)")
    bench.add_argument("--hier-racks", type=int, metavar="K",
                       help="rack count for the throughput suite's "
                            "hierarchical section (default: 4)")
    bench.add_argument("--hier-compressor", metavar="NAME",
                       help="compressor for the hierarchical section "
                            "(default: topk)")
    bench.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="result JSON path (default: benchmarks/"
                            "results/BENCH_<suite>.json; '-' skips the "
                            "write)")
    bench.add_argument("--history",
                       default="benchmarks/results/PERF_HISTORY.jsonl",
                       metavar="PATH",
                       help="append-only perf-history JSONL the "
                            "regression gate and compare read")
    bench.add_argument("--record", action="store_true",
                       help="append this run to the perf history (skipped "
                            "when --check fails, so a regression cannot "
                            "poison its own baseline)")
    bench.add_argument("--check", action="store_true",
                       help="exit nonzero unless the suite's acceptance "
                            "criteria hold AND no gated metric regresses "
                            "past its tolerance band vs the rolling "
                            "history baseline")
    bench.add_argument("--parallel", action="store_true",
                       help="throughput suite: measure real multiprocess "
                            "wall clock (fused vs per-tensor) instead of "
                            "the closed-form model")
    bench.add_argument("--nproc", type=int, metavar="N",
                       help="worker processes for --parallel (default 4)")

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
    profile.add_argument("--workers", type=int, default=4)
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
    profile.add_argument("--nproc", type=int, default=4, metavar="N",
                         help="worker processes for --backend parallel")
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
    chaos.add_argument("--nproc", type=int, default=2, metavar="N",
                       help="worker processes per trial (default 2)")
    chaos.add_argument("--trials", type=int, default=3, metavar="N",
                       help="seeded kills to run (default 3)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="kill-schedule seed (also the training seed)")
    chaos.add_argument("--epochs", type=int, default=1)
    _add_resilience_flags(chaos, chaos=True)
    chaos.add_argument("--loss-tolerance", type=float, default=0.15,
                       metavar="GAP",
                       help="max |final loss - clean loss| for degrade "
                            "recovery (default 0.15)")
    chaos.add_argument("--arena-mb", type=float, default=8.0, metavar="MB")
    chaos.add_argument("--stall-timeout", type=float, default=30.0,
                       metavar="SECONDS")
    chaos.add_argument("--sanitizer-report", default=None, metavar="PATH",
                       help="write the campaign's arena-sanitizer "
                            "happens-before summary (clean run + every "
                            "trial) as JSON; the sanitizer itself is "
                            "always on under chaos")

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
