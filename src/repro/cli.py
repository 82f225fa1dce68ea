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
    python -m repro lint --format json --out LINT.json
    python -m repro train --benchmark ncf-movielens --compressor qsgd \
        --sanitize
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from repro.core.config import (
    AGGREGATION_POLICIES, BACKENDS, RECOVERY_POLICIES, SANITIZE_LEVELS,
    STRAGGLER_POLICIES, TOPOLOGIES, Cell, Resilience,
)


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
    from repro.core.registry import check_params
    from repro.core.wire import framing_overhead_bytes
    from repro.telemetry.formatting import render_fields, wire_stats_fields

    if args.elements < 1:
        raise SystemExit(f"--elements must be >= 1, got {args.elements}")
    rng = np.random.default_rng(args.seed)
    # The most nearly square rows x cols = N, for kernels that take a
    # matrix view (1 x N when N is prime).
    rows = max(d for d in range(1, math.isqrt(args.elements) + 1)
               if args.elements % d == 0)
    shape = (rows, args.elements // rows)
    tensor = (args.scale * rng.standard_normal(shape)).astype(np.float32)
    params = _parse_params(args.param)
    _one_line(check_params, args.method, params)
    compressor = create(args.method, seed=args.seed, **params)
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


#: The :class:`~repro.core.config.Cell` fields ``train`` and
#: ``profile`` both take: field, flag and argparse options.
_CELL_FLAGS = (
    ("benchmark", "--benchmark", {"help": "benchmark key"}),
    ("compressor", "--compressor", {}),
    ("workers", "--workers", {
        "type": int, "metavar": "N",
        "help": "ranks: simulated (--backend sim) or worker processes "
                "(--backend parallel); default %(default)s"}),
    ("epochs", "--epochs", {
        "type": int, "help": "training epochs (default %(default)s; "
                             "None trains the benchmark's lite budget)"}),
    ("seed", "--seed", {"type": int}),
    ("compressor_params", "--param", {
        "action": "append", "default": [], "metavar": "KEY=VALUE"}),
    ("fusion_mb", "--fusion-mb", {
        "type": float, "metavar": "MB",
        "help": "tensor-fusion buffer budget in MiB; 0 keeps the "
                "per-tensor exchange (default)"}),
    ("overlap", "--overlap", {
        "action": "store_true",
        "help": "overlap compressed communication with the backward pass "
                "(DDP-style bucketed schedule; same parameter math, adds "
                "sim makespan and overlap-fraction accounting)"}),
    ("backend", "--backend", {
        "choices": BACKENDS,
        "help": "execution backend: the sequential simulator (default) or "
                "real OS processes exchanging gradients through shared "
                "memory (bitwise the same model; see "
                "docs/PERFORMANCE.md)"}),
)


def _add_cell_flags(parser, **defaults) -> None:
    """Declare :data:`_CELL_FLAGS` on ``parser``.

    A flag defaults to its field's default, or to ``defaults[field]``;
    a field with neither is a required flag.
    """
    fields = {field.name: field for field in dataclasses.fields(Cell)}
    for name, flag, options in _CELL_FLAGS:
        default = defaults.get(name, fields[name].default)
        if default is not dataclasses.MISSING:
            options = {**options, "default": default}
        parser.add_argument(flag, dest=name,
                            required="default" not in options, **options)


def _one_line(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError exits with its line."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise SystemExit(str(error))


def _args_cell(args, **fields) -> Cell:
    """The cell the :data:`_CELL_FLAGS` in ``args`` and ``fields`` name;
    one line naming what is wrong if it is not a cell."""
    values = {name: getattr(args, name) for name, _, _ in _CELL_FLAGS}
    values["compressor_params"] = _parse_params(values["compressor_params"])
    return _one_line(Cell, **values, **fields)


def _add_resilience_flags(parser) -> None:
    """The :class:`~repro.core.config.Resilience` fields as flags."""
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


def cmd_train(args) -> int:
    """Train one (benchmark, compressor) cell and print the report."""
    from repro.bench.runner import run_cell

    cell = _args_cell(
        args, topology=args.topology, racks=args.racks,
        aggregation=args.aggregation, sanitize=args.sanitize,
        resilience=_one_line(Resilience, args.faults, args.recovery,
                             args.checkpoint_every, args.straggler_policy),
    )
    if args.checkpoint_dir is not None and cell.backend != "parallel":
        raise SystemExit("--checkpoint-dir requires --backend parallel")
    outputs = (args.trace, args.chrome_trace, args.metrics_out)
    _writable(*outputs)
    # Traced for any output, on both backends: an untraced run records
    # no compress_/wire_ instruments for the wire stats or Prometheus.
    result = run_cell(cell, trace=any(outputs),
                      checkpoint_dir=args.checkpoint_dir)
    _print_run(cell, result)
    if any(outputs):
        _export_trace(args, result.events, result.metrics)
    return 0


def _print_run(cell: Cell, result) -> None:
    """``train``'s report of one run, on either backend."""
    from repro.bench.suite import get_benchmark

    spec = get_benchmark(cell.benchmark)
    report = result.report
    parallel = cell.backend == "parallel"
    print(f"benchmark        : {spec.key} ({spec.model_name})")
    print(f"compressor       : {cell.compressor}")
    if parallel:
        print(f"backend          : parallel ({cell.workers} processes)")
    if cell.topology != "flat":
        label = cell.topology
        if cell.topology == "hier":
            label = f"hier ({cell.racks} racks)"
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
    if parallel:
        print(f"wall clock       : {result.wall_seconds:.2f} s")
        print("rank threads     : " + " ".join(
            f"{var}={value}" for var, value in result.environment.items()
        ))
        digest = next(iter(result.digests.values()))
        print(f"model digest     : {digest[:16]} "
              f"(all {len(result.digests)} ranks agree)")
        san = result.sanitizer
        if san is not None:
            verdict = "ok" if san.ok else f"{len(san.violations)} violation(s)"
            print(f"arena sanitizer  : {verdict} ({san.events_total} events)")
    if cell.resilience.faults or result.recoveries:
        if not parallel:
            metrics = report.metrics
            injected = sum(
                i.value for i in metrics.instruments("faults_injected_total")
            )
            print(f"faults injected  : {injected:,.0f}")
            print(f"retries          : {metrics.value('retries_total'):,.0f}")
            print(f"degraded iters   : "
                  f"{metrics.value('degraded_iterations_total'):,.0f}")
        else:
            print(f"recoveries       : {len(result.recoveries)}")
            for rec in result.recoveries:
                print(f"  incarnation {rec['incarnation']}: ranks "
                      f"{rec['dead_ranks']} died, cohort {rec['cohort']} "
                      f"resumed from iteration {rec['restored_iteration']}")
        print(f"recovery time    : {report.sim_recovery_seconds:.3f} s")
    if cell.overlap:
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

    cell = _one_line(Cell, args.benchmark, args.compressor,
                     workers=args.workers, seed=args.seed)
    _writable(args.out)
    # Before the clean run: no trial, or a cell the parallel backend
    # cannot run; after it: a run too short to place a kill in.
    result = _one_line(run_chaos, cell, args.trials, args.recovery)
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
    if args.suite == "compare":
        return _bench_compare(args)
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
        "throughput": lambda: (run_parallel_bench() if args.parallel
                               else run_throughput_bench()),
    }[args.suite]
    try:
        result = harness()
    except (KeyError, ValueError) as error:
        # How the fusion harness rejects its input: an unknown
        # compressor or an out-of-range count.
        raise SystemExit(
            f"bench {args.suite}: " + " ".join(map(str, error.args))
        )
    if args.record and result.meta.get("git_dirty"):
        # A dirty tree's numbers belong to no commit.
        print("history          : not recorded (dirty tree)")
        return 1
    print(result.text)
    if args.out != "-":
        write_result(args.out, result)
        print(f"result json      : {args.out}")
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
        contract = perf_history.read_contract(
            perf_history.DEFAULT_CONTRACT_PATH
        )
        regressions = perf_history.check_against_history(
            result, history, contract
        )
        for regression in regressions:
            print(f"PERF REGRESSION: {regression}")
        if not regressions:
            gated = {
                name for name, m in result.metrics.items()
                if m.direction != "info"
            }
            pinned = len(
                gated & set(perf_history.contract_values(contract, result))
            )
            print(f"regression gate  : ok ({pinned} gated metrics vs "
                  f"{perf_history.DEFAULT_CONTRACT_PATH}, "
                  f"{len(gated) - pinned} vs {args.history})")
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
            # A KeyError's str() is the repr of its message.
            raise SystemExit(error.args[0])

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


#: Flags a command refuses unless another is given with them: argparse
#: cannot say "only together with".  The command enforces them, and the
#: check of the commands the docs quote holds every span to them.
REQUIRES = {"report": {"--clock": "--chrome"}}


def cmd_report(args) -> int:
    """Summarize a JSONL trace written by ``train --trace``, or diff two.

    The outputs of one trace are refused here, before anything is
    written: with two traces, or (``--clock sim``) where the trace holds
    no simulated window to draw.
    """
    from repro.telemetry import TraceSummary

    if args.compare:
        given = [f"--{name}" for name in ("chrome", "folded", "out")
                 if getattr(args, name)]
        if given:
            args.parser.error(f"{', '.join(given)} writes one trace's "
                              f"output; a diff of two writes none")
    for flag, needed in REQUIRES["report"].items():
        if getattr(args, flag[2:]) and not getattr(args, needed[2:]):
            args.parser.error(f"{flag} requires {needed}")
    events = _load_trace(args.trace)
    if args.clock == "sim" and not any(
        event.get("sim_ts") is not None for event in events
    ):
        args.parser.error(f"--clock sim: {args.trace} holds no simulated "
                          f"window (only an overlapped run records them)")
    if args.compare:
        other = TraceSummary.from_events(_load_trace(args.compare))
        print(f"A = {args.trace}")
        print(f"B = {args.compare}")
        print(_report_diff(TraceSummary.from_events(events), other))
        return 0
    _summarize(args, events, clock=args.clock or "wall")
    return 0


def _summarize(args, events, clock="wall", memory=None, meta=None) -> None:
    """Print the trace summary of ``events`` and write the outputs
    ``args`` asks for: folded stacks, Chrome trace and profile JSON."""
    from repro.telemetry import TraceSummary, write_chrome_trace
    from repro.telemetry.profile import write_folded, write_profile_json

    summary = TraceSummary.from_events(events, memory)
    print(summary.format())
    extras = []
    if args.folded:
        lines = write_folded(args.folded, events)
        extras.append(f"folded stacks    : {args.folded} ({lines} stacks)")
    if args.chrome:
        spans = write_chrome_trace(args.chrome, events, clock=clock)
        extras.append(f"chrome trace     : {args.chrome} ({spans} spans)")
    if args.out:
        write_profile_json(args.out, summary, meta=meta)
        extras.append(f"profile json     : {args.out}")
    if extras:
        print()
        for line in extras:
            print(line)


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
    """Profile one run: ``report``'s summary plus memory marks, folded
    stacks and a JSON dump.

    A parallel run's ranks each profile under their own
    :class:`~repro.telemetry.profile.ProfilingTracer`; their memory keys
    carry a ``rank<r>/`` prefix, so memory is attributed to the process
    that used it.
    """
    from repro.bench.metadata import run_metadata
    from repro.bench.runner import run_cell
    from repro.telemetry import telemetry_events
    from repro.telemetry.metrics import fold_ranks

    cell = _args_cell(args)
    _writable(args.folded, args.chrome, args.out)
    result = run_cell(cell, profile=True)
    _summarize(args, telemetry_events(result.events,
                                      fold_ranks(result.metrics)),
               memory=result.memory_high_water,
               meta={**run_metadata(seed=cell.seed), "cell": cell.to_dict()})
    return 0


def cmd_lint(args) -> int:
    """Run the static contract rules; exit nonzero on any finding."""
    from repro.analysis.lint.cli import run_lint

    return run_lint(args)


def cmd_protocol_check(args) -> int:
    """Check every interleaving of the real 2-rank arena."""
    import json

    from repro.analysis.protocol import run_protocol_check

    if args.seqs < 1:
        raise SystemExit(f"--seqs must be >= 1, got {args.seqs}")
    summary = _one_line(run_protocol_check, seqs=args.seqs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for name, scenario in sorted(summary["scenarios"].items()):
        verdict = "ok" if scenario["ok"] else "FAIL"
        print(f"{name:<24}: {verdict}  "
              f"({scenario['states']} states, "
              f"{scenario['terminals']} terminal, "
              f"{scenario['executions']} executions)")
    print(f"protocol-check   : {'ok' if summary['ok'] else 'FAIL'}")
    return 0 if summary["ok"] else 1


def cmd_experiment(args) -> int:
    """Regenerate one of the paper's tables/figures."""
    import importlib

    from repro.core.registry import check_params

    module = importlib.import_module(
        f"repro.bench.experiments.{args.module}"
    )
    # A flag the experiment declares but the command line leaves out is
    # absent, so run() keeps its own default.
    kwargs = {name: getattr(args, name)
              for name in ("compressors", "panels", "epochs")
              if hasattr(args, name)}
    for name in kwargs.get("compressors", ()):
        _one_line(check_params, name, {})
    for panel in kwargs.get("panels", ()):
        if panel not in module.PANELS:
            raise SystemExit(f"unknown {args.name} panel {panel!r}; "
                             f"choose from {', '.join(module.PANELS)}")
    if kwargs.get("epochs", 1) < 1:
        raise SystemExit(f"--epochs must be >= 1, got {args.epochs}")
    rows = module.run(**kwargs)
    print(module.format(rows))
    return 0


def _add_bench_suite(suites, history, name: str, help: str):
    """A ``repro bench`` run suite with the flags every run suite reads."""
    suite = suites.add_parser(name, parents=[history], help=help)
    suite.add_argument("--out", metavar="PATH",
                       default=f"benchmarks/results/BENCH_{name}.json",
                       help="result JSON path (default %(default)s; '-' "
                            "skips the write)")
    suite.add_argument("--record", action="store_true",
                       help="append this run to the perf history (skipped "
                            "when --check fails, so a regression cannot "
                            "poison its own baseline; refused on a dirty "
                            "tree)")
    suite.add_argument("--check", action="store_true",
                       help="exit nonzero unless the suite's acceptance "
                            "criteria hold AND no gated metric regresses "
                            "past its tolerance band vs its baseline: the "
                            "bench contract's value where it freezes one, "
                            "else the rolling history median of the same "
                            "invocation")
    return suite


def _add_trace_outputs(parser) -> None:
    """The outputs ``report`` and ``profile`` write from one trace."""
    parser.add_argument("--folded", metavar="PATH",
                        help="write flamegraph-compatible folded stacks "
                             "(feed to flamegraph.pl or speedscope)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a Chrome trace_event JSON")
    parser.add_argument("--out", metavar="PATH",
                        help="write the profile (with run metadata) as "
                             "JSON")


#: The flags an experiment may declare, by name.
_EXPERIMENT_OPTIONS = {
    "--compressors": {"type": lambda text: text.split(","),
                      "metavar": "NAMES", "help": "comma-separated subset"},
    "--panels": {"type": lambda text: text.split(","), "metavar": "PANELS",
                 "help": "comma-separated panels"},
    "--epochs": {"type": int, "help": "training epochs"},
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
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
    _add_cell_flags(train)
    train.add_argument("--topology", choices=TOPOLOGIES, default="flat",
                       help="reduction substrate: flat collectives, a "
                            "central parameter server, or a two-tier "
                            "rack-then-root tree (default: flat)")
    train.add_argument("--racks", type=int, default=None, metavar="K",
                       help="rack count for --topology hier (default: 2)")
    train.add_argument("--aggregation", choices=AGGREGATION_POLICIES,
                       default=None,
                       help="compressed-domain aggregation policy on "
                            "ps/hier topologies: auto uses it for "
                            "exact-linear schemes, whose parameter-server "
                            "aggregate ships only when smaller than the "
                            "relay, so auto never prices above off; all "
                            "extends it to codebook/sketch schemes, off "
                            "disables it (default: auto)")
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
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-rank worker checkpoints "
                            "under --backend parallel (default: a "
                            "temporary directory, removed after the run)")

    bench = sub.add_parser(
        "bench",
        help="run a perf suite (fusion, overlap, faults, throughput) or "
             "compare two recorded runs",
    )
    suites = bench.add_subparsers(dest="suite", required=True,
                                  metavar="SUITE")
    history = argparse.ArgumentParser(add_help=False)
    history.add_argument("--history",
                         default="benchmarks/results/PERF_HISTORY.jsonl",
                         metavar="PATH",
                         help="append-only perf-history JSONL the "
                              "regression gate and compare read")
    fusion = _add_bench_suite(
        suites, history, "fusion",
        "fused vs per-tensor exchange of one compressor"
    )
    fusion.add_argument("--compressor", default="topk",
                        help="compressor (default %(default)s)")
    fusion.add_argument("--workers", type=int, default=8, metavar="N",
                        help="simulated ranks (default %(default)s)")
    fusion.add_argument("--iterations", type=int, default=30, metavar="N",
                        help="training iterations (default %(default)s)")
    _add_bench_suite(suites, history, "overlap",
                     "overlapped vs sequential exchange schedules")
    _add_bench_suite(suites, history, "faults",
                     "fault-injection scenarios against a clean run")
    throughput = _add_bench_suite(
        suites, history, "throughput",
        "modelled throughput of the paper's compressors (or measured "
        "wall clock with --parallel)"
    )
    throughput.add_argument("--parallel", action="store_true",
                            help="measure real multiprocess wall clock "
                                 "(fused vs per-tensor) instead of the "
                                 "closed-form model")
    compare = suites.add_parser("compare", parents=[history],
                                help="diff two recorded runs")
    compare.add_argument("refs", nargs=2, metavar="REF",
                         help="a RunResult JSON path or a history commit "
                              "prefix")

    report = sub.add_parser(
        "report", help="summarize a JSONL trace from train --trace, or "
                       "diff two"
    )
    report.set_defaults(parser=report)
    report.add_argument("trace", help="JSONL trace path (A)")
    report.add_argument("compare", nargs="?", metavar="TRACE_B",
                        help="diff this trace (B) against A: per-phase "
                             "wall/sim deltas")
    _add_trace_outputs(report)
    report.add_argument("--clock", choices=["wall", "sim"],
                        help="timeline for --chrome: measured wall clock "
                             "(default) or the simulated event timeline "
                             "(renders overlap concurrency)")

    profile = sub.add_parser(
        "profile",
        help="phase-level run profiler: train one cell and attribute "
             "step time to compress/network/decompress/apply phases",
    )
    _add_cell_flags(profile, compressor="topk", epochs=1)
    _add_trace_outputs(profile)

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
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--changed", nargs="?", const="HEAD", default=None,
                      metavar="BASE",
                      help="lint only Python files git reports as changed "
                           "vs BASE (default HEAD: staged + unstaged + "
                           "untracked); exits 0 when nothing relevant "
                           "changed")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="stdout format (default: text)")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON report here (the CI "
                           "artifact)")

    protocol = sub.add_parser(
        "protocol-check",
        help="run every interleaving of the real 2-rank arena, a thread "
             "per rank, and fail on a torn read, stale metadata, deadlock "
             "or sanitizer violation, or on an uncaught mutated control",
    )
    protocol.add_argument("--seqs", type=int, default=3, metavar="N",
                          help="collectives each rank issues, >= 1 "
                               "(default 3: the fewest that wrap the ring "
                               "and the segment; the least split-phase "
                               "window)")
    protocol.add_argument("--out", default=None, metavar="PATH",
                          help="also write the scenario summary as JSON")

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiments = experiment.add_subparsers(dest="name", required=True,
                                            metavar="NAME")
    for name, module, flags in (
        ("table1", "table1", ()),
        ("table2", "table2", ()),
        ("fig1", "fig1", ("--epochs",)),
        ("fig6", "fig6", ("--compressors", "--panels", "--epochs")),
        ("fig7", "fig7", ("--compressors", "--panels", "--epochs")),
        ("fig8", "fig8", ("--compressors",)),
        ("fig9", "fig9", ("--compressors",)),
        ("fig10", "fig10", ("--compressors", "--epochs")),
        ("bandwidth", "bandwidth", ("--compressors",)),
        ("ef", "ef_ablation", ("--epochs",)),
    ):
        figure = experiments.add_parser(name)
        figure.set_defaults(module=module)
        for flag in flags:
            figure.add_argument(flag, default=argparse.SUPPRESS,
                                **_EXPERIMENT_OPTIONS[flag])

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
