"""The four workloads.

Every workload is a fixed set of *cells* driven closed-loop by one driver:
the next step is issued when the previous one returned.  A cell first runs
its *nominal* step count — fixed work, what ``wall_s`` and the exact metrics
are taken over — and then keeps stepping until it has used its slice of the
run, so that a 5 ms step gets hundreds of samples and a 1.7 s step the two
the schedule owes it.  The cells of a workload take turns (``interleave``),
so each one's samples span the whole run.

Sizes are for ``--seconds 15`` on the 2-core sandbox and scale with
``--seconds``; shapes never change (``--smoke`` is the one exception and is
never a measurement).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import metrics as M
from perfbench.proxies import Delegate, Instrumentation
from perfbench.spans import LAYERS, SpanRecorder

REF_SECONDS = 15.0
BENCHMARK = "resnet20-cifar10"
#: Convergence is only comparable along one trajectory: across training
#: seeds the step at which resnet20 reaches the target spreads by 20-30 %
#: (none: 24 vs 27 steps, topk: 42 vs 56 for seeds 0 and 7), which no
#: regression bound can hold.  The training cells therefore always train
#: from this seed and ``--seed`` decides the order the cells run in.
TRAIN_SEED = 0
TARGET_LOSS = 0.5
MAX_TRAIN_EPOCHS = 24
N_RANKS = 4

LARGE_SHAPES = (
    ("embed.weight", (3072, 128)),
    ("lstm.w_ih", (1024, 128)),
    ("lstm.w_hh", (1024, 256)),
    ("lstm.bias", (1024,)),
    ("proj.weight", (256, 512)),
    ("proj.bias", (512,)),
    ("head.weight", (128, 512)),
    ("head.bias", (512,)),
    ("norm.gain", (256,)),
    ("norm.bias", (256,)),
)
SMALL_TENSORS = 400
SMALL_FUSION_MB = 0.125
_SHAPE_SEED = 11


@dataclass
class Sizing:
    seconds: float
    smoke: bool = False

    def steps(self, at_reference: int) -> int:
        return max(1, round(at_reference * self.seconds / REF_SECONDS))


@dataclass
class CellResult:
    """What one cell measured; the raw material of every metric."""

    name: str
    compressor: str = ""
    gated: bool = True
    setup_s: float = 0.0
    nominal_steps: int = 0
    step_s: list = field(default_factory=list)  # untraced timed steps
    traced_step_s: list = field(default_factory=list)
    wire_bytes_per_step: float = float("nan")
    sim_step_ms: float = float("nan")
    steps_to_target: int | None = None
    final_loss: float = float("nan")
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    recorder: SpanRecorder | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.step_s) and not math.isnan(self.wire_bytes_per_step)

    @property
    def step_typical_s(self) -> float:
        """The lower quartile of the untraced step times.

        What the gated timings are made of.  Neighbours on the shared host
        can only slow a step down, and do so for seconds at a time: when
        they cover more than half of a run the median sits on slowed steps
        and moves by tens of per cent between runs, the lower quartile only
        once they cover three quarters.  (p50 and p95 are per-layer metrics.)
        """
        return M.percentile(self.step_s, 25)

    def check(self, passed: bool, what: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.errors.append(what)

    def to_json(self) -> dict:
        return {
            "name": self.name, "compressor": self.compressor,
            "gated": self.gated, "setup_s": self.setup_s,
            "nominal_steps": self.nominal_steps,
            "samples": len(self.step_s), "step_s": self.step_s,
            "traced_samples": len(self.traced_step_s),
            "traced_step_s": self.traced_step_s,
            "wire_bytes_per_step": self.wire_bytes_per_step,
            "sim_step_ms": self.sim_step_ms,
            "steps_to_target": self.steps_to_target,
            "final_loss": self.final_loss,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "extra": self.extra,
        }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def small_shapes(count: int = SMALL_TENSORS) -> tuple:
    """~400 tensors of 16-2048 elements, log-uniform, like a lite conv net.

    The layout is part of the workload, not of the seed: byte counts and
    step times must be comparable across seeds.
    """
    rng = np.random.default_rng(_SHAPE_SEED)
    sizes = np.exp(rng.uniform(math.log(16), math.log(2048), count))
    shapes = []
    for index, size in enumerate(sizes.astype(int)):
        if size >= 128:
            cols = 8 if index % 2 else 16
            shape = (int(size) // cols, cols)
        else:
            shape = (int(size),)
        shapes.append((f"t{index:03d}", shape))
    return tuple(shapes)


def make_gradients(shapes, n_ranks: int, seed: int) -> list[dict]:
    """Per-rank gradient sets: a shared signal plus per-rank noise.

    Real workers' gradients are correlated (the heavy hitters coincide) and
    the layers differ in magnitude by orders; both change what sparsifiers
    and threshold quantizers do, so the generator keeps them.  The per-layer
    magnitudes belong to the workload, like the shapes: a threshold
    compressor's byte count follows them, and byte counts must be comparable
    across seeds.  The seed draws the values.
    """
    scales = 10.0 ** np.random.default_rng(_SHAPE_SEED).uniform(
        -3.0, -1.5, len(shapes))
    rng = np.random.default_rng([int(seed), 0x9A7E])
    per_rank = [dict() for _ in range(n_ranks)]
    for (name, shape), scale in zip(shapes, scales.astype(np.float32)):
        base = rng.standard_normal(shape, dtype=np.float32)
        for grads in per_rank:
            noise = rng.standard_normal(shape, dtype=np.float32)
            grads[name] = (base + np.float32(0.5) * noise) * scale
    return per_rank


class SyntheticTask:
    """A ``DistributedTask`` that hands out prepared gradients."""

    def __init__(self, per_rank: list[dict]):
        self.per_rank = per_rank
        self.losses = [
            float(sum(float(np.vdot(g, g)) for g in grads.values()))
            for grads in per_rank
        ]

    def forward_backward(self, inputs, targets):
        rank = int(inputs[0])
        return self.losses[rank], self.per_rank[rank]

    def apply_update(self, gradients):
        pass


class CheckedTask(Delegate):
    """Keeps what a step consumed and produced, for the output checks.

    Always on, traced or not: it stores references and does no arithmetic,
    the checks themselves run after the step's clock has stopped.
    """

    def __init__(self, inner):
        self.inner = inner
        self.grads: list[dict] = []
        self.aggregated: dict | None = None

    def forward_backward(self, inputs, targets):
        loss, grads = self.inner.forward_backward(inputs, targets)
        self.grads.append(grads)
        return loss, grads

    def apply_update(self, gradients):
        self.aggregated = gradients
        return self.inner.apply_update(gradients)

    def begin_step(self) -> None:
        self.grads = []
        self.aggregated = None


def check_step(task: CheckedTask, loss: float, exact_mean: bool) -> str | None:
    """Why this step's output is wrong, or ``None``."""
    if not math.isfinite(loss):
        return f"loss is {loss}"
    aggregated = task.aggregated
    if aggregated is None:
        return "no aggregated gradient reached apply_update"
    reference = task.grads[0]
    if set(aggregated) != set(reference):
        return "aggregated gradient has the wrong key set"
    for name, value in aggregated.items():
        if np.shape(value) != np.shape(reference[name]):
            return f"{name}: shape {np.shape(value)}"
        if not np.all(np.isfinite(value)):
            return f"{name}: non-finite values"
    if exact_mean:
        for name, value in aggregated.items():
            mean = np.mean(np.stack([g[name] for g in task.grads]), axis=0)
            tolerance = 1e-5 * float(np.max(np.abs(mean)) + 1e-30)
            if not np.allclose(value, mean, rtol=1e-5, atol=tolerance):
                return f"{name}: 'none' is not the mean of the ranks"
    return None


def steps_to_target(losses, window: int, target: float) -> int | None:
    """First step count at which the trailing-``window`` mean loss <= target."""
    if len(losses) < window:
        return None
    sums = np.cumsum(np.asarray(losses, dtype=np.float64))
    trailing = (sums[window - 1:] - np.concatenate(([0.0], sums[:-window])))
    hits = np.nonzero(trailing / window <= target)[0]
    return int(hits[0]) + window if hits.size else None


# ---------------------------------------------------------------------------
# The sequential-driver cell loop
# ---------------------------------------------------------------------------


#: Visits a cell gets.  Cells take turns, so a cell's samples span the whole
#: run: a neighbour on the shared host that slows the machine for some
#: seconds reaches some samples of every cell, which a quartile shrugs off,
#: not every sample of a few cells, which it cannot.
ROUNDS = 5
_DONE = object()


def interleave(cells) -> None:
    """Drive ``run_cell`` generators in turns until each has finished: every
    cell is built and warmed, then every round visits every cell."""
    live = list(cells)
    while live:
        live = [cell for cell in live if next(cell, _DONE) is not _DONE]


def run_cell(
    result: CellResult,
    build,
    nominal_steps: int,
    min_seconds: float,
    max_steps: int,
    trace: bool,
    exact_mean: bool = False,
    target: tuple | None = None,
    builds: int = 1,
):
    """Build a cell, warm it, run its schedule; failures never propagate.

    A generator for ``interleave``: it yields once the cell is warm and after
    each of its ``ROUNDS`` visits.  ``build()`` returns ``(trainer,
    batch_iterator)``.  ``target`` is ``(window, loss)`` for cells that train
    towards a loss.  In a traced run even steps go through the timing proxies
    and odd ones do not, on the same trainer, which pairs every traced step
    with an untraced neighbour.
    """
    if trace:
        nominal_steps = max(2, nominal_steps)  # one traced, one untraced
    # A visit's first step finds the caches cold, and would be a traced one
    # every time: the traced run pairs neighbours instead of taking turns.
    rounds = 1 if trace else ROUNDS
    result.nominal_steps = nominal_steps
    try:
        yield from _run_cell(result, build, nominal_steps, min_seconds,
                             max_steps, trace, exact_mean, target, builds,
                             rounds)
    except Exception as exc:  # a raising cell fails its steps, the run goes on
        remaining = max(1, nominal_steps + 1 - result.attempted)
        result.attempted += remaining
        result.failed += remaining
        result.errors.append(f"{type(exc).__name__}: {exc}")


def _one_step(result, trainer, batches_iter, task, inst, exact_mean,
              traced: bool) -> float:
    """Time one step of a cell; its output is checked off the clock."""
    batches = next(batches_iter)
    task.begin_step()
    if inst is not None:
        inst.attach() if traced else inst.detach()
    start = time.perf_counter()
    loss = inst.step(batches) if inst is not None else trainer.step(batches)
    seconds = time.perf_counter() - start
    why = check_step(task, loss, exact_mean)
    result.check(why is None, f"step {trainer.report.iterations}: {why}")
    return seconds


def _run_cell(result, build, nominal_steps, min_seconds, max_steps,
              trace, exact_mean, target, builds, rounds):
    clock = time.perf_counter
    if trace:
        result.recorder = SpanRecorder(result.name)
    setup_s = []
    for _ in range(builds):  # set up several times, keep the median
        start = clock()
        trainer, batches_iter = build()
        build_s = clock() - start
        task = CheckedTask(trainer.task)
        trainer.task = task
        inst = Instrumentation(trainer, result.recorder) if trace else None
        one_step = functools.partial(
            _one_step, result, trainer, batches_iter, task, inst, exact_mean)
        setup_s.append(build_s + one_step(False))  # the warm step
    result.setup_s = M.median(setup_s)
    yield
    window = target[0] if target else 0
    spent = 0.0  # on this cell's own clock: others run between its visits
    done = 0
    for visit in range(1, rounds + 1):
        share = visit / rounds
        while done < max_steps:
            if (done >= math.ceil(nominal_steps * share)
                    and spent >= min_seconds * share):
                if not target or visit < rounds or steps_to_target(
                    trainer.report.losses, window, target[1]
                ) is not None:
                    break
            begin = clock()
            traced = trace and done % 2 == 0
            seconds = one_step(traced)
            (result.traced_step_s if traced else result.step_s).append(seconds)
            done += 1
            if done == nominal_steps:
                report = trainer.report
                result.wire_bytes_per_step = (
                    report.bytes_per_worker_per_iteration
                )
                result.sim_step_ms = (
                    1e3 * report.sim_total_seconds / report.iterations
                )
            spent += clock() - begin
        if visit < rounds:
            yield
    if inst is not None:
        inst.detach()
    losses = trainer.report.losses
    result.final_loss = float(losses[-1])
    result.extra["steps_run"] = len(losses)
    if target:
        result.steps_to_target = steps_to_target(losses, window, target[1])
        result.check(
            result.steps_to_target is not None,
            f"loss target {target[1]} not reached in {len(losses)} steps",
        )
    else:
        # A sweep's goal is to finish its schedule: warm step + nominal.
        result.steps_to_target = nominal_steps + 1
    if result.recorder is not None:
        rec = result.recorder
        step_seconds = rec.seconds("trainer", "step")
        layers = sum(rec.layer_self_seconds().values())
        result.check(
            abs(layers - step_seconds) <= 0.02 * step_seconds,
            f"layer self-times {layers:.6f}s != step spans {step_seconds:.6f}s",
        )


# ---------------------------------------------------------------------------
# sweep_large / sweep_small_fused
# ---------------------------------------------------------------------------


def _shrink(shapes, factor: int):
    return tuple(
        (name, (max(2, shape[0] // factor),) + tuple(shape[1:]))
        for name, shape in shapes
    )


def sweep_builder(workload: str, sizing: Sizing, seed: int):
    """``(build, one rank's gradients, generation seconds)`` of a sweep.

    ``build(name, tracer=None)`` returns a fresh 4-rank trainer over the
    synthetic task for one registry compressor, plus its batch iterator.
    """
    from repro.comm import ParameterServerCommunicator
    from repro.comm.collectives import Communicator
    from repro.core import DistributedTrainer, create

    fused = workload == "sweep_small_fused"
    shapes = small_shapes() if fused else LARGE_SHAPES
    if sizing.smoke:
        shapes = shapes[::8] if fused else _shrink(shapes, 16)
    gen_s = []
    for _ in range(3):  # set up several times, keep the median
        start = time.perf_counter()
        per_rank = make_gradients(shapes, N_RANKS, seed)
        gen_s.append(time.perf_counter() - start)
    batches = [(np.array([rank]), None) for rank in range(N_RANKS)]

    def build(name, tracer=None):
        comm_cls = ParameterServerCommunicator if fused else Communicator
        trainer = DistributedTrainer(
            SyntheticTask(per_rank),
            create(name, seed=seed),
            n_workers=N_RANKS,
            communicator=comm_cls(N_RANKS),
            seed=seed,
            tracer=tracer,
            fusion_mb=SMALL_FUSION_MB if fused else 0.0,
            aggregation="auto" if fused else "off",
        )
        return trainer, itertools.repeat(batches)

    return build, per_rank[0], M.median(gen_s)


def _sweep(workload: str, sizing: Sizing, seed: int, trace: bool) -> dict:
    from repro.core import available_compressors

    fused = workload == "sweep_small_fused"
    build, gradients, generation_s = sweep_builder(workload, sizing, seed)
    nominal = sizing.steps(3 if fused else 2)
    slice_s = sizing.seconds * (0.4 / REF_SECONDS)
    cells = [CellResult(name, name) for name in available_compressors()]
    interleave(
        run_cell(
            cell, functools.partial(build, cell.name), nominal, slice_s,
            max_steps=2000, trace=trace, exact_mean=(cell.name == "none"),
            # sweep_large's warm steps alone are a third of its run: once.
            builds=3 if fused and not (trace or sizing.smoke) else 1,
        )
        for cell in cells
    )
    return {
        "cells": cells,
        "setup_extra_s": generation_s,
        "gradients": gradients,
        "fusion_bytes": int(SMALL_FUSION_MB * (1 << 20)) if fused else 0,
        "topk_build": functools.partial(build, "topk"),
    }


# ---------------------------------------------------------------------------
# train_overlap
# ---------------------------------------------------------------------------


def _epochs(loader):
    while True:
        yield from loader


def _build_training(compressor, n_workers, tracer=None, **kwargs):
    """``(trainer, endless batch iterator)`` of one real training cell."""
    from repro.bench.runner import build_trainer
    from repro.bench.suite import get_benchmark

    trainer, run = build_trainer(
        get_benchmark(BENCHMARK), compressor, n_workers=n_workers,
        seed=TRAIN_SEED, tracer=tracer, **kwargs,
    )
    return trainer, _epochs(run.loader)


@functools.lru_cache(maxsize=None)
def _steps_per_epoch(n_workers: int) -> int:
    from repro.bench.suite import get_benchmark

    run = get_benchmark(BENCHMARK).build(n_workers=n_workers, seed=TRAIN_SEED)
    return len(run.loader)


def _training_cell(name, compressor, n_workers, sizing, trace, gated=True,
                   nominal_epochs=8, slice_s=0.0, to_target=True, **kwargs):
    """``(cell, its run_cell generator)`` of one real training cell."""
    build = functools.partial(_build_training, compressor, n_workers, **kwargs)
    per_epoch = _steps_per_epoch(n_workers)
    nominal = per_epoch if sizing.smoke else sizing.steps(
        nominal_epochs * per_epoch
    )
    cell = CellResult(name, compressor, gated=gated)
    cell.extra["steps_per_epoch"] = per_epoch
    return cell, run_cell(
        cell, build, nominal, slice_s,
        max_steps=MAX_TRAIN_EPOCHS * per_epoch, trace=trace,
        exact_mean=(compressor == "none"),
        target=(per_epoch, TARGET_LOSS) if to_target else None,
        builds=3,
    )


def train_overlap(sizing, seed, trace):
    specs = [
        ("none", "none", N_RANKS, True),
        ("topk", "topk", N_RANKS, True),
        ("qsgd", "qsgd", N_RANKS, True),
        ("single", "none", 1, False),
    ]
    order = np.random.default_rng(seed).permutation(len(specs))
    slice_s = sizing.seconds / len(specs)
    cells, runs = {}, []
    for index in order:
        name, compressor, n_workers, gated = specs[index]
        cells[name], run = _training_cell(
            name, compressor, n_workers, sizing, trace, gated=gated,
            slice_s=slice_s, to_target=not sizing.smoke,
            overlap=n_workers > 1, fusion_mb=0.0,
        )
        runs.append(run)
    interleave(runs)
    return {
        "cells": [cells[name] for name, *_ in specs],
        "setup_extra_s": 0.0,
        "gradients": _model_gradients(),
        "fusion_bytes": 0,
        "topk_build": functools.partial(
            _build_training, "topk", N_RANKS, overlap=True, fusion_mb=0.0),
    }


def _model_gradients() -> dict:
    """One rank's gradient set of the training model (shapes for probes)."""
    from repro.bench.suite import get_benchmark

    run = get_benchmark(BENCHMARK).build(n_workers=2, seed=TRAIN_SEED)
    inputs, targets = next(iter(run.loader))[0]
    return run.task.forward_backward(inputs, targets)[1]


# ---------------------------------------------------------------------------
# parallel_nproc2
# ---------------------------------------------------------------------------

PARALLEL_CELLS = (("topk_unfused", "topk", 0.0), ("none_fused", "none", 64.0))
NPROC = 2


def _parallel_cell(result, fusion_mb, epochs_long, repeats, smoke):
    """Two-point fit: wall(E) = spawn/attach/join + E * seconds_per_epoch.

    ``run_parallel`` is timed from outside, so a cell yields one wall time
    per run, not one per step.  Each point is run ``repeats`` times and the
    fit goes through the *fastest* run of each: neighbours on the machine
    can only slow a run down, and a median of three such runs still sits on
    a slowed one when two were.  A generator for ``interleave``: it yields
    after every run, so the repeats of a point are spread over the workload.
    """
    from repro.comm.parallel import ParallelRunConfig, run_parallel

    compressor = result.compressor

    def run(epochs):
        start = time.perf_counter()
        out = run_parallel(ParallelRunConfig(
            benchmark=BENCHMARK, compressor=compressor, nproc=NPROC,
            seed=TRAIN_SEED, epochs=epochs, fusion_mb=fusion_mb,
        ))
        wall = time.perf_counter() - start
        report = out.report
        result.attempted += report.iterations
        result.check(len(set(out.digests.values())) == 1
                     and len(out.digests) == NPROC,
                     f"rank digests disagree at {epochs} epochs")
        result.check(
            report.iterations % epochs == 0
            and all(math.isfinite(loss) for loss in report.losses),
            f"{epochs}-epoch run lost steps or produced a non-finite loss",
        )
        return wall, report

    short, long_runs = [], []
    try:
        for _ in range(repeats):
            short.append(run(1)[0])
            yield
            long_runs.append(run(epochs_long))
            yield
    except Exception as exc:  # a raising cell fails, the other still runs
        result.attempted += 1
        result.failed += 1
        result.errors.append(f"{type(exc).__name__}: {exc}")
        return
    report = long_runs[0][1]
    result.check(
        all(other.losses == report.losses
            and other.bytes_per_worker == report.bytes_per_worker
            for _, other in long_runs[1:]),
        "two runs of one configuration disagree on losses or wire bytes",
    )
    long_wall = [wall for wall, _ in long_runs]
    per_epoch = report.iterations // epochs_long
    epoch_s = (min(long_wall) - min(short)) / (epochs_long - 1)
    result.check(
        0 < epoch_s < min(short),
        f"two-point fit is degenerate: {short} s at 1 epoch, {long_wall} s "
        f"at {epochs_long}",
    )
    if result.failed:
        return
    result.setup_s = min(short) - epoch_s
    result.nominal_steps = report.iterations
    result.step_s = [epoch_s / per_epoch]
    result.wire_bytes_per_step = report.bytes_per_worker_per_iteration
    result.sim_step_ms = 1e3 * report.sim_total_seconds / report.iterations
    result.final_loss = float(report.losses[-1])
    result.extra.update(
        short_wall_s=short, long_wall_s=long_wall, epochs_long=epochs_long,
        steps_per_epoch=per_epoch, steps_run=report.iterations,
    )
    result.steps_to_target = (
        report.iterations if smoke
        else steps_to_target(report.losses, per_epoch, TARGET_LOSS)
    )
    result.check(
        result.steps_to_target is not None,
        f"loss target {TARGET_LOSS} not reached in {report.iterations} steps",
    )


def parallel_nproc2(sizing, seed, trace):
    specs = list(PARALLEL_CELLS)
    order = np.random.default_rng(seed).permutation(len(specs))
    # The traced run shares its time with the sequential stand-ins.
    epochs_long = 4 if sizing.smoke else max(3, sizing.steps(7 if trace else 8))
    repeats = 1 if sizing.smoke else 2 if trace else 3
    cells, runs = {}, []
    for index in order:
        name, compressor, fusion_mb = specs[index]
        cells[name] = CellResult(name, compressor)
        runs.append(_parallel_cell(
            cells[name], fusion_mb, epochs_long, repeats, sizing.smoke
        ))
    interleave(runs)
    stand_ins = []
    if trace:
        # Proxies cannot reach into run_parallel's processes, so the layers
        # inside a rank are measured on the same cell driven sequentially.
        slice_s = sizing.seconds / 8
        runs = []
        for name, compressor, fusion_mb in specs:
            cell, run = _training_cell(
                f"{name}.sequential", compressor, NPROC, sizing, True,
                gated=False, nominal_epochs=1, slice_s=slice_s,
                to_target=False, fusion_mb=fusion_mb,
            )
            stand_ins.append(cell)
            runs.append(run)
        interleave(runs)
    ordered = [cells[name] for name, *_ in specs]
    return {
        "cells": ordered,
        "stand_ins": stand_ins,
        "spawn_s": M.median([c.setup_s for c in ordered if c.ok] or [0.0]),
        "setup_extra_s": 0.0,
        "gradients": _model_gradients(),
        "fusion_bytes": 64 << 20,
        "topk_build": functools.partial(
            _build_training, "topk", NPROC, fusion_mb=0.0),
    }


RUNNERS = {
    "sweep_large": functools.partial(_sweep, "sweep_large"),
    "sweep_small_fused": functools.partial(_sweep, "sweep_small_fused"),
    "train_overlap": train_overlap,
    "parallel_nproc2": parallel_nproc2,
}


# ---------------------------------------------------------------------------
# Cells -> metrics
# ---------------------------------------------------------------------------


def end_to_end(outcome: dict, import_s: float, peak_rss_mb: float) -> dict:
    """The eight gated numbers of one untraced run."""
    cells = [c for c in outcome["cells"] if c.gated and c.ok]
    if not cells:
        raise RuntimeError("no gated cell produced a measurement")
    setup_s = import_s + outcome["setup_extra_s"] + sum(
        c.setup_s for c in cells
    )
    to_target = [c.steps_to_target or c.extra.get("steps_run", 0)
                 for c in cells]
    return {
        "setup_s": setup_s,
        "wall_s": sum(c.nominal_steps * c.step_typical_s for c in cells),
        "steps_per_s": M.geomean(1.0 / c.step_typical_s for c in cells),
        "time_to_target_s": setup_s + sum(
            steps * c.step_typical_s for steps, c in zip(to_target, cells)
        ),
        "steps_to_target": float(sum(to_target)),
        "wire_bytes_per_step": M.geomean(
            c.wire_bytes_per_step for c in cells
        ),
        "sim_step_ms": M.geomean(c.sim_step_ms for c in cells),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_cells(outcome: dict) -> list[CellResult]:
    """Cells that ran under the proxies (the stand-ins, for the parallel run)."""
    cells = outcome.get("stand_ins") or outcome["cells"]
    return [c for c in cells if c.recorder is not None and c.traced_step_s]


def per_layer_from_spans(outcome: dict) -> dict:
    """The per-layer metrics that come from the cells' spans."""
    cells = traced_cells(outcome)
    if not cells:
        raise RuntimeError("no cell produced a traced step")
    out = {}
    step_total = sum(c.recorder.seconds("trainer", "step") for c in cells)
    self_total = {layer: 0.0 for layer in LAYERS}
    for cell in cells:
        for layer, seconds in cell.recorder.layer_self_seconds().items():
            self_total[layer] += seconds

    def per_step(fn):
        return float(np.mean([fn(c.recorder) / c.recorder.steps for c in cells]))

    for layer in ("compressors", "memory", "comm", "ndl"):
        out[f"{layer}.busy_share"] = self_total[layer] / step_total
    out["trainer.self_share"] = self_total["trainer"] / step_total
    out["trainer.self_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.self_seconds("trainer"))
    out["compressors.calls_per_step"] = per_step(
        lambda rec: rec.calls("compressors"))
    out["memory.compensate_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.self_seconds("memory", "compensate"))
    out["memory.update_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.self_seconds("memory", "update"))
    out["comm.collective_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.self_seconds("comm"))
    out["comm.calls_per_step"] = per_step(lambda rec: rec.calls("comm"))
    out["ndl.forward_backward_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.seconds("ndl", "forward_backward"))
    out["ndl.apply_update_ms_per_step"] = 1e3 * per_step(
        lambda rec: rec.seconds("ndl", "apply_update"))
    out["trainer.step_ms_p50"] = 1e3 * M.median(
        M.percentile(c.step_s, 50) for c in cells)
    out["trainer.step_ms_p95"] = 1e3 * M.median(
        M.percentile(c.step_s, 95) for c in cells)
    out["trainer.final_loss"] = float(np.mean([c.final_loss for c in cells]))
    out["bench.trace_overhead_share"] = M.geomean(
        M.median(c.traced_step_s) / M.median(c.step_s) for c in cells
    ) - 1.0
    return out


def kernel_cost_from_spans(outcome: dict) -> dict:
    """compressor -> (compress, decompress) ms per MB handed to compress."""
    seconds = {}
    for cell in traced_cells(outcome):
        rec = cell.recorder
        name = cell.compressor
        mb = rec.nbytes("compressors", "compress") / (1 << 20)
        if mb <= 0:
            continue
        acc = seconds.setdefault(name, [0.0, 0.0, 0.0])
        acc[0] += rec.seconds("compressors", "compress")
        acc[1] += rec.seconds("compressors", "decompress")
        acc[2] += mb
    return {
        name: (1e3 * comp / mb, 1e3 * dec / mb)
        for name, (comp, dec, mb) in seconds.items()
    }


def exchange_cost(outcome: dict) -> dict:
    """Step time that is not model compute, per cell and for the workload.

    For the real-process cells the compute of one rank comes from the same
    cell driven sequentially under the proxies (forward/backward of all
    ranks divided by the rank count, plus the update every rank applies).
    """
    rows = {}
    if outcome.get("stand_ins"):
        for cell, stand_in in zip(outcome["cells"], outcome["stand_ins"]):
            if not (cell.ok and stand_in.recorder and stand_in.recorder.steps):
                continue
            rec = stand_in.recorder
            compute = (
                rec.seconds("ndl", "forward_backward") / NPROC
                + rec.seconds("ndl", "apply_update")
            ) / rec.steps
            rows[cell.name] = (cell.step_typical_s, compute)
    else:
        for cell in traced_cells(outcome):
            rec = cell.recorder
            rows[cell.name] = (
                M.median(cell.traced_step_s), rec.seconds("ndl") / rec.steps
            )
    if not rows:
        raise RuntimeError("no cell to take an exchange cost from")
    per_cell = {
        name: {
            "step_ms": 1e3 * step, "compute_ms": 1e3 * compute,
            "exchange_ms": 1e3 * (step - compute),
            "exchange_share": (step - compute) / step,
        }
        for name, (step, compute) in rows.items()
    }
    return {
        "per_cell": per_cell,
        "parallel.exchange_ms_per_step": float(np.mean(
            [row["exchange_ms"] for row in per_cell.values()])),
        "parallel.exchange_share": float(np.mean(
            [row["exchange_share"] for row in per_cell.values()])),
    }
