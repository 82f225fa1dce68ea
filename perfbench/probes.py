"""Direct probes: layers no trainer step reaches from outside on its own.

``tensorlib``, ``core.fusion`` and ``core.wire`` are called by the
compressors, the trainer and the parallel communicator from the inside, so a
proxy cannot be slipped in front of them; they are timed here by calling
their public functions on inputs shaped like the workload's.  ``comm.shm``
and ``comm.parallel`` are exercised by two benchmark-owned processes.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import time

import numpy as np

from perfbench import metrics as M
from perfbench.proxies import wrap_compressor
from perfbench.spans import SpanRecorder

MB = float(1 << 20)
_PROBE_ELEMENTS = 1 << 18  # 1 MiB of float32


def _median_seconds(fn, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return M.median(samples)


def probe_tensorlib(seed: int) -> dict:
    """ms per MiB of float32 gradient for the five shared kernels."""
    from repro.tensorlib import (
        CountSketch,
        pack_bits,
        quantize_stochastic_levels,
        sparsify_topk,
        unpack_bits,
    )

    n = _PROBE_ELEMENTS
    rng = np.random.default_rng([seed, 1])
    tensor = rng.standard_normal(n, dtype=np.float32)
    magnitudes = np.abs(tensor)
    norm = float(np.linalg.norm(tensor))
    codes = rng.integers(0, 16, n)
    packed = pack_bits(codes, 4)
    sketch = CountSketch(width=n // 64, depth=5, universe=n, seed=seed)
    indices = np.arange(n)
    per_mb = 1e3 / (n * 4 / MB)
    return {
        "tensorlib.pack_bits_ms_per_mb": per_mb * _median_seconds(
            lambda: pack_bits(codes, 4)),
        "tensorlib.unpack_bits_ms_per_mb": per_mb * _median_seconds(
            lambda: unpack_bits(packed, 4, n)),
        "tensorlib.quantize_levels_ms_per_mb": per_mb * _median_seconds(
            lambda: quantize_stochastic_levels(magnitudes, norm, 255, rng)),
        "tensorlib.sparsify_topk_ms_per_mb": per_mb * _median_seconds(
            lambda: sparsify_topk(tensor, n // 100)),
        "tensorlib.count_sketch_ms_per_mb": per_mb * _median_seconds(
            lambda: sketch.update(indices, tensor), repeats=3),
    }


def probe_fusion(gradients: dict, fusion_bytes: int) -> dict:
    """Pack/unpack cost of the plan the workload's gradient set gets.

    An unfused workload moves one tensor per exchange, which is the plan the
    overlap scheduler builds for ``fusion_mb=0`` (any tensor overflows a
    one-byte budget alone).
    """
    from repro.core.fusion import FusionPlan

    plan = FusionPlan.from_gradients(gradients, max(1, fusion_bytes))
    buffers = [np.empty(b.numel, dtype=np.float32) for b in plan.buckets]
    total_mb = sum(b.nbytes for b in plan.buckets) / MB

    def pack():
        for bucket, out in zip(plan.buckets, buffers):
            bucket.pack(gradients, out)

    def unpack():
        for bucket, flat in zip(plan.buckets, buffers):
            bucket.unpack(flat)

    return {
        "fusion.pack_ms_per_mb": 1e3 * _median_seconds(pack, 9) / total_mb,
        "fusion.unpack_ms_per_mb": 1e3 * _median_seconds(unpack, 9) / total_mb,
        "fusion.buckets_per_step": float(plan.num_buckets),
    }


def _sparse_payload(rng, k: int) -> list:
    return [
        rng.standard_normal(k, dtype=np.float32),
        np.sort(rng.choice(100 * k, size=k, replace=False)).astype(np.int32),
    ]


def probe_wire(seed: int) -> dict:
    """CRC-framed serialization: a 1 MiB payload and a 16-entry one."""
    from repro.core.wire import frame_payload, unframe_payload

    rng = np.random.default_rng([seed, 2])
    large = _sparse_payload(rng, 1 << 17)  # 2 x 512 KiB
    small = _sparse_payload(rng, 16)
    frame = frame_payload(large)

    def small_round_trip():
        unframe_payload(frame_payload(small))

    return {
        "wire.serialize_ms_per_mb": 1e3 * _median_seconds(
            lambda: frame_payload(large)) / (len(frame) / MB),
        "wire.deserialize_ms_per_mb": 1e3 * _median_seconds(
            lambda: unframe_payload(frame)) / (len(frame) / MB),
        "wire.frame_small_us": 1e6 * _median_seconds(small_round_trip, 201),
    }


def probe_compressors(names, gradients: dict, seed: int) -> dict:
    """compressor -> (compress, decompress) ms per MiB, one rank's tensors."""
    from repro.core import create

    out = {}
    for name in names:
        rec = SpanRecorder(name, keep_steps=0)
        compressor = wrap_compressor(create(name, seed=seed), rec)
        for _ in range(2):
            for tensor_name, tensor in gradients.items():
                compressor.decompress(compressor.compress(tensor, tensor_name))
        mb = rec.nbytes("compressors", "compress") / MB
        out[name] = (
            1e3 * rec.seconds("compressors", "compress") / mb,
            1e3 * rec.seconds("compressors", "decompress") / mb,
        )
    return out


def kernel_model_error(kernel_cost: dict, gradients: dict) -> float:
    """Geomean over the registry of max(pred/meas, meas/pred).

    ``PerfModel.compression_seconds`` prices compress+decompress of one
    tensor on the modelled device; the measurement is this sandbox's NumPy
    kernels on the same tensors.  ``none`` is priced at zero and left out.
    """
    from repro.bench.perf import PerfModel

    model = PerfModel(seconds_per_iteration=0.0, batch_per_worker=1)
    sizes = [int(g.size) for g in gradients.values()]
    set_mb = sum(sizes) * 4 / MB
    ratios = []
    for name, (compress, decompress) in kernel_cost.items():
        predicted = sum(model.compression_seconds(name, n) for n in sizes)
        measured = (compress + decompress) * set_mb / 1e3
        if predicted > 0 and measured > 0:
            ratios.append(max(predicted / measured, measured / predicted))
    return M.geomean(ratios)


def probe_tracer_overhead(build, steps: int) -> float:
    """The program's own ``Tracer`` on this workload's topk cell.

    ``build(tracer)`` returns ``(trainer, batch_iterator)``.  Two trainers of
    the same cell, one with a live tracer, step alternately; the share is the
    traced median step over the untraced one, minus one.
    """
    from repro.telemetry.tracing import Tracer

    plain, plain_batches = build(None)
    traced, traced_batches = build(Tracer())
    pairs = ((plain, plain_batches), (traced, traced_batches))
    samples = ([], [])
    for trainer, batches in pairs:
        trainer.step(next(batches))  # warm
    for _ in range(steps):
        for index, (trainer, batches) in enumerate(pairs):
            batch = next(batches)
            start = time.perf_counter()
            trainer.step(batch)
            samples[index].append(time.perf_counter() - start)
    return M.median(samples[1]) / M.median(samples[0]) - 1.0


# ---------------------------------------------------------------------------
# Shared-memory arena: two benchmark-owned processes
# ---------------------------------------------------------------------------

_PING = 400
_DENSE_BYTES = 4 << 20
_DENSE_REPS = 12
_COLLECTIVE_REPS = 200


def _arena_worker(spec, rank: int, dense_bytes: int, sparse_k: int, seed: int,
                  out_queue) -> None:
    """One probe rank (module level: spawn pickles it by name)."""
    from repro.comm.parallel import ParallelWorkerCommunicator
    from repro.comm.shm import KIND_DENSE, SharedArena

    arena = SharedArena.attach(spec, rank)
    try:
        comm = ParallelWorkerCommunicator(arena, rank, timeout=30.0)
        out_queue.put(("ready", rank, None))
        clock = time.perf_counter
        peer = 1 - rank
        rng = np.random.default_rng([seed, 3])
        dense = rng.standard_normal(dense_bytes // 4, dtype=np.float32)
        sparse = _sparse_payload(rng, sparse_k)
        big = rng.standard_normal(_DENSE_BYTES // 4, dtype=np.float32)
        samples = {}

        def timed(key, reps, fn):
            fn()  # both ranks enter the timed loop in step
            times = samples.setdefault(key, [])
            for _ in range(reps):
                start = clock()
                fn()
                times.append(clock() - start)

        # The communicator numbers its collectives from 0; the raw arena
        # phases below continue after the last one it used.
        timed("allreduce_dense", _COLLECTIVE_REPS,
              lambda: comm.allreduce_parts([[dense]]))
        timed("allgather_wire", _COLLECTIVE_REPS,
              lambda: comm.allgather([sparse]))
        timed("allreduce_4mb", _DENSE_REPS,
              lambda: comm.allreduce_parts([[big]]))
        seq = 2 * (_COLLECTIVE_REPS + 1) + _DENSE_REPS + 1

        token = np.zeros(16, dtype=np.float32)
        hops = samples.setdefault("post_view", [])
        for _ in range(_PING):
            # Rank 0 posts seq, rank 1 answers on seq + 1; only the root of
            # each hop posts, as in the communicator's broadcast.
            start = clock()
            if rank == 0:
                arena.post(seq, token, KIND_DENSE)
                arena.view(seq + 1, peer, timeout=30.0)
            else:
                arena.view(seq, peer, timeout=30.0)
                arena.post(seq + 1, token, KIND_DENSE)
            hops.append((clock() - start) / 2.0)
            arena.drain(seq)
            arena.drain(seq + 1)
            seq += 2

        moves = samples.setdefault("dense_move", [])
        for _ in range(_DENSE_REPS):
            start = clock()
            arena.post(seq, big, KIND_DENSE)
            view, _ = arena.view(seq, peer, timeout=30.0)
            np.array(view)  # the bytes leave the segment
            moves.append(clock() - start)
            arena.drain(seq)
            seq += 1
        out_queue.put(("done", rank, samples))
    finally:
        arena.close()


def probe_arena(dense_bytes: int, sparse_k: int, seed: int):
    """Hop latency, bandwidth and collective latency over a real arena.

    Returns the six metrics and the seconds the two processes took to spawn,
    attach and be joined.
    """
    from repro.comm.shm import SharedArena

    ctx = mp.get_context("spawn")
    arena = SharedArena.create(2)
    out_queue = ctx.Queue()
    workers = [
        ctx.Process(
            target=_arena_worker,
            args=(arena.spec, rank, dense_bytes, sparse_k, seed, out_queue),
            daemon=True,
        )
        for rank in range(2)
    ]
    results = {}
    try:
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        ready = 0
        deadline = time.monotonic() + 120.0
        spawn_s = None
        while len(results) < 2:
            if time.monotonic() > deadline or any(
                w.exitcode not in (None, 0) for w in workers
            ):
                arena.abort()
                raise RuntimeError("an arena probe rank died or hung")
            try:
                kind, rank, payload = out_queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if kind == "ready":
                ready += 1
                if ready == 2:
                    spawn_s = time.perf_counter() - start
            else:
                results[rank] = payload
        join_start = time.perf_counter()
        for worker in workers:
            worker.join(timeout=30.0)
        spawn_s += time.perf_counter() - join_start
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=10.0)
        arena.close()
    if any(worker.exitcode != 0 for worker in workers):
        raise RuntimeError("an arena probe rank exited with an error")
    rank0 = results[0]
    move_s = M.median(rank0["dense_move"])
    metrics = {
        "shm.post_view_us_p50": 1e6 * M.percentile(rank0["post_view"], 50),
        "shm.post_view_us_p95": 1e6 * M.percentile(rank0["post_view"], 95),
        "shm.dense_gb_per_s": _DENSE_BYTES / move_s / 1e9,
        "parallel.allreduce_dense_us_p50": 1e6 * M.percentile(
            rank0["allreduce_dense"], 50),
        "parallel.allgather_wire_us_p50": 1e6 * M.percentile(
            rank0["allgather_wire"], 50),
        "parallel.allreduce_4mb_gb_per_s": _DENSE_BYTES / M.median(
            rank0["allreduce_4mb"]) / 1e9,
    }
    return metrics, spawn_s
