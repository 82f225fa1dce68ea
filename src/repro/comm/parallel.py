"""Real-parallel execution backend: one OS process per rank.

The sequential simulator runs all ranks in one process, so every
reported speedup is simulated-clock only.  This backend runs ``N``
worker ranks as real processes that exchange gradients through the
POSIX shared-memory arena of :mod:`repro.comm.shm`, making
fusion/overlap wins measurable on actual hardware while keeping the
analytical sim-clock accounting intact.

Ranks are forked from a ``multiprocessing`` *forkserver* that has
already imported this module and :mod:`repro.bench.runner`, so a rank
reaches :func:`_worker_main` in milliseconds instead of booting an
interpreter and importing NumPy and the package.  A process's first run
starts the server (about what one fresh interpreter's imports cost);
every later run, recovery respawns included, forks from it.  A forked
rank inherits the server's environment, so its BLAS/OpenMP thread
settings (:func:`rank_thread_env`) are fixed when the server starts; a
run that needs other values restarts it.  The server is stopped and
reaped when the process exits.  The target and its arguments are still
pickled to each rank.

Pieces:

* :class:`ParallelWorkerCommunicator` — a drop-in
  :class:`~repro.comm.collectives.Communicator` used *inside* a worker.
  Each call takes the rank's **own** contribution (a one-element
  per-rank list, matching the trainer's worker mode), publishes it to
  the arena, fetches every other **active** rank's contribution and
  reduces them in rank order with the exact expression the sequential
  communicator uses — which is what makes the final model state bitwise
  identical for deterministic compressors.  Dense single-part payloads
  are reduced zero-copy through NumPy views over the shared segments;
  variable-size compressed payloads travel as CRC32-framed
  ``core.wire`` byte streams, so a flipped bit in shared memory
  surfaces as :class:`~repro.core.wire.WireChecksumError` instead of a
  silently wrong gradient.  The whole ``Communicator`` interface is
  implemented, ``sparse_allreduce`` included.
* :class:`ParallelAsyncHandle` — one in-flight collective as a small
  state machine (posted → every peer arrived → reduced → drained) with
  a non-blocking ``test()`` and a blocking ``wait()``.  Blocking
  collectives are handles waited on at once.
* the **progress engine** under both — the communicator keeps its live
  handles in issue order, ``progress()`` advances all of them without
  blocking, and every wait (a post short of a metadata slot or segment
  space, a ``wait()`` short of a peer) runs it between polls, so a
  window of collectives wider than the ring or the segment completes
  instead of waiting on itself.  The engine, not the handles, moves
  the rank's ``drained`` counter, only ever to the lowest sequence
  number a live handle still has to read (``docs/ROBUSTNESS.md``,
  "Windows wider than the arena").  The trainer's worker exchange uses
  it split-phase: every tensor's or bucket's collective is issued
  before any is finished and the loss gather spans the exchange, so
  two ranks meet about once per step.
* :func:`run_parallel` — the parent orchestration: create the arena,
  start workers, watch their liveness, merge per-rank trace shards,
  metric registries and memory high-water marks, verify cross-rank
  model agreement, and always unlink the shared segments.

Survivability
-------------

A :class:`_Watchdog` thread in the parent samples each worker's
exitcode and heartbeat (ranks beat once per training iteration and on
every iteration of the arena's poll loop, spinning or sleeping).  A
non-zero exit or a heartbeat silent past the stall deadline convicts
the rank: the watchdog marks it failed, flips the arena abort flag so
blocked survivors raise a typed error instead of hanging, and hands the
parent the victim set with each victim's last-started iteration.

When checkpointing is enabled (``checkpoint_every > 0`` — every rank
snapshots its shard of trainer state to ``checkpoint_dir``), the parent
then *recovers* instead of failing: workers are torn down with an
escalating join/terminate/kill ladder, consumed crash/stall fault
clauses are retired so they do not re-fire, a fresh arena is created
under a bumped incarnation number with the next cohort (the full rank
set under ``recovery='restart'``, the survivors under ``'degrade'``),
and workers respawn from the latest checkpoint iteration common to the
new cohort.  The outage is priced into the merged report's
``sim_recovery_seconds`` (lost iterations at the run's mean sim
iteration cost, plus shipping the restored checkpoint bytes over the
modeled network).  Without checkpointing the failure stays fail-stop:
a :class:`ParallelCrashError` naming every failed rank.

Wall clock and sim clock answer different questions here — see
``docs/PERFORMANCE.md`` ("Real-parallel backend") for when they
legitimately diverge, and ``docs/ROBUSTNESS.md`` ("Resilience on the
real-parallel backend") for the recovery semantics.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing as mp
import os
import pickle
import queue as queue_module
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.backends import Backend, OPENMPI_TCP
from repro.comm.collectives import (
    AsyncHandle,
    Communicator,
    Payload,
    payload_nbytes,
)
from repro.comm.cost import broadcast_time, fused_allreduce_time
from repro.comm.network import NetworkModel, ethernet
from repro.comm.shm import (
    DEFAULT_DATA_BYTES,
    DEFAULT_TIMEOUT,
    KIND_DENSE,
    KIND_OBJECT,
    KIND_WIRE,
    STATUS_DONE,
    STATUS_FAILED,
    ArenaProtocolError,
    ArenaSpec,
    SharedArena,
)
from repro.comm.timeline import NETWORK, SimTimeline
from repro.core.api import rank_sum
from repro.core.checkpoint import (
    Checkpoint,
    latest_common_iteration,
    outage_seconds,
    worker_checkpoint_path,
)
from repro.core.config import Cell, WorkerMode, sanitizes
from repro.core.wire import frame_payload, unframe_payload
from repro.faults.plan import FaultPlan, WorkerCrashError
from repro.telemetry.metrics import (
    MetricsRegistry,
    load_snapshot,
    snapshot_registry,
)
from repro.telemetry.profile import max_rss_bytes

#: How long the parent waits, after aborting the arena, for surviving
#: workers to notice and report their typed abort errors before it
#: synthesizes messages for them and proceeds to teardown.
_DRAIN_GRACE = 10.0

#: How often (s) the parent reads the heartbeats of a cohort that has
#: not all beaten yet: the resolution of a recovery's respawn_seconds.
_BEAT_POLL = 0.002

#: Network used to price shipping the restored checkpoint during a
#: recovery — the same default the communicators assume.
_RECOVERY_NETWORK_GBPS = 10.0

#: Fixed by the parent's supervision, not options: the watchdog's sweep
#: interval (s), the cohort respawns before a death is fatal, the arena
#: sanitizer's per-rank event slots, and the seconds a worker gets to
#: exit on its own at teardown, then after SIGTERM, then after SIGKILL.
WATCHDOG_INTERVAL = 0.25
MAX_RECOVERIES = 8
SANITIZE_SLOTS = 8192
JOIN_GRACE = 10.0
TERM_GRACE = 5.0
KILL_GRACE = 5.0


class ParallelCrashError(WorkerCrashError):
    """A worker process died mid-run (non-zero exit or lost heartbeat)."""


class ParallelAsyncHandle(AsyncHandle):
    """One in-flight arena collective, advanced by polling.

    A handle is born *posted* (this rank's contribution is published)
    and moves through three more states: every peer *arrived* (its
    contribution fetched — CRC-checked and unframed, or viewed in place
    — in whatever order the peers post), *reduced* (the result built
    from the contributions in ascending rank order, which keeps sums
    bitwise the sequential ones) and *drained* (by the communicator's
    engine, never by the handle: see
    :meth:`ParallelWorkerCommunicator._retire`).  :meth:`test` advances
    as far as the posted peers allow and never blocks; :meth:`wait`
    blocks on the peers still missing and returns the result.  A sim
    charge that needs the peers' sizes is made by the first ``wait()``,
    not on arrival, so charges land in program order whatever order
    the engine completed the handles in.
    """

    __slots__ = (
        "seq", "_comm", "_ranks", "_pending", "_parts", "_fetch", "_reduce",
        "_collect",
    )

    def __init__(self, comm, seq, ranks, local, fetch, reduce, collect=None):
        super().__init__(None, None)
        self.seq = seq
        self._comm = comm
        self._ranks = ranks  # contributing ranks, ascending
        self._pending = [r for r in ranks if r != comm.rank]
        self._parts = {comm.rank: local}
        self._fetch = fetch
        self._reduce = reduce
        self._collect = collect

    def _advance(self) -> bool:
        """Fetch what has arrived and reduce once nobody is missing;
        whether the handle is reduced.  Never blocks."""
        pending = self._pending
        if pending is None:
            return True
        if pending:
            arrived = self._comm.arena.arrived
            missing = []
            for peer in pending:
                if arrived(self.seq, peer):
                    self._parts[peer] = self._fetch(self.seq, peer)
                else:
                    missing.append(peer)
            self._pending = missing
            if missing:
                return False
        self._result = self._reduce([self._parts[r] for r in self._ranks])
        # Reduced: nothing here refers to the shared segments any more.
        self._pending = self._parts = self._fetch = self._reduce = None
        return True

    def test(self) -> bool:
        """Advance without blocking; whether the result is ready."""
        ready = self._advance()
        self._comm._retire()
        return ready

    def wait(self):
        if self._waited:
            return self._result
        comm = self._comm
        while not self._advance():
            # The engine keeps running while this rank waits: a peer may
            # be unable to post this collective until an earlier one is
            # drained here (handles finished out of issue order).
            comm.arena.wait_posted(
                self.seq, self._pending[0], comm.timeout,
                progress=comm.progress,
            )
        comm._retire()
        if self._collect is not None:
            collect, self._collect = self._collect, None
            collect(self)
        self._waited = True
        return self._result


class ParallelWorkerCommunicator(Communicator):
    """Arena-backed collectives for one worker rank.

    Every collective consumes one arena sequence number; because the
    trainer issues collectives in deterministic program order, all
    ranks agree on which sequence number names which collective without
    any extra rendezvous traffic.  A peer posting a different payload
    kind or byte count for the same sequence number means the ranks
    have desynchronized and raises :class:`ArenaProtocolError`.

    Collectives span the arena's **active cohort** (all ranks in a
    first incarnation; the survivors after a degrade recovery), always
    reduced in ascending rank order so reductions stay bit-stable.
    Simulated costs are charged for the cohort that actually
    communicates.

    Underneath sits a small **progress engine**.  Every collective,
    blocking or not, is a :class:`ParallelAsyncHandle` kept in
    ``_live`` in issue order (a blocking call is a handle waited on at
    once); :meth:`progress` advances all of them without blocking, and
    a post that has to wait for a metadata slot or segment space runs
    it between polls, so any number of collectives can be in flight on
    any ring or segment size.  The engine alone moves this rank's
    ``drained`` counter (:meth:`_retire`).
    """

    def __init__(
        self,
        arena: SharedArena,
        rank: int,
        network: NetworkModel | None = None,
        backend: Backend = OPENMPI_TCP,
        registry: MetricsRegistry | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        super().__init__(
            arena.spec.n_ranks, network=network, backend=backend,
            registry=registry,
        )
        if arena.rank != rank:
            raise ValueError(
                f"arena is attached as rank {arena.rank}, "
                f"communicator wants rank {rank}"
            )
        self.arena = arena
        self.rank = int(rank)
        self.timeout = float(timeout)
        self._seq = 0
        self._live: deque[ParallelAsyncHandle] = deque()
        self._progressed = None  # what progress() last ran against
        self._cohort = tuple(arena.active_ranks())
        if self.rank not in self._cohort:
            raise ValueError(
                f"rank {rank} is not in the arena's active cohort "
                f"{list(self._cohort)}"
            )
        self._n_active = len(self._cohort)

    # -- liveness -----------------------------------------------------------

    def heartbeat(self, progress: int | None = None) -> None:
        """Refresh this rank's arena heartbeat (and progress word)."""
        self.arena.heartbeat(progress)

    # -- progress engine ----------------------------------------------------

    def progress(self) -> None:
        """Advance every live handle as far as the posted peers allow.

        Called once per poll by whatever wait this rank is in, so it
        returns at once unless a peer has posted or a handle has been
        issued since it last ran.
        """
        state = (self.arena.posted(), self._seq)
        if state != self._progressed:
            self._progressed = state
            for handle in self._live:
                handle._advance()
            self._retire()

    def _retire(self) -> None:
        """Forget reduced handles and publish how far this rank has read.

        ``drained`` is one cumulative counter per rank and a peer
        reclaims everything below the cohort's minimum, so however the
        handles finish it may only ever rise to the lowest sequence
        number a live handle still has to read — or, with none left,
        to the next one to be issued.  The front handle is given a
        chance first: one issued early and collected late (the trainer's
        loss gather) must not hold a whole step's payloads in place.
        """
        live = self._live
        while live and live[0]._advance():
            live.popleft()
        floor = live[0].seq if live else self._seq
        if floor:
            self.arena.drain(floor - 1)

    def _start(
        self, data, kind, local, fetch, reduce, collect=None, ranks=None
    ) -> ParallelAsyncHandle:
        """Post ``data`` under the next sequence number; its live handle.

        ``data=None`` consumes the number without posting (a broadcast's
        non-root ranks).  ``_seq`` moves only after the post: a post
        that waits runs :meth:`progress`, whose drained floor must stop
        below the collective being posted.
        """
        seq = self._seq
        if data is not None:
            self.arena.post(seq, data, kind, progress=self.progress)
        self._seq = seq + 1
        handle = ParallelAsyncHandle(
            self, seq, self._cohort if ranks is None else ranks, local,
            fetch, reduce, collect,
        )
        self._live.append(handle)
        return handle

    # -- plumbing -----------------------------------------------------------

    def _local(self, items: list, what: str):
        """The caller's own contribution (worker mode passes exactly one)."""
        if len(items) != 1:
            raise ValueError(
                f"parallel {what}: rank {self.rank} passes exactly its own "
                f"contribution, got {len(items)} per-rank entries"
            )
        return items[0]

    def _local_parts(self, payloads: list[Payload], what: str) -> Payload:
        return [
            np.ascontiguousarray(np.asarray(p))
            for p in self._local(payloads, what)
        ]

    def _dense_fetch(self, ref: np.ndarray):
        """Fetch function for dense contributions shaped like ``ref``."""

        def fetch(seq: int, rank: int) -> np.ndarray:
            buf, kind = self.arena.view(seq, rank, timeout=self.timeout)
            if kind != KIND_DENSE or buf.size != ref.nbytes:
                raise ArenaProtocolError(
                    f"seq {seq}: expected a {ref.nbytes}-byte dense payload "
                    f"from rank {rank}, got kind={kind} nbytes={buf.size} — "
                    f"ranks have desynchronized"
                )
            # Zero copy: valid until this rank drains seq, which the
            # engine does only after the handle has reduced.
            return buf.view(ref.dtype).reshape(ref.shape)

        return fetch

    def _wire_parts(self, seq: int, rank: int) -> Payload:
        """Peer ``rank``'s CRC-framed payload, validated and deserialized."""
        data, kind = self.arena.read(seq, rank, timeout=self.timeout)
        if kind != KIND_WIRE:
            raise ArenaProtocolError(
                f"seq {seq}: expected a wire-framed payload from rank "
                f"{rank}, got kind={kind} — ranks have desynchronized"
            )
        return unframe_payload(data)

    @staticmethod
    def _reduce_parts(all_parts: list[Payload]) -> Payload:
        """Per-part sum over ranks, bitwise matching the sequential path.

        Both sum each part with :func:`~repro.core.api.rank_sum` over
        ranks 0 .. N-1 in order, which is what makes parallel and
        sequential final model states bitwise comparable.
        """
        n_parts = len(all_parts[0])
        for rank, parts in enumerate(all_parts[1:], start=1):
            if len(parts) != len(all_parts[0]):
                raise ArenaProtocolError(
                    "fused allreduce part-count mismatch: rank 0 has "
                    f"{n_parts}, rank {rank} has {len(parts)}"
                )
        return [
            rank_sum([parts[i] for parts in all_parts])
            for i in range(n_parts)
        ]

    # -- blocking collectives ----------------------------------------------

    def allreduce(self, tensors: list[np.ndarray]) -> np.ndarray:
        # One dense part: same post, same sum and same ring-allreduce
        # charge as the fused call's single-part fast path.
        return self.allreduce_parts([[self._local(tensors, "allreduce")]])[0]

    def allreduce_parts(self, payloads: list[Payload]) -> Payload:
        return self.iallreduce_parts(payloads).wait()

    def allgather(self, payloads: list[Payload]) -> list[Payload]:
        return self.iallgather(payloads).wait()

    def sparse_allreduce(
        self, tensors: list[np.ndarray], block_size: int = 256
    ) -> np.ndarray:
        """Block-sparse sum: a dense post reduced through zero-copy views.

        The arena moves the whole tensor (shared memory has no wire to
        save); the sequential communicator's expression and its
        block-sparse charge run over the gathered views while they are
        still valid, i.e. inside the reduce step.  That is in program
        order because the handle is waited on at once.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        local = np.ascontiguousarray(
            np.asarray(self._local(tensors, "sparse allreduce"))
        )
        return self._start(
            local, KIND_DENSE, local, self._dense_fetch(local),
            lambda views: self._sparse_sum(views, block_size),
        ).wait()

    def broadcast(self, payload: Payload, root: int = 0) -> list[Payload]:
        """One-to-all over the arena: only ``root`` publishes.

        MPI-style buffer semantics — the non-root ranks' ``payload``
        argument is ignored; every rank reads the root's wire frame for
        this sequence number.  Skipping the post on non-root ranks is
        protocol-safe: ``post`` publishes an absolute sequence number
        (not an increment) and reclamation keys on every rank's drain,
        which all ranks still perform.  Accounting matches the
        sequential communicator's binomial-tree broadcast.
        """
        if root not in self._cohort:
            raise ValueError(
                f"root {root} is not an active rank "
                f"(cohort {list(self._cohort)})"
            )
        local = frame = None
        if self.rank == root:
            local = [np.ascontiguousarray(np.asarray(p)) for p in payload]
            frame = frame_payload(local)
        parts = self._start(
            frame, KIND_WIRE, local, self._wire_parts,
            lambda contributions: contributions[0], ranks=(root,),
        ).wait()
        nbytes = float(payload_nbytes(parts))
        seconds = broadcast_time(
            nbytes, self._n_active, self.network, self.backend
        )
        self.record.charge(bytes_per_worker=nbytes / self._n_active,
                           seconds=seconds, op="broadcast")
        return [list(parts) for _ in self._cohort]

    # -- nonblocking collectives --------------------------------------------

    def iallreduce_parts(
        self,
        payloads: list[Payload],
        *,
        ready_at: float = 0.0,
        timeline: SimTimeline | None = None,
    ) -> ParallelAsyncHandle:
        """Post now, reduce once every peer has posted.

        The fused-allreduce cost depends only on the local part sizes
        (inputs are uniform across ranks), so the sim charge and the
        timeline event happen at issue exactly like the sequential
        nonblocking call — sim makespans match the simulator's.
        """
        local = self._local_parts(payloads, "fused allreduce")
        if len(local) == 1:
            # Dense fast path: the fused single-part case (a flat bucket
            # buffer) ships raw bytes and is reduced through zero-copy
            # views on the reader side.
            fetch_part = self._dense_fetch(local[0])
            handle = self._start(
                local[0], KIND_DENSE, local,
                lambda seq, rank: [fetch_part(seq, rank)], self._reduce_parts,
            )
        else:
            handle = self._start(
                frame_payload(local), KIND_WIRE, local,
                self._wire_parts, self._reduce_parts,
            )
        seconds = self._charge_allreduce_parts(local)
        if timeline is not None:
            handle.event = timeline.schedule(
                NETWORK, seconds, not_before=ready_at, name="allreduce",
            )
        return handle

    def iallgather(
        self,
        payloads: list[Payload],
        *,
        ready_at: float = 0.0,
        timeline: SimTimeline | None = None,
    ) -> ParallelAsyncHandle:
        """Post now, gather as peers post.

        Peer payload sizes are unknown until gathered, so unlike
        :meth:`iallreduce_parts` the sim charge and timeline event are
        deferred to ``wait()``; the event still starts no earlier than
        ``ready_at``, so the charged occupancy is identical — only
        ``handle.event`` is unavailable between issue and wait.
        """
        local = self._local_parts(payloads, "allgather")

        def collect(handle: ParallelAsyncHandle) -> None:
            seconds = self._charge_allgather(handle._result)
            if timeline is not None:
                handle.event = timeline.schedule(
                    NETWORK, seconds, not_before=ready_at, name="allgather",
                )

        return self._start(
            frame_payload(local), KIND_WIRE, local, self._wire_parts,
            lambda gathered: [list(parts) for parts in gathered], collect,
        )

    # -- control plane ------------------------------------------------------

    def iexchange_objects(self, obj) -> ParallelAsyncHandle:
        """Allgather a small pickled Python object (no sim cost charged).

        Control-plane traffic only — the trainer gathers per-rank loss
        scalars with this, posted before the gradient exchange and
        collected after it.  Consumes an arena sequence number so ranks
        stay aligned, but charges nothing: the sequential simulator has
        the losses in-process for free and the sim clocks must agree.
        """
        return self._start(
            pickle.dumps(obj), KIND_OBJECT, obj,
            lambda seq, rank: self.arena.read_object(
                seq, rank, timeout=self.timeout
            ),
            list,
        )

    def exchange_objects(self, obj) -> list:
        """Blocking :meth:`iexchange_objects`."""
        return self.iexchange_objects(obj).wait()

    # -- cost accounting ----------------------------------------------------

    def _charge_allreduce_parts(self, local: Payload) -> float:
        part_nbytes = [int(p.nbytes) for p in local]
        seconds = fused_allreduce_time(
            part_nbytes, self._n_active, self.network, self.backend
        )
        self.record.charge(
            bytes_per_worker=float(sum(part_nbytes)), seconds=seconds,
            op="allreduce",
        )
        return seconds


# ---------------------------------------------------------------------------
# Parent orchestration
# ---------------------------------------------------------------------------


class ParallelDivergenceError(RuntimeError):
    """Worker ranks finished with different model states.

    Every rank reduces the same contributions with the same expression,
    so divergence means a real defect (scratch aliasing, RNG drift,
    arena corruption) — never an expected outcome.
    """


@dataclass(init=False)
class ParallelRunConfig:
    """A parallel :class:`~repro.core.config.Cell` and the settings of
    the processes that run it.

    The config is pickled to each rank's process; workers reconstruct
    the benchmark, model and trainer from the cell (via
    :func:`repro.bench.runner.build_trainer`) instead of receiving live
    objects, which is what keeps parent and workers bit-identical.

    The cell's ``resilience`` reaches every worker's trainer unchanged:
    ``checkpoint_every > 0`` turns on per-rank checkpointing (to
    ``checkpoint_dir``, a temporary directory by default) *and* crash
    recovery.  The watchdog convicts a rank silent for ``stall_timeout``
    seconds.  Every rank's arena gets ``arena_bytes`` of data.
    ``trace`` and ``profile`` bring back every rank's spans and metrics.
    ``benchmark``, ``compressor``, ``nproc``, ``seed``, ``epochs`` and
    ``fusion_mb`` in place of ``cell`` are its short form.
    """

    cell: Cell
    profile: bool
    trace: bool
    arena_bytes: int
    checkpoint_dir: str | None
    stall_timeout: float

    def __init__(self, cell: Cell | None = None, profile: bool = False,
                 trace: bool = False, arena_bytes: int = DEFAULT_DATA_BYTES,
                 checkpoint_dir: str | None = None,
                 stall_timeout: float = 30.0, *, benchmark: str = "",
                 compressor: str = "none", nproc: int = 4, seed: int = 0,
                 epochs: int | None = None, fusion_mb: float = 0.0):
        if cell is None:
            cell = Cell(benchmark, compressor, workers=nproc, seed=seed,
                        epochs=epochs, fusion_mb=fusion_mb,
                        backend="parallel")
        if cell.backend != "parallel":
            raise ValueError(f"run_parallel runs a cell of --backend "
                             f"parallel, got {cell.backend!r}")
        self.cell = cell
        self.profile = profile
        self.trace = trace
        self.arena_bytes = arena_bytes
        self.checkpoint_dir = checkpoint_dir
        self.stall_timeout = stall_timeout


#: Thread pools a rank would otherwise size to the whole machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Every rank starts from this context: a fork of one server process
#: that has already imported :data:`_PRELOAD` (see :func:`_serve_ranks`).
RANK_CONTEXT = mp.get_context("forkserver")

#: What the server imports once, before it forks any rank.
_PRELOAD = ["repro.comm.parallel", "repro.bench.runner"]

#: The environment the running server was started under (None: none yet).
_server_env: dict[str, str] | None = None


def rank_thread_env(nproc: int) -> dict[str, str]:
    """BLAS/OpenMP thread counts to start each of ``nproc`` ranks with.

    A value the user exported wins; otherwise every rank gets an equal
    share of the cores, so ``nproc`` full-size pools do not fight over
    them (convolution and the linear layers run on BLAS).
    """
    share = str(max(1, (os.cpu_count() or 1) // nproc))
    return {var: os.environ.get(var, share) for var in THREAD_VARS}


def _rank_env(nproc: int) -> dict[str, str]:
    """:func:`rank_thread_env`, plus the directory ``repro`` came from
    on ``PYTHONPATH``: CPython's forkserver does not take the parent's
    ``sys.path``, and it drops a preload that fails to import without a
    word."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**rank_thread_env(nproc),
            "PYTHONPATH": src + os.pathsep + path if path else src}


def _serve_ranks(env: dict[str, str]) -> None:
    """Have a server that was started under ``env`` running.

    Call it with ``env`` exported.  A forked rank inherits the server's
    environment and BLAS pool, not the parent's at ``start()``, so a
    server started under other values is stopped and started again.
    The first call starts it (importing this module starts nothing) and
    has it stopped and reaped at exit: after ``multiprocessing`` has
    joined the children it tracks, and before it removes the temporary
    directory that holds the server's socket.
    """
    global _server_env
    from multiprocessing import forkserver, util

    if _server_env is not None and _server_env != env:
        _stop_server()
    RANK_CONTEXT.set_forkserver_preload(_PRELOAD)
    forkserver.ensure_running()
    if _server_env is None:
        util.Finalize(None, _stop_server, exitpriority=-1)
    _server_env = dict(env)


def _stop_server() -> None:
    """Stop the rank server and reap it.

    Left to itself the server exits only once every process holding its
    pipe has exited, each rank it forked included, so it is terminated
    rather than waited for: a rank that outlived its run would otherwise
    hang the restart, or the interpreter's exit.
    """
    from multiprocessing import forkserver

    server = forkserver._forkserver
    if server._forkserver_pid is not None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(server._forkserver_pid, signal.SIGTERM)
    server._stop()


@contextlib.contextmanager
def _exported(values: dict[str, str]):
    """``os.environ`` with ``values`` set, restored on exit.

    The rank server copies the parent's environment when it starts, and
    its BLAS reads the pool size once, at load.
    """
    previous = {var: os.environ.get(var) for var in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for var, value in previous.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value


@dataclass
class ParallelResult:
    """Merged outcome of one real-parallel training run.

    :func:`repro.bench.runner.run_cell` returns one for a simulator run
    too, with its report, wall clock, events, memory and metrics.
    """

    report: object  # leader's TrainingReport (sim numbers match sequential)
    digests: dict[int, str]  # per-rank final-model SHA-256 (all equal)
    wall_seconds: float  # parent-measured end-to-end wall clock
    events: list[dict] = field(default_factory=list)  # merged trace shards
    memory_high_water: dict[str, int] = field(default_factory=dict)
    recoveries: list[dict] = field(default_factory=list)  # one per respawn
    metrics: MetricsRegistry | None = None  # merged per-rank registries
    sanitizer: object | None = None  # SanitizerReport under --sanitize arena
    #: THREAD_VARS as the leader rank saw them (see rank_thread_env).
    environment: dict[str, str] = field(default_factory=dict)
    #: Every rank found the server's preloaded modules imported when it
    #: started, i.e. it was forked from a warm server.
    preloaded: bool = False


def model_digest(params: dict[str, np.ndarray]) -> str:
    """SHA-256 over the model state, byte-exact and name-ordered."""
    h = hashlib.sha256()
    for name in sorted(params):
        array = np.ascontiguousarray(params[name])
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _report_fields(report) -> dict:
    from repro.core.trainer import TrainingReport

    return {name: getattr(report, name) for name in TrainingReport._FIELDS}


def _worker_main(
    config: ParallelRunConfig,
    arena_spec: ArenaSpec,
    worker: WorkerMode,
    out_queue,
    start_iteration: int = 0,
) -> None:
    """Entry point of one worker rank (module-level for pickling).

    ``start_iteration`` and ``worker.consumed_faults`` are non-zero only
    on recovery respawns: the worker restores its checkpoint shard for
    ``start_iteration`` before training, and inherits the clause
    indices earlier incarnations already paid for so a handled crash
    does not re-fire.
    """
    rank = worker.rank
    preloaded = all(name in sys.modules for name in _PRELOAD)
    arena = None
    try:
        arena = SharedArena.attach(arena_spec, rank)
        from repro.bench.runner import build_trainer, cell_tracer

        tracer = cell_tracer(config.trace, config.profile)
        trainer, run = build_trainer(
            config.cell, tracer=tracer,
            communicator=ParallelWorkerCommunicator(arena, rank),
            worker=worker,
        )
        if tracer is not None:
            arena.attach_telemetry(trainer.metrics)
        if start_iteration > 0:
            # Only a respawn rewinds the report: this process starts
            # from nothing and resumes the run at ``start_iteration``.
            Checkpoint.load(worker_checkpoint_path(
                worker.checkpoint_dir, rank, start_iteration
            )).restore(trainer, report=True)
        report = trainer.train(
            run.loader,
            epochs=config.cell.epochs,
            eval_fn=run.eval_fn,
            start_iteration=start_iteration,
        )
        arena.set_status(STATUS_DONE)
        params = {
            name: np.asarray(param.data)
            for name, param in run.model.named_parameters()
        }
        result = {
            "rank": rank,
            "digest": model_digest(params),
            "report": _report_fields(report),
            "environment": {
                var: os.environ[var] for var in THREAD_VARS
                if var in os.environ
            },
            "preloaded": preloaded,
            "memory_high_water": (
                tracer.finalize() if config.profile
                else {"ru_maxrss_bytes": max_rss_bytes()}
            ),
        }
        if tracer is not None:
            result["metrics"] = snapshot_registry(trainer.metrics)
            result["events"] = [span.to_event() for span in tracer.spans]
        out_queue.put(("ok", rank, result))
    except BaseException as exc:
        if arena is not None:
            arena.set_status(STATUS_FAILED)
            arena.abort()
        try:
            out_queue.put((
                "error", rank,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ))
        except Exception:  # pragma: no cover - queue already broken
            pass
        raise SystemExit(1)
    finally:
        if arena is not None:
            arena.close()


class _Watchdog(threading.Thread):
    """Parent-side liveness monitor for one incarnation's workers.

    Convicts a rank on either signal a dead-but-unreported worker can
    still emit: a non-zero exitcode (SIGKILL, segfault, OOM kill) or a
    heartbeat silent past ``stall_timeout`` (a wedged process that is
    technically alive).  On the first conviction sweep it records every
    victim's last-started iteration, marks them failed in the arena,
    flips the abort flag so blocked survivors raise instead of hanging,
    and stops scanning — deaths after the abort are collateral, not new
    verdicts, and must not shrink the survivor set.
    """

    def __init__(
        self,
        arena: SharedArena,
        workers: dict[int, mp.process.BaseProcess],
        stall_timeout: float,
    ):
        super().__init__(name="repro-watchdog", daemon=True)
        self.arena = arena
        self.workers = dict(workers)
        self.stall_timeout = float(stall_timeout)
        self.victims: dict[int, str] = {}
        self.progress: dict[int, int] = {}
        self.fired = threading.Event()
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def run(self) -> None:
        spawn_ns = time.monotonic_ns()
        while not self._halt.wait(WATCHDOG_INTERVAL):
            verdicts: dict[int, str] = {}
            now_ns = time.monotonic_ns()
            for rank, worker in self.workers.items():
                if self.arena.status(rank) == STATUS_DONE:
                    continue
                exitcode = worker.exitcode
                if exitcode is not None:
                    if exitcode != 0:
                        verdicts[rank] = (
                            f"exited with code {exitcode} "
                            "without reporting a result"
                        )
                    continue
                beat = self.arena.heartbeat_ns(rank)
                # A rank that never beat is still starting;
                # measure its silence from watchdog start instead.
                age = (now_ns - (beat or spawn_ns)) / 1e9
                if age > self.stall_timeout:
                    verdicts[rank] = (
                        f"heartbeat silent for {age:.1f}s "
                        f"(stall timeout {self.stall_timeout:.1f}s)"
                    )
            if verdicts:
                self.progress = {
                    rank: self.arena.progress(rank)
                    for rank in self.workers
                }
                for rank, reason in verdicts.items():
                    self.victims[rank] = reason
                    self.arena.mark_failed(rank)
                self.arena.abort()
                self.fired.set()
                return


def _teardown_workers(workers: list, arena: SharedArena,
                      registry: MetricsRegistry) -> None:
    """Escalating join → SIGTERM → SIGKILL ladder over one cohort.

    Every escalation is counted into ``comm_workers_killed_total`` by
    signal, so a run that needed force to die is visible in telemetry.
    """
    started = [worker for worker in workers if worker.pid is not None]
    if any(worker.is_alive() for worker in started):
        arena.abort()
    for worker in started:
        worker.join(timeout=JOIN_GRACE)
    stubborn = [worker for worker in started if worker.is_alive()]
    for worker in stubborn:
        worker.terminate()
        registry.counter(
            "comm_workers_killed_total", {"signal": "term"},
            help="worker processes that needed a signal to exit",
        ).inc()
    for worker in stubborn:
        worker.join(timeout=TERM_GRACE)
    hard = [worker for worker in stubborn if worker.is_alive()]
    for worker in hard:  # pragma: no cover - needs a SIGTERM-proof child
        worker.kill()
        registry.counter(
            "comm_workers_killed_total", {"signal": "kill"},
            help="worker processes that needed a signal to exit",
        ).inc()
        worker.join(timeout=KILL_GRACE)


@dataclass
class _RoundOutcome:
    """What one incarnation produced: results, failures, and verdicts."""

    results: dict[int, dict]
    errors: dict[int, str]
    victims: dict[int, str]  # watchdog verdicts (rank -> reason)
    progress: dict[int, int]  # last-started iteration at conviction time
    reported: frozenset  # ranks whose error arrived via the queue
    #: Parent-clock seconds from starting the cohort until every rank's
    #: first heartbeat (None if one never beat), and of its teardown.
    startup_seconds: float | None
    teardown_seconds: float
    sanitizer: object | None = None  # per-round SanitizerReport (or None)


def _run_round(
    config: ParallelRunConfig,
    active: list[int],
    start_iteration: int,
    consumed: set[int],
    incarnation: int,
    registry: MetricsRegistry,
) -> _RoundOutcome:
    """Run one incarnation of the cohort to completion or first failure."""
    arena = SharedArena.create(
        config.cell.workers,
        data_bytes=config.arena_bytes,
        active_ranks=active,
        incarnation=incarnation,
        event_slots=(
            SANITIZE_SLOTS if sanitizes(config.cell.sanitize, "arena") else 0
        ),
    )
    out_queue = RANK_CONTEXT.Queue()
    workers = {
        rank: RANK_CONTEXT.Process(
            target=_worker_main,
            args=(
                config, arena.spec,
                WorkerMode(
                    rank, tuple(active), tuple(sorted(consumed)),
                    config.checkpoint_dir,
                ),
                out_queue, start_iteration,
            ),
            name=f"repro-rank{rank}",
            daemon=True,
        )
        for rank in active
    }
    results: dict[int, dict] = {}
    errors: dict[int, str] = {}
    reported: set[int] = set()
    watchdog = _Watchdog(arena, workers, config.stall_timeout)
    first_beat: dict[int, int] = {}  # rank -> monotonic ns

    def pending() -> list[int]:
        return [r for r in active if r not in results and r not in errors]

    try:
        env = _rank_env(config.cell.workers)
        with _exported(env):
            _serve_ranks(env)
            started_ns = time.monotonic_ns()
            for worker in workers.values():
                worker.start()
        watchdog.start()
        deadline = time.monotonic() + DEFAULT_TIMEOUT + 3600.0
        drain_deadline = None
        while pending():
            for rank in active:
                # A heartbeat word holds the latest beat, so the first
                # one is read while it is still fresh.
                if rank not in first_beat and arena.heartbeat_ns(rank):
                    first_beat[rank] = arena.heartbeat_ns(rank)
            unseen = any(rank not in first_beat for rank in pending())
            try:
                status, rank, payload = out_queue.get(
                    timeout=_BEAT_POLL if unseen else 0.2
                )
                if status == "ok":
                    results[rank] = payload
                else:
                    errors[rank] = payload
                    reported.add(rank)
                continue
            except queue_module.Empty:
                pass
            if watchdog.fired.is_set():
                # Victims never report; synthesize their errors now and
                # give survivors a bounded window to report theirs.
                for rank, reason in watchdog.victims.items():
                    if rank not in results and rank not in errors:
                        errors[rank] = f"worker rank {rank} {reason}"
                now = time.monotonic()
                if drain_deadline is None:
                    drain_deadline = now + _DRAIN_GRACE
                elif now > drain_deadline:  # pragma: no cover - slow drain
                    for rank in pending():
                        errors[rank] = (
                            f"worker rank {rank} did not report after "
                            "the arena abort"
                        )
                    break
            if time.monotonic() > deadline:  # pragma: no cover - backstop
                arena.abort()
                raise ParallelCrashError(
                    f"parallel run deadlocked: {sorted(pending())} "
                    "never reported"
                )
    finally:
        if watchdog.ident is not None:  # a failed spawn never started it
            watchdog.stop()
        teardown_start = time.monotonic()
        _teardown_workers(list(workers.values()), arena, registry)
        teardown_seconds = time.monotonic() - teardown_start
        if not watchdog.progress:
            watchdog.progress = {
                rank: arena.progress(rank) for rank in active
            }
        sanitizer_report = None
        if arena.recording:
            # Every worker is dead by now, so the rings are quiescent;
            # the segments outlive the workers, so kill-truncated
            # streams replay fine.
            from repro.comm.sanitizer import collect_report

            sanitizer_report = collect_report(
                arena, hb_gap_ns=int(config.stall_timeout * 1e9)
            )
            registry.counter(
                "arena_sanitizer_events_total",
                help="protocol events replayed by the arena sanitizer",
            ).inc(sanitizer_report.events_total)
            registry.counter(
                "arena_sanitizer_violations_total",
                help="happens-before violations found by the sanitizer",
            ).inc(len(sanitizer_report.violations))
        arena.close()
    return _RoundOutcome(
        results=results,
        errors=errors,
        victims=dict(watchdog.victims),
        progress=dict(watchdog.progress),
        reported=frozenset(reported),
        startup_seconds=(
            (max(first_beat.values()) - started_ns) / 1e9
            if len(first_beat) == len(active) else None
        ),
        teardown_seconds=teardown_seconds,
        sanitizer=sanitizer_report,
    )


def _consume_clauses(
    plan: FaultPlan,
    consumed: set[int],
    dead: set[int],
    progress: dict[int, int],
) -> None:
    """Retire crash/stall clauses the victims just executed.

    A clause is consumed when a dead rank it targets had started (per
    its heartbeat progress word) the clause's first iteration — the
    respawned incarnation inherits the consumed set so the same clause
    cannot fire twice.
    """
    for index, event in enumerate(plan.events):
        if index in consumed or event.kind not in ("crash", "stall"):
            continue
        targets = {event.rank} if event.rank is not None else dead
        if any(
            rank in dead and progress.get(rank, -1) >= event.start
            for rank in targets
        ):
            consumed.add(index)


def run_parallel(config: ParallelRunConfig) -> ParallelResult:
    """Train ``config.cell`` across its ``workers`` real processes.

    Spawns one worker per rank and watches their liveness.  A dead or
    wedged rank either fails the run with a typed
    :class:`ParallelCrashError` naming it (the default), or — when
    checkpointing is enabled — triggers a recovery: teardown, a fresh
    arena under a bumped incarnation, and a respawn of the next cohort
    from the latest common checkpoint, with the outage priced into the
    merged report's ``sim_recovery_seconds``.  Always verifies that the
    finishing ranks hold byte-identical model states and unlinks every
    shared segment, no matter how the run ends.
    """
    cell = config.cell
    plan = cell.resilience.plan(cell.seed)
    recovery_enabled = cell.resilience.checkpoint_every > 0
    checkpoint_dir = config.checkpoint_dir
    own_checkpoint_dir = False
    if recovery_enabled and checkpoint_dir is None:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-parallel-ckpt-")
        own_checkpoint_dir = True
    worker_config = replace(config, checkpoint_dir=checkpoint_dir)

    registry = MetricsRegistry()
    active = list(range(cell.workers))
    start_iteration = 0
    consumed: set[int] = set()
    recoveries: list[dict] = []
    sanitizer_total = None
    start = time.perf_counter()
    try:
        while True:
            outcome = _run_round(
                worker_config, active, start_iteration, consumed,
                len(recoveries), registry,
            )
            if recoveries:  # this cohort is the last recovery's respawn
                recoveries[-1]["respawn_seconds"] = outcome.startup_seconds
            if outcome.sanitizer is not None:
                if sanitizer_total is None:
                    from repro.comm.sanitizer import SanitizerReport

                    sanitizer_total = SanitizerReport()
                sanitizer_total.merge(outcome.sanitizer)
            if not outcome.errors:
                results = outcome.results
                break
            # Recover only from silent deaths (SIGKILL, wedge): a rank
            # that managed to report its own Python error would fail
            # identically on respawn, so those stay fail-stop.
            dead = sorted(
                rank for rank in outcome.victims
                if rank not in outcome.reported
            )
            survivors = [rank for rank in active if rank not in set(dead)]
            if (
                not recovery_enabled
                or not dead
                or not survivors
                or len(recoveries) >= MAX_RECOVERIES
            ):
                detail = "\n".join(
                    f"rank {rank}: {message}"
                    for rank, message in sorted(outcome.errors.items())
                )
                raise ParallelCrashError(
                    f"{len(outcome.errors)} of {cell.workers} workers "
                    f"failed:\n{detail}"
                )
            next_active = (
                survivors if cell.resilience.recovery == "degrade"
                else list(active)
            )
            if plan is not None:
                _consume_clauses(plan, consumed, set(dead), outcome.progress)
            restored = latest_common_iteration(checkpoint_dir, next_active)
            new_start = int(restored) if restored is not None else 0
            furthest = max(
                (outcome.progress.get(rank, 0) for rank in active),
                default=0,
            )
            checkpoint_bytes = 0
            if new_start > 0:
                for rank in next_active:
                    path = worker_checkpoint_path(
                        checkpoint_dir, rank, new_start
                    )
                    try:
                        checkpoint_bytes += os.path.getsize(path)
                    except OSError:  # pragma: no cover - pruned mid-read
                        pass
            recoveries.append({
                "incarnation": len(recoveries) + 1,
                "dead_ranks": list(dead),
                "reasons": {
                    rank: outcome.victims[rank] for rank in dead
                },
                "cohort": list(next_active),
                "restored_iteration": new_start,
                "lost_iterations": max(1, furthest - new_start),
                "checkpoint_bytes": checkpoint_bytes,
                "teardown_seconds": outcome.teardown_seconds,
            })
            registry.counter(
                "recoveries_total",
                help="watchdog-triggered cohort recoveries",
            ).inc()
            active = next_active
            start_iteration = new_start
        wall_seconds = time.perf_counter() - start
    finally:
        if own_checkpoint_dir:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if sanitizer_total is not None and not sanitizer_total.ok:
        from repro.comm.sanitizer import ArenaSanitizerError

        raise ArenaSanitizerError(sanitizer_total)
    digests = {rank: results[rank]["digest"] for rank in results}
    if len(set(digests.values())) != 1:
        raise ParallelDivergenceError(
            f"ranks finished with different model states: {digests}"
        )
    from repro.core.trainer import TrainingReport

    leader = min(results)
    report = TrainingReport(**results[leader]["report"])
    if recoveries:
        # Priced as the sequential restart is: the redone iterations at
        # this run's mean sim iteration cost, plus the checkpoint files.
        mean_iteration_seconds = (
            report.sim_total_seconds / max(1, int(report.iterations))
        )
        bandwidth = ethernet(
            _RECOVERY_NETWORK_GBPS
        ).effective_bytes_per_second
        recovery_seconds = sum(
            outage_seconds(
                rec["lost_iterations"], mean_iteration_seconds,
                rec["checkpoint_bytes"], bandwidth,
            )
            for rec in recoveries
        )
        report.sim_recovery_seconds = (
            report.sim_recovery_seconds + recovery_seconds
        )
    merged_metrics = None
    if config.trace or config.profile:
        merged_metrics = MetricsRegistry()
        for rank, payload in sorted(results.items()):
            load_snapshot(
                merged_metrics, payload.get("metrics", []),
                extra_labels={"rank": str(rank)},
            )
        load_snapshot(merged_metrics, snapshot_registry(registry))
    memory_high_water: dict[str, int] = {}
    per_rank_events: dict[int, list[dict]] = {}
    for rank, payload in results.items():
        for key, value in payload.get("memory_high_water", {}).items():
            memory_high_water[f"rank{rank}/{key}"] = value
        if "events" in payload:
            per_rank_events[rank] = payload["events"]
    return ParallelResult(
        report=report,
        digests=digests,
        wall_seconds=wall_seconds,
        events=_merge_events(per_rank_events),
        memory_high_water=memory_high_water,
        recoveries=recoveries,
        metrics=merged_metrics,
        sanitizer=sanitizer_total,
        environment=results[leader]["environment"],
        preloaded=all(payload["preloaded"] for payload in results.values()),
    )


def _merge_events(per_rank_events: dict[int, list[dict]]) -> list[dict]:
    """Merge per-rank trace shards into one event stream.

    Span ids are per-tracer counters, so shards collide; ids are
    remapped to ``"r<rank>:<id>"`` strings (downstream profile code
    treats ids opaquely) and every span gains a ``rank`` attribute.
    """
    merged: list[dict] = []
    for rank in sorted(per_rank_events):
        for event in per_rank_events[rank]:
            remapped = dict(event)
            remapped["id"] = f"r{rank}:{event['id']}"
            if event.get("parent") is not None:
                remapped["parent"] = f"r{rank}:{event['parent']}"
            remapped["attrs"] = {**event.get("attrs", {}), "rank": rank}
            merged.append(remapped)
    return merged
