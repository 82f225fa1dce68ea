"""Exhaustive interleaving check of the real shared-memory arena.

Every interleaving of the real
:class:`~repro.comm.parallel.ParallelWorkerCommunicator` over
:class:`~repro.comm.shm.SharedArena` is run on a 2-rank arena of
4,096-byte segments and a 2-slot metadata ring, which three collectives
wrap (``docs/ANALYSIS.md``, "The protocol check").  Each rank is a
thread over its own view of a fresh arena that records events.  The
view's ``_yield_point`` parks the rank after every event and at every
poll of a wait, and the scheduler picks the next step: run a rank, kill
one (its thread unwinds and writes nothing more), or, after a kill,
convict it as the watchdog does (``mark_failed``, then ``abort``).  A
depth-first search replays each branch on a fresh arena and skips a
state already seen: the control words, the data segments, each rank's
status and event history, and the kill and convict flags.  The ranks
do not beat, since a heartbeat carries the time.

A rank parked in a wait may run again only once the control words have
changed since its last failed ``ready()`` — its own changes included,
as ``progress()`` runs inside the wait.  No rank runnable while one is
unfinished is a deadlock.  Every rank must end done, killed or with
``ArenaAbortedError``; payloads carry ``rank * 100 + seq + 1``, so a
wrong value is a ``torn-read`` and metadata read before it was written
a ``stale-meta``; and the sanitizer replays every execution that ends.
The negative controls mutate the real code of their ranks and must be
caught.
"""

from __future__ import annotations

import hashlib
import threading
import types
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.comm.parallel import ParallelWorkerCommunicator
from repro.comm.sanitizer import check_streams
from repro.comm.shm import (
    EV_POST,
    EV_WRITE,
    ArenaAbortedError,
    ArenaProtocolError,
    SharedArena,
)
from repro.core.wire import WireFormatError

#: States one scenario may reach before the check gives up.
MAX_STATES = 20_000

_FINISHED = ("done", "killed", "aborted", "failed")

#: The violation kinds that show each mutation was caught.
_CAUGHT_AS = {"publish-first": ("stale-meta", "torn-read"),
             "no-progress": ("deadlock",)}


@dataclass(frozen=True)
class Scenario:
    """What each rank runs, and on which arena.

    ``order`` makes the scenario split-phase: every rank issues ``seqs``
    ``iallgather``\\ s, then waits on them in that order; without it,
    each rank runs ``seqs`` blocking ``allreduce_parts``.  ``payloads``
    is the bytes each rank posts per collective.  ``crash`` lets rank 1
    die at any step; ``mutation`` is ``publish-first`` or
    ``no-progress``.
    """

    seqs: int
    payloads: tuple[int, int] = (2048, 2048)
    meta_slots: int = 2
    order: tuple[int, ...] | None = None
    active: tuple[int, ...] = (0, 1)
    crash: bool = False
    mutation: str | None = None


@dataclass(frozen=True)
class ProtocolViolation:
    """One invariant breach, with the schedule that produced it."""

    kind: str
    rank: int
    seq: int
    detail: str
    schedule: tuple[str, ...] = ()


@dataclass
class CheckResult:
    """Outcome of one exhaustive exploration."""

    states: int = 0
    terminals: int = 0
    executions: int = 0
    violations: list[ProtocolViolation] = field(default_factory=list)


class _Killed(BaseException):
    """Unwinds a killed rank's thread from its yield point."""


class _TornRead(Exception):
    """A collective returned values its peers did not post for it."""


#: The violation a rank's error is, by its type ("crash" if none).
_KINDS = {ArenaProtocolError: "stale-meta",
          (_TornRead, WireFormatError): "torn-read"}


def _value(rank: int, seq: int) -> int:
    return rank * 100 + seq + 1


def _expect(got: np.ndarray, want: int, what: str) -> None:
    if not np.all(got == want):
        raise _TornRead(
            f"{what} read as {sorted(set(got.tolist()))}, not {want}"
        )


def _publish_first(self, seq, data, kind, progress=None):
    """``SharedArena.post`` with the publication store moved first."""
    raw = np.frombuffer(data, dtype=np.uint8)
    self._wait_meta_slot(seq, progress=progress)
    offset = self._allocate(seq, raw.size, progress=progress)
    self._posted[self.rank] = seq + 1
    self._record(EV_POST, seq, offset, raw.size)
    self._data[self.rank][offset:offset + raw.size] = raw
    self._meta[self.rank, seq % self.spec.meta_slots] = offset, raw.size, kind
    self._record(EV_WRITE, seq, offset, raw.size)


class _Rank:
    """One rank's thread over its own view, parked between steps."""

    def __init__(self, run: "_Run", rank: int):
        self.run = run
        self.rank = rank
        self.view = SharedArena.attach(run.arena.spec, rank)
        self.view._hb_time = None  # no beats: they carry the time
        self.view._yield_point = self._park
        if run.scenario.mutation == "publish-first":
            self.view.post = types.MethodType(_publish_first, self.view)
        self.go = threading.Semaphore(0)
        self.state = "step"
        self.seq = 0
        self.resumed = b""  # control words at its last failed ready()
        self.kill = False
        self.error: tuple[str, str] | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()
        run.parked.acquire()

    def _park(self, waiting: bool) -> None:
        self.state = "wait" if waiting else "step"
        self.run.parked.release()
        self.go.acquire()
        if self.kill:
            raise _Killed

    def runnable(self) -> bool:
        return self.state == "step" or (
            self.state == "wait" and self.run.words() != self.resumed
        )

    def _main(self) -> None:
        try:
            comm = ParallelWorkerCommunicator(self.view, self.rank)
            if self.run.scenario.mutation == "no-progress":
                comm.progress = lambda: None
            self._program(comm)
            self.state = "done"
        except _Killed:
            self.state = "killed"
        except ArenaAbortedError:
            self.state = "aborted"
        except Exception as error:
            kind = next((kind for cls, kind in _KINDS.items()
                         if isinstance(error, cls)), "crash")
            self.state, self.error = "failed", (kind, str(error))
        finally:
            self.run.parked.release()

    def _program(self, comm) -> None:
        scenario = self.run.scenario
        cohort = scenario.active
        handles = []
        for seq in range(scenario.seqs):
            self.seq = seq
            part = np.full(scenario.payloads[self.rank] // 4,
                           _value(self.rank, seq), np.float32)
            if scenario.order is not None:
                handles.append(comm.iallgather([[part]]))
                continue
            (total,) = comm.allreduce_parts([[part]])
            _expect(total, sum(_value(r, seq) for r in cohort),
                    f"the sum of seq {seq}")
        for seq in scenario.order or ():
            self.seq = seq
            for peer, (part,) in zip(cohort, handles[seq].wait()):
                _expect(part, _value(peer, seq), f"rank {peer}'s seq {seq}")


class _Run:
    """One execution: a fresh arena and a thread per active rank."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.arena = SharedArena.create(
            2, 4096, scenario.meta_slots,
            active_ranks=scenario.active, event_slots=8 * scenario.seqs + 64,
        )
        self.parked = threading.Semaphore(0)
        self.schedule: list[str] = []
        self.killed = self.convicted = False
        self.ranks = [_Rank(self, rank) for rank in scenario.active]

    def words(self) -> bytes:
        return self.arena._ctrl.tobytes()

    def key(self) -> bytes:
        digest = hashlib.blake2b(self.words(), digest_size=16)
        for data in self.arena._data:
            digest.update(data.tobytes())
        for stream in self.arena.event_streams().values():
            digest.update(repr([event[:4] for event in stream]).encode())
        digest.update(repr((
            [(r.state, r.runnable()) for r in self.ranks],
            self.killed, self.convicted,
        )).encode())
        return digest.digest()

    def choices(self) -> list[str]:
        out = [f"r{r.rank}" for r in self.ranks if r.runnable()]
        if self.scenario.crash and not self.killed:
            out += [f"kill r{r.rank}" for r in self.ranks
                    if r.rank == 1 and r.state not in _FINISHED]
        if self.killed and not self.convicted:
            out.append("convict")
        return out

    def step(self, choice: str) -> None:
        self.schedule.append(choice)
        if choice == "convict":
            self.convicted = True
            self.arena.mark_failed(1)
            self.arena.abort()
            return
        rank = self.ranks[self.scenario.active.index(int(choice[-1]))]
        if choice.startswith("kill"):
            self.killed = rank.kill = True
        if rank.state == "wait":  # it tests ready() first
            rank.resumed = self.words()
        rank.go.release()
        self.parked.acquire()

    def violations(self) -> list[ProtocolViolation]:
        """Failed ranks, a deadlock, or what the sanitizer finds in an
        execution that ended."""
        schedule = tuple(self.schedule)
        out = [ProtocolViolation(r.error[0], r.rank, r.seq, r.error[1],
                                 schedule) for r in self.ranks if r.error]
        if self.choices():
            return out
        stuck = [r for r in self.ranks if r.state not in _FINISHED]
        if stuck:
            out.append(ProtocolViolation(
                "deadlock", stuck[0].rank, stuck[0].seq,
                f"ranks {[r.rank for r in stuck]} wait and no step can "
                "change what they wait on", schedule,
            ))
        else:
            report = check_streams(self.arena.event_streams())
            out += [ProtocolViolation(v.kind, v.rank, v.seq, v.detail,
                                      schedule) for v in report.violations]
        return out

    def close(self) -> None:
        for rank in self.ranks:
            if rank.thread.is_alive():
                rank.kill = True
                rank.go.release()
            rank.thread.join()
            rank.view._yield_point = None
            rank.view.close()
        self.arena.close()


def check(scenario: Scenario) -> CheckResult:
    """Explore every interleaving of ``scenario`` on the real arena."""
    result = CheckResult()
    seen: set[bytes] = set()
    found: dict[tuple, ProtocolViolation] = {}
    stack: list[list[str]] = [[]]
    while stack:
        prefix = stack.pop()
        result.executions += 1
        run = _Run(scenario)
        try:
            for choice in prefix:
                run.step(choice)
            while True:
                key = run.key()
                if key in seen:
                    break
                seen.add(key)
                result.states += 1
                if result.states > MAX_STATES:
                    raise ValueError(f"more than {MAX_STATES} states at "
                                     f"{scenario.seqs} seqs; check fewer")
                for v in run.violations():
                    found.setdefault((v.kind, v.rank, v.seq, v.detail), v)
                choices = run.choices()
                if not choices:
                    result.terminals += all(
                        r.state in _FINISHED for r in run.ranks
                    )
                    break
                stack.extend(run.schedule + [c] for c in choices[:0:-1])
                run.step(choices[0])
        finally:
            run.close()
    result.violations = list(found.values())
    return result


def scenarios(seqs: int = 3) -> dict[str, Scenario]:
    """The suite.  The split-phase window, at least 3 wide, is finished
    last first.  In ``split-phase-ring`` it outgrows the 2-slot ring, so
    a blocked post must run the engine.  In ``split-phase-room`` rank
    1's posts outgrow its segment while rank 0's fit, so rank 0 is in a
    *wait* when rank 1 needs it to drain the first: waits must run the
    engine too.
    """
    window = max(seqs, 3)
    order = (window - 1, *range(window - 1))
    ring = Scenario(window, (1024, 1024), order=order)
    room = Scenario(window, (1024, 1536), meta_slots=window, order=order)
    return {
        "clean-wraparound": Scenario(seqs),
        "die-anywhere": Scenario(seqs, crash=True),
        "degraded-cohort": Scenario(seqs, active=(0,)),
        "split-phase-ring": ring,
        "split-phase-room": room,
        "broken-publish-first": Scenario(seqs, mutation="publish-first"),
        "no-progress-ring": replace(ring, mutation="no-progress"),
        "no-progress-room": replace(room, mutation="no-progress"),
    }


def run_protocol_check(seqs: int = 3) -> dict:
    """The CI scenario suite; returns a JSON-ready summary.

    A clean scenario passes with no violation; a control passes when a
    violation shows it was caught.
    """
    summary: dict = {"ok": True, "scenarios": {}}
    for name, scenario in scenarios(seqs).items():
        result = check(scenario)
        caught_as = _CAUGHT_AS.get(scenario.mutation)
        ok = not result.violations if caught_as is None else any(
            v.kind in caught_as for v in result.violations
        )
        summary["scenarios"][name] = {
            "ok": ok,
            "states": result.states,
            "terminals": result.terminals,
            "executions": result.executions,
            "violations": [asdict(v) for v in result.violations[:10]],
        }
        if caught_as is not None:
            summary["scenarios"][name]["expectation"] = "must be caught"
        summary["ok"] = summary["ok"] and ok
    return summary
