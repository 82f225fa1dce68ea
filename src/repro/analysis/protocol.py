"""Exhaustive interleaving model of the shared-arena protocol.

The arena's correctness argument (:mod:`repro.comm.shm`) is a handful
of ordering claims: publication is the last store of a post, readers
only copy bytes whose publication they observed, the bump allocator
reuses bytes only after every active rank's drained counter passed
them, and a death anywhere leads to a typed abort rather than a hang.
Unit tests exercise a few schedules; the chaos harness samples more;
this module *enumerates all of them* for a small but adversarial
configuration — a 2-rank cohort, a data segment sized to force
wraparound, a 2-slot metadata ring — so the claims hold for every
interleaving of the protocol's micro-steps, not just the ones a
scheduler happened to produce.

The model mirrors the implementation step for step:

* ``alloc`` — ``_wait_meta_slot`` + ``_allocate`` (guarded: enabled
  only when the ring slot is reclaimable and a non-overlapping block
  exists, exactly the conditions the real poll loops wait on);
* ``write`` — payload bytes + metadata slot, as ``(rank, seq)`` tokens
  so a stale or torn read is detectable by value;
* ``publish`` — ``posted[r] = seq + 1`` (the store under test:
  ``broken=True`` swaps it before ``write``, and the model must then
  report a stale read — the model's own self-test);
* ``read`` — peer payload copy with token validation;
* ``drain`` — ``drained[r] = seq + 1``;
* ``die`` / ``convict`` — a worker vanishing at any micro-step and the
  parent watchdog's mark_failed + abort; every blocked step is
  abort-unblockable, so the deadlock-freedom invariant has teeth;
* ``progress`` — the communicator's progress engine
  (``ParallelWorkerCommunicator.progress``), for the *split-phase*
  program (``window > 0``: W posts first, then the reads, in any finish
  order): while a rank is blocked in a post or in a wait it reads
  whatever issued collective its peers have posted, and ``drained``
  only ever rises to the lowest sequence number the rank has yet to
  read.  ``progress=False`` takes the engine out of the waits, and the
  model must then report the self-deadlock.

Violations are typed (:class:`ProtocolViolation` naming rank, seq and
schedule); :func:`run_protocol_check` runs the CI scenario suite —
clean wraparound, die-anywhere, degraded cohort, the split-phase
window, plus the two negative controls — and is what
``repro protocol-check`` drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Micro-op kinds, in per-seq program order.
_OPS = ("alloc", "write", "publish", "read", "drain")


@dataclass(frozen=True)
class ModelConfig:
    """One model scenario.

    ``capacity``/``payload`` are in abstract bytes — the defaults make
    three posts wrap the segment, which is what exercises reclamation.
    ``crash_rank`` enables a ``die`` step for that rank at *every*
    point of its program; ``broken`` swaps publish before write.

    ``window > 0`` switches to the split-phase program: ``window``
    collectives are posted before any is read, then finished in
    ``finish_order`` (default: the last one first).  ``payloads`` gives
    each rank its own payload size — a rank whose posts all fit can then
    sit in a wait while its peer is short of room.  ``progress`` is
    whether blocked posts and waits run the progress engine.
    """

    n_ranks: int = 2
    seqs: int = 3
    meta_slots: int = 2
    capacity: int = 2
    payload: int = 1
    active: tuple[int, ...] | None = None
    crash_rank: int | None = None
    broken: bool = False
    window: int = 0
    finish_order: tuple[int, ...] | None = None
    payloads: tuple[int, ...] | None = None
    progress: bool = True

    @property
    def active_ranks(self) -> tuple[int, ...]:
        if self.active is not None:
            return self.active
        return tuple(range(self.n_ranks))

    def payload_of(self, rank: int) -> int:
        return self.payload if self.payloads is None else self.payloads[rank]


@dataclass(frozen=True)
class ProtocolViolation:
    """One invariant breach, with the schedule that produced it."""

    kind: str
    rank: int
    seq: int
    detail: str
    schedule: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[{self.kind}] rank {self.rank} seq {self.seq}: {self.detail}"


@dataclass
class ModelResult:
    """Outcome of one exhaustive exploration."""

    config: ModelConfig
    states: int = 0
    terminals: int = 0
    violations: list[ProtocolViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# State layout (immutable, hashable):
#   pc[r]        — index into rank r's program (len(program) = done)
#   alive[r]     — 1 running, 0 died
#   aborted      — global abort flag (0/1)
#   exited[r]    — 1 once r bailed out via the abort path
#   posted[r], drained[r]
#   meta[r]      — tuple(meta_slots) of (seq, offset) or None
#   data[r]      — tuple(capacity) of (rank, seq) token or None
#   head[r]      — bump pointer
#   outstanding[r] — tuple of (seq, offset, nbytes)
#   got[r]       — frozenset of (seq, peer) contributions r has read
#                  (split-phase program only; empty otherwise)


def _program(config: ModelConfig, rank: int) -> tuple[tuple, ...]:
    peers = [p for p in config.active_ranks if p != rank]
    ops: list[tuple] = []

    def post(seq):
        if config.broken:
            return [("alloc", seq), ("publish", seq), ("write", seq)]
        return [("alloc", seq), ("write", seq), ("publish", seq)]

    def finish(seq):
        return [("read", seq, p) for p in peers] + [("drain", seq)]

    if config.window:
        order = config.finish_order
        if order is None:
            order = (config.window - 1, *range(config.window - 1))
        for seq in range(config.window):
            ops.extend(post(seq))
        for seq in order:
            ops.extend(finish(seq))
    else:
        for seq in range(config.seqs):
            ops.extend(post(seq) + finish(seq))
    return tuple(ops)


class ProtocolModel:
    """Exhaustive DFS over every interleaving of one scenario."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.programs = {
            r: _program(config, r) for r in config.active_ranks
        }

    # -- state helpers ------------------------------------------------------

    def _initial(self):
        c = self.config
        ranks = c.active_ranks
        return (
            tuple(0 for _ in ranks),  # pc
            tuple(1 for _ in ranks),  # alive
            0,  # aborted
            tuple(0 for _ in ranks),  # exited
            tuple(0 for _ in ranks),  # posted
            tuple(0 for _ in ranks),  # drained
            tuple(tuple(None for _ in range(c.meta_slots)) for _ in ranks),
            tuple(tuple(None for _ in range(c.capacity)) for _ in ranks),
            tuple(0 for _ in ranks),  # head
            tuple(() for _ in ranks),  # outstanding
            tuple(frozenset() for _ in ranks),  # got
        )

    def _floor(self, state) -> int:
        drained = state[5]
        return min(drained) if drained else 0

    def _terminal_rank(self, state, index: int) -> bool:
        pc, alive, _, exited = state[0], state[1], state[2], state[3]
        rank = self.config.active_ranks[index]
        return (
            pc[index] >= len(self.programs[rank])
            or not alive[index]
            or exited[index]
        )

    def _try_alloc(self, state, index: int, seq: int):
        """The granted (offset, outstanding') or None if blocked —
        mirrors ``_wait_meta_slot`` + ``_allocate``."""
        c = self.config
        if seq - c.meta_slots >= self._floor(state):
            return None  # metadata ring slot not yet reclaimable
        floor = self._floor(state)
        outstanding = tuple(
            entry for entry in state[9][index] if entry[0] >= floor
        )
        head = state[8][index]
        payload = c.payload_of(c.active_ranks[index])
        start = head
        if start + payload > c.capacity:
            start = 0  # wrap; payloads are never split
        end = start + payload
        for _, off, nb in outstanding:
            if start < off + nb and off < end:
                return None  # blocked on undrained bytes
        return start, outstanding + ((seq, start, payload),)

    def _engine_floor(self, rank: int, got) -> int:
        """What ``_retire`` publishes: the lowest sequence number
        ``rank`` still has to read (the window's end when none)."""
        peers = [p for p in self.config.active_ranks if p != rank]
        for seq in range(self.config.window):
            if any((seq, p) not in got for p in peers):
                return seq
        return self.config.window

    # -- exploration --------------------------------------------------------

    def explore(self, max_states: int = 2_000_000) -> ModelResult:
        c = self.config
        ranks = c.active_ranks
        result = ModelResult(config=c)
        seen: set = set()
        # Each stack entry: (state, schedule) — schedule only as deep
        # as needed to label violations, truncated for memory sanity.
        stack = [(self._initial(), ())]
        while stack:
            state, schedule = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            result.states += 1
            if result.states > max_states:  # pragma: no cover - backstop
                raise RuntimeError(
                    f"protocol model exceeded {max_states} states; "
                    "shrink the scenario"
                )
            successors = self._successors(state, schedule, result)
            if not successors:
                if all(
                    self._terminal_rank(state, i) for i in range(len(ranks))
                ):
                    result.terminals += 1
                else:
                    stuck = [
                        ranks[i] for i in range(len(ranks))
                        if not self._terminal_rank(state, i)
                    ]
                    result.violations.append(ProtocolViolation(
                        "deadlock", stuck[0], -1,
                        f"ranks {stuck} have no enabled step and the "
                        "abort flag cannot unblock them",
                        schedule,
                    ))
            else:
                stack.extend(successors)
        return result

    def _successors(self, state, schedule, result):
        c = self.config
        ranks = c.active_ranks
        (pc, alive, aborted, exited, posted, drained,
         meta, data, head, outstanding, got) = state
        out = []

        def rebuild(**overrides):
            fields = {
                "pc": pc, "alive": alive, "aborted": aborted,
                "exited": exited, "posted": posted, "drained": drained,
                "meta": meta, "data": data, "head": head,
                "outstanding": outstanding, "got": got,
            }
            fields.update(overrides)
            return (
                fields["pc"], fields["alive"], fields["aborted"],
                fields["exited"], fields["posted"], fields["drained"],
                fields["meta"], fields["data"], fields["head"],
                fields["outstanding"], fields["got"],
            )

        def checked_read(rank, seq, peer, label):
            """Validate what ``rank`` reads of ``peer``'s ``seq``: the
            read-after-reclaim detector (tokens name their owner)."""
            j = ranks.index(peer)
            slot = meta[j][seq % c.meta_slots]
            if slot is None or slot[0] != seq:
                result.violations.append(ProtocolViolation(
                    "stale-meta", rank, seq,
                    f"read of rank {peer} observed metadata "
                    f"{slot!r} instead of seq {seq} after its "
                    "publication was visible",
                    schedule + (label,),
                ))
                return
            offset = slot[1]
            cells = data[j][offset:offset + c.payload_of(peer)]
            if any(cell != (peer, seq) for cell in cells):
                result.violations.append(ProtocolViolation(
                    "torn-read", rank, seq,
                    f"read of rank {peer} copied tokens "
                    f"{list(cells)} instead of {(peer, seq)} — "
                    "published bytes were stale or reused",
                    schedule + (label,),
                ))

        def progress_steps(i, rank):
            """The engine, run from a blocked post or wait of ``rank``:
            read any issued collective a peer has posted, then publish
            the drained floor."""
            if not c.window or not c.progress or aborted:
                return
            for seq in range(posted[i]):  # issued = own post published
                for peer in ranks:
                    if peer == rank or (seq, peer) in got[i]:
                        continue
                    if posted[ranks.index(peer)] <= seq:
                        continue
                    label = f"r{rank}:progress@{seq}"
                    checked_read(rank, seq, peer, label)
                    new_got = got[i] | {(seq, peer)}
                    out.append((
                        rebuild(
                            got=bump(got, i, new_got),
                            drained=bump(
                                drained, i,
                                max(drained[i],
                                    self._engine_floor(rank, new_got)),
                            ),
                        ),
                        schedule + (label,),
                    ))

        def bump(seq_tuple, index, value):
            items = list(seq_tuple)
            items[index] = value
            return tuple(items)

        # Parent watchdog: a dead rank gets convicted exactly once.
        if any(not a for a in alive) and not aborted:
            out.append((rebuild(aborted=1), schedule + ("convict",)))

        for i, rank in enumerate(ranks):
            if self._terminal_rank(state, i):
                continue
            # Die-anywhere: the crash rank may vanish before any step.
            if rank == c.crash_rank and alive[i]:
                out.append((
                    rebuild(alive=bump(alive, i, 0)),
                    schedule + (f"r{rank}:die",),
                ))
            op = self.programs[rank][pc[i]]
            label = f"r{rank}:{op[0]}@{op[1]}"
            advance = bump(pc, i, pc[i] + 1)
            if op[0] == "alloc":
                granted = self._try_alloc(state, i, op[1])
                if granted is None:
                    if aborted:  # blocked poll loop bails out typed
                        out.append((
                            rebuild(exited=bump(exited, i, 1)),
                            schedule + (label + ":abort",),
                        ))
                    progress_steps(i, rank)
                    continue
                offset, new_outstanding = granted
                out.append((
                    rebuild(
                        pc=advance,
                        head=bump(head, i, offset + c.payload),
                        outstanding=bump(outstanding, i, new_outstanding),
                    ),
                    schedule + (label,),
                ))
            elif op[0] == "write":
                seq = op[1]
                entry = next(
                    e for e in outstanding[i] if e[0] == seq
                )
                _, offset, nbytes = entry
                cells = list(data[i])
                for cell in range(offset, offset + nbytes):
                    cells[cell] = (rank, seq)
                slots = list(meta[i])
                slots[seq % c.meta_slots] = (seq, offset)
                out.append((
                    rebuild(
                        pc=advance,
                        data=bump(data, i, tuple(cells)),
                        meta=bump(meta, i, tuple(slots)),
                    ),
                    schedule + (label,),
                ))
            elif op[0] == "publish":
                out.append((
                    rebuild(pc=advance, posted=bump(posted, i, op[1] + 1)),
                    schedule + (label,),
                ))
            elif op[0] == "read":
                seq, peer = op[1], op[2]
                j = ranks.index(peer)
                if aborted:
                    out.append((
                        rebuild(exited=bump(exited, i, 1)),
                        schedule + (label + ":abort",),
                    ))
                    continue
                if (seq, peer) in got[i]:  # the engine already has it
                    out.append((rebuild(pc=advance), schedule + (label,)))
                    continue
                if posted[j] <= seq:
                    progress_steps(i, rank)
                    continue  # still waiting on the peer
                checked_read(rank, seq, peer, label)
                new_got = got[i] | {(seq, peer)} if c.window else got[i]
                out.append((
                    rebuild(pc=advance, got=bump(got, i, new_got)),
                    schedule + (label,),
                ))
            elif op[0] == "drain":
                through = (
                    self._engine_floor(rank, got[i]) if c.window
                    else op[1] + 1
                )
                out.append((
                    rebuild(
                        pc=advance,
                        drained=bump(drained, i, max(drained[i], through)),
                    ),
                    schedule + (label,),
                ))
        return out


def check_model(config: ModelConfig) -> ModelResult:
    """Explore one scenario exhaustively."""
    return ProtocolModel(config).explore()


def run_protocol_check(seqs: int = 3) -> dict:
    """The CI scenario suite; returns a JSON-ready summary.

    Six claims, each over *every* interleaving of its scenario:

    1. clean 2-rank run with wraparound — no violation, no deadlock;
    2. rank 1 may die at any micro-step — every execution terminates
       (done or typed abort), never a deadlock;
    3. degraded cohort (rank 1 inactive) — rank 0 alone is clean;
    4. split-phase, more collectives in flight than the metadata ring
       has slots, the last one finished first — no deadlock and no read
       of reclaimed bytes, because a blocked post runs the engine;
    5. split-phase, rank 1's payloads outgrow its segment while rank
       0's all fit — rank 0 is in a *wait* (on the last collective)
       when rank 1 needs it to drain the first, so waits run the
       engine too;
    6. negative controls, which the model *must* catch or it has lost
       its teeth: publish before write (a stale read), and scenarios 4
       and 5 with the engine taken out of the waits (a deadlock).
    """
    window = max(seqs, 3)
    ring = ModelConfig(window=window, meta_slots=2, capacity=window)
    room = ModelConfig(
        window=window, meta_slots=window, capacity=4, payloads=(1, 2)
    )
    scenarios = {
        "clean-wraparound": ModelConfig(seqs=seqs),
        "die-anywhere": ModelConfig(seqs=seqs, crash_rank=1),
        "degraded-cohort": ModelConfig(seqs=seqs, active=(0,)),
        "split-phase-ring": ring,
        "split-phase-room": room,
    }
    controls = {
        "broken-publish-first": (
            ModelConfig(seqs=seqs, broken=True), ("stale-meta", "torn-read")
        ),
        "no-progress-ring": (replace(ring, progress=False), ("deadlock",)),
        "no-progress-room": (replace(room, progress=False), ("deadlock",)),
    }
    summary: dict = {"ok": True, "scenarios": {}}
    for name, config in scenarios.items():
        result = check_model(config)
        summary["scenarios"][name] = {
            "ok": result.ok,
            "states": result.states,
            "terminals": result.terminals,
            "violations": [str(v) for v in result.violations[:10]],
        }
        summary["ok"] = summary["ok"] and result.ok
    for name, (config, expected) in controls.items():
        result = check_model(config)
        caught = any(v.kind in expected for v in result.violations)
        summary["scenarios"][name] = {
            "ok": caught,
            "states": result.states,
            "terminals": result.terminals,
            "violations": [str(v) for v in result.violations[:3]],
            "expectation": "must be caught",
        }
        summary["ok"] = summary["ok"] and caught
    return summary
