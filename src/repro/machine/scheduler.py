"""Deterministic discrete-event scheduler for SPMD rank programs.

Rank programs are Python generators yielding :class:`~repro.machine.events`
operations.  The scheduler interleaves them deterministically (rank order),
matches sends with receives, advances the shared
:class:`~repro.machine.machine.Machine` clocks, and detects deadlock.

Sends are *eager* (buffered): the sender posts the message and continues,
as MPI implementations do for small messages; the transfer is priced when
the matching receive is posted, completing at
``max(sender_post_time, receiver_ready_time) + message_time``.  Receives
and barriers block.

The point of simulating message passing at this level -- instead of only
charging closed-form collective costs -- is cross-validation: benchmark E4
shows that collective times *emerging* from point-to-point messages agree
with the closed-form formulas the paper uses, and the message-passing CG
baseline (E15) is an honest re-creation of the "explicit message-passing
program" of the paper's Section 5.1.

Fault injection
---------------
An optional :class:`~repro.machine.faults.FaultPlan` makes the simulated
processors unreliable: ranks can suffer scheduled fail-stop crashes (their
generator is closed, messages to them are lost, and the run raises
:class:`~repro.machine.faults.RankFailedError` once the survivors cannot
proceed) and slowdowns (dilated compute time, with optional straggler
detection).  Message faults -- drop, duplicate, corrupt, delay -- are not
this layer's business: they enter at the Comm boundary
(:class:`~repro.backend.faulty.FaultInjectingProgram`), the one injection
point both execution backends share, and a plan carrying them is refused
here.  ``Recv(timeout=...)`` lets programs bound their wait: when the
scheduler would otherwise stall, the earliest-deadline blocked receive has
its rank's clock advanced to the deadline and
:class:`~repro.machine.faults.RecvTimeoutError` raised inside its program.
Timeouts are *conservative* -- they fire only when no other progress is
possible -- so fault-free programs never expire spuriously, yet a lost
message (whose absence stalls the whole machine) is detected at exactly
the receiver's virtual deadline.  With ``faults=None`` (the default) every
code path below behaves exactly as the fault-free scheduler always has.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from .events import ANY_SOURCE, Barrier, Checkpoint, Compute, Op, Recv, Send
from .faults import FaultPlan, RankFailedError, RecvTimeoutError, StragglerDetectedError
from .machine import Machine

__all__ = ["Scheduler", "DeadlockError", "run_spmd"]

RankProgram = Generator[Op, Any, Any]
ProgramFactory = Callable[[int, int], RankProgram]


class DeadlockError(RuntimeError):
    """All live ranks are blocked and no message can be matched."""


class _State(enum.Enum):
    READY = "ready"
    BLOCKED_RECV = "blocked_recv"
    AT_BARRIER = "at_barrier"
    DONE = "done"
    CRASHED = "crashed"


_FINISHED = (_State.DONE, _State.CRASHED)


class Scheduler:
    """Runs one SPMD program instance per machine rank to completion."""

    def __init__(
        self,
        machine: Machine,
        tag: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        checkpoint_store: Optional[Dict[int, Dict[int, Any]]] = None,
        straggler_deadline: Optional[float] = None,
    ):
        self.machine = machine
        self.tag = tag
        if faults is not None and faults.message_faults_enabled:
            raise ValueError(
                "the scheduler takes only a plan's substrate share (crashes "
                "and slowdowns, FaultPlan.substrate_plan()); inject message "
                "faults at the Comm boundary with "
                "repro.backend.faulty.FaultInjectingProgram"
            )
        # an inert plan is equivalent to no plan; normalising here keeps the
        # fault checks off the hot path for every fault-free run
        self.faults = faults if (faults is not None and faults.enabled) else None
        # straggler detection: once a live rank's clock runs this many
        # virtual seconds past the slowest live peer's, the run aborts with
        # StragglerDetectedError so the recovery driver can shrink/rebalance
        if straggler_deadline is not None and straggler_deadline <= 0:
            raise ValueError("straggler_deadline must be positive")
        self.straggler_deadline = straggler_deadline
        # Checkpoint ops write here: {iteration: {rank: payload}}.  The store
        # is caller-owned so it survives the failed run it was taken during --
        # the recovery driver restarts from the newest complete entry.
        self.checkpoint_store = checkpoint_store if checkpoint_store is not None else {}
        self._gens: List[Optional[RankProgram]] = []
        self._state: List[_State] = []
        self._resume_value: List[Any] = []
        self._blocked_op: List[Optional[Op]] = []
        self._recv_deadline: List[Optional[float]] = []
        self._results: List[Any] = []
        # pending sends keyed by (dest, tag) -> deque of (src, post_time, Send)
        self._pending: Dict[Tuple[int, int], Deque[Tuple[int, float, Send]]] = {}

    # ------------------------------------------------------------------ #
    def run(self, program: ProgramFactory) -> List[Any]:
        """Instantiate ``program(rank, nprocs)`` per rank and run to completion.

        Returns the per-rank generator return values.  Raises
        :class:`~repro.machine.faults.RankFailedError` if any rank crashed,
        since the run's results are then incomplete.
        """
        n = self.machine.nprocs
        self._gens = [program(rank, n) for rank in range(n)]
        self._state = [_State.READY] * n
        self._resume_value = [None] * n
        self._blocked_op = [None] * n
        self._recv_deadline = [None] * n
        self._results = [None] * n
        self._pending.clear()

        while not all(s in _FINISHED for s in self._state):
            progressed = False
            for rank in range(n):
                if self._state[rank] is _State.READY:
                    self._advance(rank)
                    progressed = True
            progressed |= self._release_barrier()
            if not progressed:
                progressed = self._fire_fault_event()
            if not progressed:
                self._raise_stalled()
        crashed = [r for r in range(n) if self._state[r] is _State.CRASHED]
        if crashed:
            raise RankFailedError(
                f"rank(s) {crashed} failed during the run; results incomplete",
                rank=crashed[0],
            )
        return list(self._results)

    # ------------------------------------------------------------------ #
    def _advance(self, rank: int, throw: Optional[BaseException] = None) -> None:
        """Resume one rank's generator until it blocks or finishes.

        ``throw`` raises an exception (a receive timeout) inside the
        generator instead of sending a resume value.
        """
        gen = self._gens[rank]
        assert gen is not None
        while True:
            if self.faults is not None and self.faults.crash_due(
                rank, float(self.machine.clock[rank])
            ):
                self._crash(rank)
                return
            try:
                if throw is not None:
                    exc, throw = throw, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(self._resume_value[rank])
            except StopIteration as stop:
                self._state[rank] = _State.DONE
                self._results[rank] = stop.value
                self._gens[rank] = None
                return
            self._resume_value[rank] = None
            if isinstance(op, Compute):
                flops = op.flops
                if self.faults is not None:
                    # a slow processor takes `factor` times longer for the
                    # same arithmetic: charge dilated virtual time
                    factor = self.faults.slowdown_factor(
                        rank, float(self.machine.clock[rank])
                    )
                    if factor > 1.0:
                        flops = flops * factor
                self.machine.charge_compute(rank, flops)
                self._check_straggler(rank)
                continue
            if isinstance(op, Send):
                self._post_send(rank, op)
                continue  # eager: sender never blocks
            if isinstance(op, Recv):
                if op.source != ANY_SOURCE and not 0 <= op.source < self.machine.nprocs:
                    raise ValueError(
                        f"rank {rank} posted a receive from invalid rank "
                        f"{op.source} (nprocs={self.machine.nprocs})"
                    )
                if self._try_match_recv(rank, op):
                    continue  # resume_value already holds the payload
                self._state[rank] = _State.BLOCKED_RECV
                self._blocked_op[rank] = op
                if op.timeout is not None:
                    self._recv_deadline[rank] = (
                        float(self.machine.clock[rank]) + op.timeout
                    )
                return
            if isinstance(op, Checkpoint):
                self.checkpoint_store.setdefault(op.iteration, {})[rank] = op.payload
                continue  # free at this layer; programs charge the copy cost
            if isinstance(op, Barrier):
                self._state[rank] = _State.AT_BARRIER
                self._blocked_op[rank] = op
                return
            raise TypeError(f"rank {rank} yielded a non-Op value: {op!r}")

    # ------------------------------------------------------------------ #
    # fault machinery
    # ------------------------------------------------------------------ #
    def _crash(self, rank: int) -> None:
        """Fail-stop ``rank``: close its program and void traffic to it."""
        assert self.faults is not None
        t = self.faults.fire_crash(rank)
        self.machine.clock[rank] = max(float(self.machine.clock[rank]), t)
        gen = self._gens[rank]
        if gen is not None:
            gen.close()
        self._gens[rank] = None
        self._state[rank] = _State.CRASHED
        self._blocked_op[rank] = None
        self._recv_deadline[rank] = None
        self._results[rank] = None
        # undelivered messages to the dead rank are lost with it; messages it
        # already posted stay in flight (they left its network interface)
        for key in [k for k in self._pending if k[0] == rank]:
            self.faults.stats.lost_to_dead_rank += len(self._pending[key])
            del self._pending[key]
        if self.machine.tracer is not None:
            now = float(self.machine.clock[rank])
            self.machine.tracer.record(rank, "crash", now, now, "fail-stop")

    def _check_straggler(self, rank: int) -> None:
        """Abort the run when ``rank`` has fallen too far behind its peers.

        The straggler's virtual clock races ahead of the live peers who sit
        blocked at the next synchronisation point, so lag is measured as
        this rank's clock minus the slowest live peer's.  Detection models
        a supervisor watching per-rank progress reports: it fires only with
        a deadline configured, and never on a fault-free machine because
        rank skew there stays within one message latency.
        """
        if self.straggler_deadline is None:
            return
        peers = [
            float(self.machine.clock[r])
            for r in range(self.machine.nprocs)
            if r != rank and self._state[r] not in _FINISHED
        ]
        if not peers:
            return
        lag = float(self.machine.clock[rank]) - min(peers)
        if lag > self.straggler_deadline:
            slow = self.faults.slowdown_for(rank) if self.faults else None
            raise StragglerDetectedError(
                rank=rank,
                lag=lag,
                factor=slow.factor if slow is not None else None,
            )

    def _fire_fault_event(self) -> bool:
        """On a global stall, fire the earliest pending timeout or crash.

        Ranks blocked in a receive or barrier stop advancing their own
        clocks, so receive deadlines and scheduled crashes on them can only
        take effect once the machine has no other way to make progress.
        The earliest virtual event (deadline for timeouts; the later of the
        rank's clock and the scheduled time for crashes) fires first, which
        keeps cause and effect ordered -- a retransmission timeout due
        before a crash resolves the stall without killing the rank early.
        """
        # (event_time, kind_priority, rank, is_crash); timeouts win ties so a
        # retry gets its chance before a simultaneous failure
        events: List[Tuple[float, int, int, bool]] = []
        for r in range(self.machine.nprocs):
            if self._state[r] is _State.BLOCKED_RECV and (
                self._recv_deadline[r] is not None
            ):
                events.append((self._recv_deadline[r], 0, r, False))
            if (
                self.faults is not None
                and self._state[r] not in _FINISHED
                and self.faults.has_scheduled_crash(r)
            ):
                due = max(
                    float(self.machine.clock[r]),
                    self.faults.scheduled_crash_time(r),
                )
                events.append((due, 1, r, True))
        if not events:
            return False
        when, _, rank, is_crash = min(events)
        if is_crash:
            self._crash(rank)
            return True
        self.machine.clock[rank] = max(float(self.machine.clock[rank]), when)
        op = self._blocked_op[rank]
        self._state[rank] = _State.READY
        self._blocked_op[rank] = None
        self._recv_deadline[rank] = None
        assert isinstance(op, Recv)
        self._advance(
            rank,
            throw=RecvTimeoutError(
                rank=rank,
                peer=None if op.source == ANY_SOURCE else op.source,
                tag=op.tag,
                elapsed=op.timeout,
            ),
        )
        return True

    def _raise_stalled(self) -> None:
        """No rank can progress: diagnose a crash-induced failure or deadlock."""
        n = self.machine.nprocs
        crashed = [r for r in range(n) if self._state[r] is _State.CRASHED]
        blocked = {
            r: (self._state[r].value, self._blocked_op[r])
            for r in range(n)
            if self._state[r] not in _FINISHED
        }
        pending = self._pending_summary()
        if crashed:
            raise RankFailedError(
                f"rank(s) {crashed} failed and the survivors cannot proceed; "
                f"blocked ranks: {blocked}; pending unmatched sends: {pending}",
                rank=crashed[0],
            )
        raise DeadlockError(
            f"SPMD deadlock; blocked ranks: {blocked}; "
            f"pending unmatched sends: {pending}"
        )

    def _pending_summary(self) -> str:
        """Human-readable list of buffered sends no receive has matched."""
        items = [
            f"{src} -> {dst} (tag={tag}, words={send.words():g})"
            for (dst, tag), queue in sorted(self._pending.items())
            for (src, _, send) in queue
        ]
        return "[" + ", ".join(items) + "]" if items else "none"

    # ------------------------------------------------------------------ #
    def _post_send(self, src: int, op: Send) -> None:
        """Buffer an eager send; deliver at once to a waiting receiver."""
        dst = op.dest
        if not 0 <= dst < self.machine.nprocs:
            raise ValueError(f"rank {src} sent to invalid rank {dst}")
        if self._state[dst] is _State.CRASHED:
            # the wire carried the message; nobody is there to take it
            self.faults.stats.lost_to_dead_rank += 1
            return
        self._pending.setdefault((dst, op.tag), deque()).append(
            (src, float(self.machine.clock[src]), op)
        )
        # a receiver already blocked on this message completes immediately
        if self._state[dst] is _State.BLOCKED_RECV:
            recv = self._blocked_op[dst]
            assert isinstance(recv, Recv)
            if self._try_match_recv(dst, recv):
                self._state[dst] = _State.READY
                self._blocked_op[dst] = None
                self._recv_deadline[dst] = None

    def _complete_transfer(
        self, src: int, post_time: float, dst: int, send: Send
    ) -> None:
        """Price a matched message and advance the receiver's clock."""
        machine = self.machine
        nwords = send.words()
        hops = max(1, machine.topology.hops(src, dst)) if src != dst else 1
        t = machine.cost.message_time(nwords, hops)
        if src == dst:
            return  # self-message: no network traffic
        completion = max(post_time, float(machine.clock[dst])) + t
        machine.clock[dst] = completion
        machine.stats.record_comm("p2p", 1, nwords, t, self.tag)

    def _try_match_recv(self, dst: int, op: Recv) -> bool:
        """If a matching send is pending for ``dst``, complete it."""
        queue = self._pending.get((dst, op.tag))
        if not queue:
            return False
        if op.source == ANY_SOURCE:
            src, post_time, send = queue.popleft()
        else:
            found = None
            for i, (src_i, _, _) in enumerate(queue):
                if src_i == op.source:
                    found = i
                    break
            if found is None:
                return False
            src, post_time, send = queue[found]
            del queue[found]
        if not queue:
            del self._pending[(dst, op.tag)]
        self._complete_transfer(src, post_time, dst, send)
        self._resume_value[dst] = send.payload
        return True

    def _release_barrier(self) -> bool:
        """Release the barrier when every live rank has reached it."""
        live = [
            r
            for r in range(self.machine.nprocs)
            if self._state[r] not in _FINISHED
        ]
        if not live:
            return False
        if not all(self._state[r] is _State.AT_BARRIER for r in live):
            return False
        crashed = [
            r for r in range(self.machine.nprocs) if self._state[r] is _State.CRASHED
        ]
        if crashed:
            raise RankFailedError(
                f"barrier cannot complete: rank(s) {crashed} failed; "
                f"waiting ranks: {live}",
                rank=crashed[0],
            )
        if len(live) != self.machine.nprocs:
            raise DeadlockError(
                "barrier reached while some ranks already terminated: "
                f"live={live}"
            )
        self.machine.barrier(tag=self.tag)
        for r in live:
            self._state[r] = _State.READY
            self._blocked_op[r] = None
        return True


def run_spmd(
    machine: Machine,
    program: ProgramFactory,
    tag: Optional[str] = None,
    faults: Optional[FaultPlan] = None,
    checkpoint_store: Optional[Dict[int, Dict[int, Any]]] = None,
) -> List[Any]:
    """Convenience wrapper: run ``program`` on ``machine`` and return results."""
    return Scheduler(
        machine, tag=tag, faults=faults, checkpoint_store=checkpoint_store
    ).run(program)
