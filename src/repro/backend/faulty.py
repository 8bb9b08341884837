"""Comm-level fault injection: one seeded plan, identical on both backends.

Message faults enter at exactly one point: the boundary every backend
shares -- the operation stream a rank program yields -- so drop,
duplicate, corrupt and delay behave *and sequence* identically whether the
ops are interpreted by the discrete-event scheduler or by real OS
processes.  (The scheduler refuses a plan carrying message faults; it
executes only the crash and slowdown share.)

Determinism across substrates comes from two choices:

* each rank draws its decisions from its **own** generator, derived from
  the user's plan by :meth:`~repro.machine.faults.FaultPlan.for_rank`, so
  no global RNG ordering between ranks is needed;
* decisions are consulted in the **sending rank's program order** -- the
  order of ``Send`` ops in the program text -- which is the same on every
  substrate by construction.

Given the same user plan, the injected-fault sequence per rank is
therefore identical on the simulated and the process backend (asserted by
:func:`repro.backend.validate.fault_sequence_parity`).

Injection semantics at this layer (NIC-level, before the wire):

* **drop** -- the ``Send`` is swallowed; the message never enters the
  network and nothing is charged;
* **corrupt** -- the payload is perturbed by the plan's seeded
  :meth:`~repro.machine.faults.FaultPlan.corrupt_payload`;
* **duplicate** -- the ``Send`` is yielded twice back-to-back;
* **delay** -- the ``Send`` is deferred and flushed immediately before the
  rank's next blocking operation (``Recv``/``Barrier``) or at program
  end.  That reorders it behind later sends -- observably perturbing
  delivery order -- while guaranteeing it is on the wire before the
  sender can possibly block on the reply, so request/response protocols
  cannot deadlock on the injection itself.

Control traffic (``Send(control=True)``, the reliable layer's acks) is
exempt: it models a flow-controlled control channel (DESIGN.md §6).
Self-sends are exempt (they never touch the network).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..machine.events import Barrier, Compute, Recv, Send
from ..machine.faults import (
    CORRUPT,
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    FaultPlan,
    RankSlowdown,
)
from .base import ProgramFactory, RankProgram

__all__ = [
    "FaultInjector",
    "FaultInjectingProgram",
    "SlowdownProgram",
]

#: one fault-log entry: (message ordinal on this rank, action, dest, tag)
LogEntry = Tuple[int, str, int, int]


class FaultInjector:
    """Applies one rank-local fault plan to a stream of yielded ops.

    ``plan`` must already be rank-local (built with ``plan.for_rank(rank)``)
    so its RNG stream is consulted only by this rank's sends.  ``log``
    records every non-deliver decision in program order -- the artifact the
    cross-backend parity check compares.
    """

    def __init__(self, plan: FaultPlan, rank: int):
        self.plan = plan
        self.rank = rank
        self.log: List[LogEntry] = []
        self._deferred: List[Send] = []

    # ------------------------------------------------------------------ #
    def wrap(self, gen: RankProgram, augment_result: bool = False) -> RankProgram:
        """Drive ``gen``, injecting faults into its outbound sends.

        Forwards resume values and thrown exceptions (receive timeouts)
        transparently, so the wrapped generator is a drop-in replacement.
        With ``augment_result`` the program's return value becomes
        ``{"result": ..., "fault_log": [...], "fault_stats": {...}}``.
        """
        plan, rank = self.plan, self.rank
        value: Any = None
        throw: Optional[BaseException] = None
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                for d in self._deferred:  # nothing may be silently lost
                    yield d
                self._deferred.clear()
                if augment_result:
                    return {
                        "result": stop.value,
                        "fault_log": list(self.log),
                        "fault_stats": plan.stats.as_dict(),
                    }
                return stop.value
            value = None
            if isinstance(op, Send) and not op.control and op.dest != rank:
                action = plan.next_action(rank, op.dest, op.tag)
                ordinal = plan.stats.messages_seen
                if action == DROP:
                    self.log.append((ordinal, DROP, op.dest, op.tag))
                    continue
                if action == CORRUPT:
                    self.log.append((ordinal, CORRUPT, op.dest, op.tag))
                    op = dataclasses.replace(
                        op, payload=plan.corrupt_payload(op.payload)
                    )
                elif action == DELAY:
                    self.log.append((ordinal, DELAY, op.dest, op.tag))
                    plan.delay_for()  # keep the RNG stream substrate-aligned
                    self._deferred.append(op)
                    continue
                elif action == DUPLICATE:
                    self.log.append((ordinal, DUPLICATE, op.dest, op.tag))
                    try:
                        yield op
                    except Exception as exc:  # pragma: no cover - drivers
                        throw = exc          # never throw at a Send
                        continue
                assert action in (DELIVER, CORRUPT, DUPLICATE)
                try:
                    yield op
                except Exception as exc:  # pragma: no cover - see above
                    throw = exc
                continue
            if isinstance(op, (Recv, Barrier)):
                # flush delayed sends before blocking: they must be on the
                # wire before any reply we are about to wait for
                for d in self._deferred:
                    try:
                        yield d
                    except Exception as exc:  # pragma: no cover
                        throw = exc
                self._deferred.clear()
                if throw is not None:
                    continue
                try:
                    value = yield op
                except Exception as exc:  # receive timeout: forward inward
                    throw = exc
                continue
            try:
                yield op  # Compute / Checkpoint / control or self Send
            except Exception as exc:  # pragma: no cover - drivers
                throw = exc


def _merge_injector_stats(gen: RankProgram, injector: FaultInjector):
    """Fold the injector's fault counters into a solver result's extras.

    Solver programs return ``(..., extras_dict)`` tuples; the counters of
    faults actually injected live in the wrapper, which would otherwise
    die with the worker process.  Results of any other shape pass through
    untouched.
    """
    result = yield from gen
    if (
        isinstance(result, tuple)
        and result
        and isinstance(result[-1], dict)
    ):
        extras = dict(result[-1])
        extras["injected_faults"] = injector.plan.stats.as_dict()
        result = result[:-1] + (extras,)
    return result


class _DriverSeam:
    """Forward the recovery driver's seam to the wrapped program, which is
    what honours it: the driver sets ``restart``/``layout`` on whatever
    factory it runs and reads ``default_layout``/``n``/``indptr`` from it.
    Explicit properties (not ``__getattr__``) so pickling under ``spawn``
    stays well-defined: unpickling probes attributes before ``inner`` exists.
    """

    @property
    def restart(self):
        return getattr(self.inner, "restart", None)

    @restart.setter
    def restart(self, value):
        self.inner.restart = value

    @property
    def layout(self):
        return getattr(self.inner, "layout", None)

    @layout.setter
    def layout(self, value):
        self.inner.layout = value

    @property
    def default_layout(self):
        # raises AttributeError (-> getattr default) when the inner
        # program has no layout-factory seam
        return self.inner.default_layout

    @property
    def n(self):
        return self.inner.n

    @property
    def indptr(self):
        return self.inner.indptr


class FaultInjectingProgram(_DriverSeam):
    """Picklable factory wrapping a whole rank program in fault injection.

    ``FaultInjectingProgram(inner, plan)(rank, size)`` builds the inner
    rank generator and streams it through a :class:`FaultInjector` seeded
    with ``plan.for_rank(rank)``.  Module-level and holding only picklable
    state, so it survives the process backend's ``spawn`` start method
    like every factory in :mod:`repro.backend.programs`.

    With ``return_log=True`` each rank's result is replaced by
    ``{"result", "fault_log", "fault_stats"}`` -- how the fault sequence
    escapes a worker *process*, where an in-memory log would die with the
    child.
    """

    def __init__(
        self,
        inner: ProgramFactory,
        plan: FaultPlan,
        return_log: bool = False,
    ):
        self.inner = inner
        self.plan = plan
        self.return_log = bool(return_log)

    def __call__(self, rank: int, size: int) -> RankProgram:
        injector = FaultInjector(self.plan.for_rank(rank), rank)
        wrapped = injector.wrap(
            self.inner(rank, size), augment_result=self.return_log
        )
        if self.return_log:
            return wrapped
        return _merge_injector_stats(wrapped, injector)


class SlowdownProgram(_DriverSeam):
    """Picklable factory injecting *real* per-op slowdowns (process backend).

    The simulated scheduler models a straggler by dilating charged compute
    time; real OS processes need real lateness a heartbeat monitor can
    observe.  This wrapper sleeps ``op_delay`` wall-clock seconds before
    forwarding each :class:`~repro.machine.events.Compute` op of a slowed
    rank, starting once ``at_time`` seconds have elapsed since the rank
    entered its program.  All other ops, resume values and thrown
    exceptions pass through untouched, so the wrapped program's numerics
    and message sequence are byte-identical to the unwrapped run -- the
    rank is merely late.

    ``drop_slowdown`` / ``remap_ranks`` mirror the
    :class:`~repro.machine.faults.FaultPlan` consumed-once semantics so the
    recovery driver can retire or renumber slowdowns across restarts.
    """

    def __init__(
        self,
        inner: ProgramFactory,
        slowdowns: Sequence[RankSlowdown] = (),
    ):
        self.inner = inner
        ranks = [s.rank for s in slowdowns]
        if len(ranks) != len(set(ranks)):
            raise ValueError("at most one slowdown per rank")
        self.slowdowns: Dict[int, RankSlowdown] = {s.rank: s for s in slowdowns}

    def drop_slowdown(self, rank: int) -> Optional[RankSlowdown]:
        """Consume ``rank``'s slowdown (``None`` if none scheduled)."""
        return self.slowdowns.pop(rank, None)

    def remap_ranks(self, survivors: Sequence[int]) -> None:
        """Renumber pending slowdowns after a shrink (drops dead ranks)."""
        new_of = {old: new for new, old in enumerate(survivors)}
        self.slowdowns = {
            new_of[r]: RankSlowdown(
                rank=new_of[r], at_time=s.at_time, factor=s.factor,
                op_delay=s.op_delay,
            )
            for r, s in self.slowdowns.items()
            if r in new_of
        }

    def __call__(self, rank: int, size: int) -> RankProgram:
        gen = self.inner(rank, size)
        slow = self.slowdowns.get(rank)
        if slow is None or slow.op_delay <= 0.0:
            return gen
        return self._slowed(gen, slow)

    @staticmethod
    def _slowed(gen: RankProgram, slow: RankSlowdown) -> RankProgram:
        start = time.monotonic()
        value: Any = None
        throw: Optional[BaseException] = None
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = None
            if (
                isinstance(op, Compute)
                and time.monotonic() - start >= slow.at_time
            ):
                time.sleep(slow.op_delay)
            try:
                value = yield op
            except Exception as exc:  # receive timeout: forward inward
                throw = exc

