"""Execution-backend abstraction: one SPMD program, two substrates.

A rank program is a Python generator yielding the operations of
:mod:`repro.machine.events` (``Send``/``Recv``/``Compute``/``Barrier``).
The same generator can execute on two very different substrates:

* the **simulated** backend (:class:`~repro.backend.simulated.SimulatedBackend`)
  drives it through the deterministic discrete-event
  :class:`~repro.machine.scheduler.Scheduler`, pricing every operation with
  the paper's ``t_startup + m·t_comm`` cost model;
* the **process** backend (:class:`~repro.backend.process.ProcessBackend`)
  runs one OS process per rank, carries payloads over pipes and shared
  memory (:mod:`repro.backend.transport`), and measures wall-clock time
  with ``time.perf_counter``.

Because both backends interpret the *same* yielded operations and the same
NumPy arithmetic executes in program order, a fault-free solve produces
bitwise-identical numerical results on both -- the cross-validation layer
(:mod:`repro.backend.validate`) asserts exactly that, and the timing gap
between the two is the modelled-vs-measured comparison of benchmark E20.

This module defines the pieces both implementations share:

* :class:`Comm` -- a communicator adapter bound to ``(rank, size)`` whose
  generator methods wrap the raw events and the :mod:`repro.machine.spmd`
  collectives, so rank programs can be written against one object instead
  of scattering ``yield Send(...)`` calls (the ``DistributedArray`` /
  ``Partition`` idiom of pylops-mpi, at the message-passing level);
* :class:`BackendRun` -- the uniform result record: per-rank return
  values, a :class:`~repro.machine.stats.MachineStats` in the exact shape
  the simulator produces, an elapsed time, and a time decomposition;
* :class:`ExecutionBackend` -- the interface both backends implement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..machine.events import (
    ANY_SOURCE, Barrier, Checkpoint, Compute, Op, Recv, Send,
)
from ..machine import spmd
from ..machine.faults import RecvTimeoutError
from ..machine.stats import MachineStats

__all__ = [
    "Comm",
    "BackendRun",
    "ExecutionBackend",
    "BackendError",
    "BackendTimeoutError",
    "WorkerFailedError",
    "WorkerCrashedError",
    "RecvTimeoutError",
]

RankProgram = Generator[Op, Any, Any]
ProgramFactory = Callable[[int, int], RankProgram]


class BackendError(RuntimeError):
    """Base class for execution-backend failures."""


class BackendTimeoutError(BackendError, TimeoutError):
    """The hard wall-clock timeout expired before every rank finished.

    Distinct from :class:`~repro.machine.faults.RecvTimeoutError`, which is
    the *per-receive* timeout raised inside a rank program (the canonical
    timeout type on both substrates -- re-exported here so backend code
    never needs a bare ``queue.Empty`` or a second timeout class); this one
    is the run-level deadline the caller set on the whole solve.
    """


class WorkerFailedError(BackendError):
    """A worker process died or raised; the run's results are incomplete."""


class WorkerCrashedError(WorkerFailedError):
    """A worker process vanished fail-stop (killed or segfaulted).

    Carries the ``rank`` that died so a recovery driver can respawn it and
    restart from the newest complete checkpoint instead of aborting.
    """

    def __init__(self, rank: int, message: Optional[str] = None):
        super().__init__(
            message or f"worker rank {rank} crashed (fail-stop)"
        )
        self.rank = rank


class Comm:
    """Backend-neutral communicator for SPMD rank programs.

    Bound to one ``(rank, size)`` pair; every method is a generator to be
    driven with ``yield from``, so the same program text runs unchanged on
    the simulated scheduler and on real OS processes::

        def program(rank, size):
            comm = Comm(rank, size)
            total = yield from comm.allreduce_sum(local_dot)
            yield from comm.compute(2.0 * n_local)

    The collective algorithms are exactly those of
    :mod:`repro.machine.spmd` (binomial trees), so reduction *order* -- and
    therefore floating-point rounding -- is identical across backends.
    """

    def __init__(self, rank: int, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size

    # -------------------------------------------------------------- #
    # point-to-point and local ops
    # -------------------------------------------------------------- #
    def send(self, dest: int, payload: Any = None, tag: int = 0,
             nwords: Optional[float] = None) -> RankProgram:
        """Eager send of ``payload`` to ``dest``."""
        yield Send(dest=dest, payload=payload, tag=tag, nwords=nwords)

    def recv(self, source: int = ANY_SOURCE, tag: int = 0,
             timeout: Optional[float] = None) -> RankProgram:
        """Blocking receive; returns the payload."""
        payload = yield Recv(source=source, tag=tag, timeout=timeout)
        return payload

    def compute(self, flops: float) -> RankProgram:
        """Charge local floating-point work (declared flop count)."""
        yield Compute(flops)

    def barrier(self, label: str = "") -> RankProgram:
        """Global synchronisation across all ranks."""
        yield Barrier(label)

    def checkpoint(self, iteration: int, payload: Any) -> RankProgram:
        """Publish this rank's recovery snapshot for ``iteration``.

        The substrate stores it (scheduler checkpoint store / parent
        process); publishing is free here -- charge the copy cost with an
        adjacent :meth:`compute` so both substrates price it identically.
        """
        yield Checkpoint(iteration=iteration, payload=payload)

    # -------------------------------------------------------------- #
    # collectives (binomial trees from repro.machine.spmd)
    # -------------------------------------------------------------- #
    def bcast(self, value: Any, root: int = 0, tag: int = 1) -> RankProgram:
        result = yield from spmd.bcast(self.rank, self.size, value, root, tag)
        return result

    def reduce(self, value: Any, root: int = 0, op=None, tag: int = 2) -> RankProgram:
        kwargs = {"op": op} if op is not None else {}
        result = yield from spmd.reduce_to_root(
            self.rank, self.size, value, root=root, tag=tag, **kwargs
        )
        return result

    def allreduce_sum(self, value: Any, tag: int = 3) -> RankProgram:
        result = yield from spmd.allreduce_sum(self.rank, self.size, value, tag=tag)
        return result

    def gather(self, value: Any, root: int = 0, tag: int = 5) -> RankProgram:
        result = yield from spmd.gather_to_root(
            self.rank, self.size, value, root=root, tag=tag
        )
        return result

    def allgather(self, value: Any, tag: int = 7) -> RankProgram:
        result = yield from spmd.allgather(self.rank, self.size, value, tag=tag)
        return result

    def scatter(self, values: Optional[List[Any]], root: int = 0,
                tag: int = 9) -> RankProgram:
        result = yield from spmd.scatter_from_root(
            self.rank, self.size, values, root=root, tag=tag
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(rank={self.rank}, size={self.size})"


@dataclass
class BackendRun:
    """Outcome of running one SPMD program on an execution backend.

    ``stats`` always has the :class:`~repro.machine.stats.MachineStats`
    shape: the simulated backend fills it with modelled times, the process
    backend mirrors its measured per-rank counters into it, so analysis
    and benchmark code reads either uniformly.

    ``elapsed`` is simulated parallel time (max rank clock) or measured
    wall-clock time (max over ranks, barrier-aligned start), in seconds.

    ``timings`` decomposes ``elapsed``: keys ``"total"``, ``"compute"``,
    ``"comm"`` and, on real processes, ``"send"`` (sums over ranks
    divided by nprocs, i.e. averages).

    ``per_rank`` holds one dict per rank with the raw counters
    (``wall``, ``compute_time``, ``comm_time``, ``messages``, ``words``,
    ``flops``; on real processes also ``send_time``).

    ``recovery`` is filled by the fault-tolerant driver
    (:func:`repro.backend.solve.run_with_recovery`): counters such as
    ``attempts``, ``crashes_recovered``, ``restart_iterations`` and the
    recovery wall-clock.  Empty for plain runs.
    """

    backend: str
    nprocs: int
    results: List[Any]
    stats: MachineStats
    elapsed: float
    timings: Dict[str, float] = field(default_factory=dict)
    per_rank: List[Dict[str, float]] = field(default_factory=list)
    trace: Optional[object] = None  # a repro.machine.trace.Tracer, if enabled
    recovery: Dict[str, Any] = field(default_factory=dict)


class ExecutionBackend(abc.ABC):
    """Interface shared by the simulated and process backends."""

    #: short identifier ("simulated" / "process")
    name: str = "backend"

    @abc.abstractmethod
    def run(
        self,
        program: ProgramFactory,
        nprocs: int,
        *,
        checkpoints: Optional[Dict[int, Dict[int, Any]]] = None,
    ) -> BackendRun:
        """Instantiate ``program(rank, nprocs)`` per rank, run all to completion.

        ``checkpoints`` is an optional caller-owned store that
        :class:`~repro.machine.events.Checkpoint` ops write into
        (``{iteration: {rank: payload}}``); it survives a failed run so the
        recovery driver can restart from the newest complete entry.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
