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

* :class:`BackendRun` -- the uniform result record: per-rank return
  values, a :class:`~repro.machine.stats.MachineStats` in the exact shape
  the simulator produces, an elapsed time, and a time decomposition;
* :class:`ExecutionBackend` -- the interface both backends implement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from ..machine.events import Op
from ..machine.faults import RecvTimeoutError
from ..machine.stats import MachineStats

__all__ = [
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
