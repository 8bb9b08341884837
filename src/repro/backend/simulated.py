"""The simulated execution backend: the event scheduler behind the backend API.

Adapts the existing :class:`~repro.machine.machine.Machine` +
:class:`~repro.machine.scheduler.Scheduler` pair to the
:class:`~repro.backend.base.ExecutionBackend` interface.  Nothing about
the cost model changes -- this is strictly a wrapper, so every experiment
that ran on the scheduler before produces byte-identical numbers through
the backend API.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..machine.costmodel import CostModel
from ..machine.faults import FaultPlan
from ..machine.machine import Machine
from ..machine.scheduler import Scheduler
from ..machine.topology import Topology
from ..machine.trace import Tracer
from .base import BackendRun, ExecutionBackend, ProgramFactory, RunOptions

__all__ = ["SimulatedBackend"]


class SimulatedBackend(ExecutionBackend):
    """Run rank programs on the deterministic discrete-event simulator.

    Parameters
    ----------
    machine:
        An existing :class:`Machine` to run on (its clocks/stats are *not*
        reset; deltas are reported).  When ``None``, a fresh machine is
        built per :meth:`run` from ``topology``/``cost``.
    topology, cost:
        Machine construction parameters used when ``machine is None``.
    trace:
        Attach a :class:`Tracer` for the duration of the run and return it
        on the :class:`BackendRun` (timeline in simulated seconds).
    tag:
        Stats tag forwarded to the scheduler's point-to-point records.
    faults:
        Default :class:`~repro.machine.faults.FaultPlan` handed to the
        scheduler: the ``substrate_plan()`` share only (crashes +
        slowdowns).  A plan carrying message faults is refused with a
        ``ValueError`` at :meth:`run` -- those are injected at the Comm
        boundary (:class:`~repro.backend.faulty.FaultInjectingProgram`),
        the one injection point both backends share.
    straggler_deadline:
        When set, the scheduler raises
        :class:`~repro.machine.faults.StragglerDetectedError` once a live
        rank's virtual clock runs this many seconds past the slowest live
        peer's -- the simulated twin of the process backend's heartbeat
        deadline.

    ``topology``, ``faults`` and ``straggler_deadline`` are defaults, each
    overridden for one run by its :class:`~repro.backend.base.RunOptions`.
    """

    name = "simulated"

    def __init__(
        self,
        machine: Optional[Machine] = None,
        topology: Union[str, Topology] = "hypercube",
        cost: Optional[CostModel] = None,
        trace: bool = False,
        tag: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        straggler_deadline: Optional[float] = None,
    ):
        self.machine = machine
        self.topology = topology
        self.cost = cost
        self.trace = trace
        self.tag = tag
        self.faults = faults
        self.straggler_deadline = straggler_deadline

    def run(
        self,
        program: ProgramFactory,
        nprocs: int,
        *,
        checkpoints: Optional[Dict[int, Dict[int, Any]]] = None,
        options: Optional[RunOptions] = None,
    ) -> BackendRun:
        opts = self.run_options(options)
        if self.machine is not None:
            if self.machine.nprocs != nprocs:
                raise ValueError(
                    f"backend machine has {self.machine.nprocs} ranks, "
                    f"run requested {nprocs}"
                )
            machine = self.machine
        else:
            machine = Machine(nprocs=nprocs, topology=opts.topology,
                              cost=self.cost)

        stats_before = machine.stats.snapshot()
        clock_before = machine.elapsed()
        flops_before = machine.stats.flops_per_rank.copy()
        clocks_before = machine.clock.copy()

        tracer = None
        prior_tracer = machine.tracer
        if self.trace:
            tracer = Tracer.attach(machine)
        try:
            results = Scheduler(
                machine,
                tag=self.tag,
                faults=opts.faults,
                checkpoint_store=checkpoints,
                straggler_deadline=opts.straggler_deadline,
            ).run(program)
        finally:
            if tracer is not None:
                machine.tracer = prior_tracer

        delta = stats_before.since(machine.stats)
        elapsed = machine.elapsed() - clock_before
        flops = machine.stats.flops_per_rank - flops_before
        compute_times = flops * machine.cost.t_flop
        per_rank = [
            {
                "wall": float(machine.clock[r] - clocks_before[r]),
                "compute_time": float(compute_times[r]),
                "comm_time": float(machine.clock[r] - clocks_before[r])
                - float(compute_times[r]),
                "flops": float(flops[r]),
            }
            for r in range(nprocs)
        ]
        timings = {
            "total": elapsed,
            "compute": float(compute_times.mean()) if nprocs else 0.0,
            "comm": delta.comm_time / nprocs if nprocs else 0.0,
            "messages": float(delta.messages),
            "words": float(delta.words),
        }
        return BackendRun(
            backend=self.name,
            nprocs=nprocs,
            results=results,
            stats=machine.stats,
            elapsed=elapsed,
            timings=timings,
            per_rank=per_rank,
            trace=tracer,
        )
