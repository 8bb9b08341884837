"""Explicit message-passing SPMD conjugate gradient.

The comparator the paper holds HPF against: "If we used the
message-passing SPMD model, then each processor would have a private copy
of the vector q which would be used to gather the partial results locally,
and a merge operation would be employed at the end" -- and, for the CSC
loop, "an explicit message-passing program is able to do that
[parallelise]".

Each rank runs a generator program on the discrete-event
:class:`~repro.machine.scheduler.Scheduler`: it owns a block of matrix rows
and the matching vector blocks, exchanges data only through explicit
``Send``/``Recv``-based collectives (:mod:`~repro.machine.spmd`), and
charges its local flops.  Benchmark E15 compares the resulting
communication volume and simulated time against the HPF runtime's CG --
the paper's portability-vs-control trade-off, quantified.

When a :class:`~repro.machine.faults.FaultPlan` (or a
:class:`~repro.core.resilience.ResilienceConfig`) is supplied, the solver
runs the fault-tolerant twin of the same program,
:class:`~repro.backend.programs.ResilientCGProgram`, through the one
resilient launch every backend solve uses: message faults are injected at
the Comm boundary and masked by the ARQ collectives of
:mod:`repro.machine.reliable`, coordinated checkpoints and sanity audits
catch state corruption, and :func:`~repro.backend.solve.run_with_recovery`
restarts a crashed run from the newest complete checkpoint.  Benchmark E19
measures what that protection costs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.base import RunOptions
from ..backend.programs import CGRankProgram, ResilientCGProgram
from ..backend.simulated import SimulatedBackend
from ..backend.solve import _resilient_solve
from ..machine.faults import FaultPlan
from ..machine.machine import Machine
from ..machine.scheduler import Scheduler
from ..sparse.convert import as_matrix
from ..core.resilience import ResilienceConfig
from ..core.result import ConvergenceHistory, SolveResult
from ..core.stopping import StoppingCriterion

__all__ = ["spmd_cg"]


def spmd_cg(
    machine: Machine,
    matrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> SolveResult:
    """Row-block SPMD CG with hand-written message passing.

    Every rank holds ``ceil(n/P)`` rows of A (CSR), its blocks of the
    vectors, and performs per iteration: one allgather of ``p`` (the
    Scenario-1 broadcast), one local sparse mat-vec, two allreduce inner
    products and three local SAXPY-type updates -- the same pattern as the
    HPF ``csr_forall_aligned`` strategy, but built from explicit messages.

    ``faults`` injects message faults, crashes and state corruption;
    ``resilience`` tunes the recovery layer.  Either being set runs
    :class:`~repro.backend.programs.ResilientCGProgram` on ``machine``
    under :func:`~repro.backend.solve.run_with_recovery`, and ``extras``
    then carries ``recovery``, ``resilience`` and ``injected_faults`` as
    for :func:`~repro.backend.solve.backend_solve`; both ``None`` (the
    default) runs the original unprotected program.
    """
    A = as_matrix(matrix).to_csr()
    n = A.nrows
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    crit = criterion or StoppingCriterion()
    if (faults is not None and faults.enabled) or resilience is not None:
        return _resilient_row_block(machine, A, b, x0, crit, faults,
                                    resilience)
    assemble = _assembler(machine, n, "cg")
    # the same picklable rank program the execution backends run, so the
    # simulated baseline and a real-process run are the identical program
    # text (see repro.backend.validate)
    program = CGRankProgram(A, b, x0=x0, criterion=crit, maxiter=crit.cap(n))
    return assemble(Scheduler(machine, tag="spmd_cg").run(program))


def _resilient_row_block(
    machine: Machine,
    A,
    b: np.ndarray,
    x0: Optional[np.ndarray],
    crit: StoppingCriterion,
    faults: Optional[FaultPlan],
    resilience: Optional[ResilienceConfig],
    inv_diag: Optional[np.ndarray] = None,
    solver: str = "cg",
) -> SolveResult:
    """:class:`~repro.backend.programs.ResilientCGProgram` on ``machine``
    under the one resilient launch: ``spmd_cg``'s fault mode, and the HPF
    solvers' (``inv_diag`` is ``hpf_pcg``'s Jacobi diagonal)."""
    assemble = _assembler(machine, A.nrows, solver)

    def build(**guard) -> ResilientCGProgram:
        program = ResilientCGProgram(A, b, x0=x0, criterion=crit, **guard)
        program.inv_diag = inv_diag
        return program

    return _resilient_solve(
        build, lambda run, program: assemble(run.results),
        SimulatedBackend(machine=machine, tag="spmd_cg"), machine.nprocs,
        RunOptions(), faults, resilience, store=None, policy="respawn",
        min_ranks=1,
    )


def _assembler(machine: Machine, n: int, solver: str):
    """Turn per-rank results into a :class:`SolveResult` carrying the
    machine's deltas from now on (every recovery attempt included)."""
    clock_before = machine.elapsed()
    stats_before = machine.stats.snapshot()

    def assemble(results) -> SolveResult:
        x = np.concatenate([res[0] for res in results])[:n]
        residuals, converged, iterations = results[0][1:4]
        history = ConvergenceHistory()
        for rn in residuals:
            history.append(rn)
        delta = stats_before.since(machine.stats)
        return SolveResult(
            x=x,
            converged=converged,
            iterations=iterations,
            history=history,
            solver=solver,
            strategy="spmd_message_passing",
            machine_elapsed=machine.elapsed() - clock_before,
            comm={
                "messages": delta.messages,
                "words": delta.words,
                "comm_time": delta.comm_time,
                "flops": delta.flops,
            },
            extras={},
        )

    return assemble
