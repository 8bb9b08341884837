"""Distributed preconditioned CG.

Preconditioner application is charged according to its parallel structure:

* parallel preconditioners (Jacobi, Neumann) apply locally under the same
  distribution as the vectors -- work divides by ``N_P``;
* serial preconditioners (SSOR's triangular recurrences) are charged as
  serialised work plus a gather/scatter of the residual, exposing the
  classic trade-off: fewer iterations, but a sequential bottleneck each
  iteration.

``faults``/``resilience`` run the Jacobi-preconditioned row-block rank
program under the rank programs' one guard, as in
:func:`~repro.core.cg.hpf_cg` (:func:`~repro.core.resilience.hpf_fault_mode`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hpf.array import DistributedArray
from ..machine.faults import FaultPlan
from .driver import finish_solve, start_solve
from .matvec import MatvecStrategy
from .preconditioners import Preconditioner
from .resilience import ResilienceConfig, hpf_fault_mode
from .result import SolveResult
from .stopping import StoppingCriterion

__all__ = ["hpf_pcg"]


def _apply_preconditioner(
    precond: Preconditioner,
    r: DistributedArray,
    z: DistributedArray,
    tag: str = "precond",
) -> None:
    """``z = M^{-1} r`` with cost charging per the preconditioner's nature."""
    machine = r.machine
    n = r.n
    z_global = precond.solve(r.to_global())
    if precond.parallel:
        counts = r.distribution.counts().astype(float)
        share = counts / max(1, n)
        for rank in range(machine.nprocs):
            machine.charge_compute(rank, precond.flops_per_apply * share[rank])
    else:
        # gather r to one rank, run the recurrence serially, scatter z
        machine.gather(float(r.distribution.max_local_count()), tag=tag)
        flops = np.zeros(machine.nprocs)
        flops[0] = precond.flops_per_apply
        machine.charge_serialized_compute(flops)
        machine.scatter(float(r.distribution.max_local_count()), tag=tag)
    for rank in range(machine.nprocs):
        z.local(rank)[:] = z_global[z.distribution.local_indices(rank)]


def hpf_pcg(
    strategy: MatvecStrategy,
    b: np.ndarray,
    preconditioner: Preconditioner,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> SolveResult:
    """Solve ``A x = b`` with distributed preconditioned CG."""
    if (faults is not None and faults.enabled) or resilience is not None:
        return hpf_fault_mode(strategy, b, x0, criterion, faults, resilience,
                              preconditioner)
    ctx = start_solve(strategy, b, x0, criterion)
    rnorm = ctx.r.norm2()
    ctx.history.append(rnorm)
    extras = {"preconditioner": preconditioner.name}
    if ctx.stop(rnorm):
        return finish_solve(ctx, "pcg", True, 0, extras=extras)

    z = ctx.new_vector("z")
    p = ctx.new_vector("p")
    q = ctx.new_vector("q")
    _apply_preconditioner(preconditioner, ctx.r, z)
    p.assign(z)
    rho = ctx.r.dot(z)

    converged = False
    iterations = 0
    for k in range(1, ctx.maxiter + 1):
        strategy.apply(p, q)
        pq = p.dot(q)
        if pq == 0.0:
            break
        alpha = rho / pq
        ctx.x.axpy(alpha, p)
        ctx.r.axpy(-alpha, q)
        rnorm = ctx.r.norm2()
        ctx.history.append(rnorm)
        iterations = k
        if ctx.stop(rnorm):
            converged = True
            break
        _apply_preconditioner(preconditioner, ctx.r, z)
        rho0 = rho
        rho = ctx.r.dot(z)
        beta = rho / rho0
        p.saypx(beta, z)  # p = beta*p + z
    return finish_solve(ctx, "pcg", converged, iterations, extras=extras)
