"""Distributed CG: the paper's Figure-2 loop on the HPF runtime.

The iteration body maps one-to-one onto the figure::

    rho0 = rho
    rho  = DOT_PRODUCT(r, r)        ! sdot     -> r.dot(r) + allreduce
    beta = rho / rho0
    p    = beta * p + r             ! saypx    -> p.saypx(beta, r)
    q    = A . p                    ! sparse mat-vect -> strategy.apply
    alpha = rho / DOT_PRODUCT(p, q)
    x    = x + alpha * p            ! saxpy
    r    = r - alpha * q            ! saxpy
    IF ( stop_criterion ) EXIT

Any :class:`~repro.core.matvec.MatvecStrategy` supplies the ``q = A p``
step, so a single driver exercises every data-layout scenario of the
paper.

With ``faults``/``resilience`` set, the solve runs the row-block rank
program this loop is the HPF spelling of, under the rank programs' one
guard and recovery driver (:func:`~repro.core.resilience.hpf_fault_mode`).
Both default to off, leaving the fault-free path untouched.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine.faults import FaultPlan
from .driver import finish_solve, start_solve
from .matvec import MatvecStrategy
from .resilience import ResilienceConfig, hpf_fault_mode
from .result import SolveResult
from .stopping import StoppingCriterion

__all__ = ["hpf_cg"]


def hpf_cg(
    strategy: MatvecStrategy,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> SolveResult:
    """Solve ``A x = b`` with distributed CG under the given strategy."""
    if (faults is not None and faults.enabled) or resilience is not None:
        return hpf_fault_mode(strategy, b, x0, criterion, faults, resilience)
    ctx = start_solve(strategy, b, x0, criterion)
    p = ctx.new_vector("p")
    q = ctx.new_vector("q")
    p.assign(ctx.r)

    rho = ctx.r.dot(ctx.r)
    ctx.history.append(np.sqrt(max(0.0, rho)))
    if ctx.stop(ctx.history.final):
        return finish_solve(ctx, "cg", True, 0)

    converged = False
    iterations = 0
    rho0 = rho
    for k in range(1, ctx.maxiter + 1):
        if k > 1:
            beta = rho / rho0
            p.saypx(beta, ctx.r)  # p = beta*p + r
        strategy.apply(p, q)  # q = A p
        pq = p.dot(q)
        if pq == 0.0:
            break
        alpha = rho / pq
        ctx.x.axpy(alpha, p)  # x = x + alpha p
        ctx.r.axpy(-alpha, q)  # r = r - alpha q
        rho0 = rho
        rho = ctx.r.dot(ctx.r)  # the figure's top-of-loop sdot
        rnorm = float(np.sqrt(max(0.0, rho)))
        ctx.history.append(rnorm)
        iterations = k
        if ctx.stop(rnorm):
            converged = True
            break
    return finish_solve(ctx, "cg", converged, iterations)
