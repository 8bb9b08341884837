"""Shared scaffolding for the distributed solvers.

Handles what every HPF solver does identically: allocate the aligned
vector set from the strategy's required distribution (the ``ALIGN (:) WITH
p(:) :: q, r, x`` of Figure 2), compute the initial residual, snapshot the
machine counters, and assemble the :class:`SolveResult` with per-solve
communication/compute deltas and load-balance diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..hpf.array import DistributedArray
from .matvec import MatvecStrategy
from .result import ConvergenceHistory, SolveResult
from .stopping import StoppingCriterion

__all__ = [
    "SolveContext",
    "start_solve",
    "finish_solve",
    "assemble_backend_result",
]


@dataclass
class SolveContext:
    """Per-solve bookkeeping shared by the solver drivers."""

    strategy: MatvecStrategy
    criterion: StoppingCriterion
    b: DistributedArray
    x: DistributedArray
    r: DistributedArray
    bnorm: float
    history: ConvergenceHistory
    _stats_before: object
    _clock_before: float
    _flops_before: np.ndarray

    @property
    def machine(self):
        return self.strategy.machine

    def new_vector(self, name: str) -> DistributedArray:
        v = self.strategy.make_vector(name)
        v.align_with(self.b)
        return v

    def stop(self, rnorm: float) -> bool:
        return self.criterion.satisfied(rnorm, self.bnorm)

    @property
    def maxiter(self) -> int:
        return self.criterion.cap(self.strategy.n)


def start_solve(
    strategy: MatvecStrategy,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
) -> SolveContext:
    """Allocate aligned vectors, form ``r = b - A x0``, snapshot counters."""
    machine = strategy.machine
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (strategy.n,):
        raise ValueError(f"b must have shape ({strategy.n},), got {b.shape}")
    crit = criterion or StoppingCriterion()

    stats_before = machine.stats.snapshot()
    clock_before = machine.elapsed()
    flops_before = machine.stats.flops_per_rank.copy()

    b_d = strategy.make_vector("b", b)
    x = strategy.make_vector("x", x0 if x0 is not None else None)
    x.align_with(b_d)
    r = strategy.make_vector("r")
    r.align_with(b_d)

    bnorm = b_d.norm2(tag="setup")
    if x0 is None:
        r.assign(b_d)  # r = b for the zero initial guess
    else:
        strategy.apply(x, r, tag="setup")  # r <- A x0
        r.scale(-1.0)
        r.iadd(b_d)

    history = ConvergenceHistory()
    return SolveContext(
        strategy=strategy,
        criterion=crit,
        b=b_d,
        x=x,
        r=r,
        bnorm=bnorm,
        history=history,
        _stats_before=stats_before,
        _clock_before=clock_before,
        _flops_before=flops_before,
    )


def finish_solve(
    ctx: SolveContext,
    solver: str,
    converged: bool,
    iterations: int,
    extras: Optional[Dict[str, object]] = None,
) -> SolveResult:
    """Assemble the result with machine deltas for this solve."""
    machine = ctx.machine
    delta = ctx._stats_before.since(machine.stats)
    flops = machine.stats.flops_per_rank - ctx._flops_before
    mean_flops = flops.mean() if flops.size else 0.0
    comm = {
        "messages": delta.messages,
        "words": delta.words,
        "comm_time": delta.comm_time,
        "flops": delta.flops,
    }
    all_extras: Dict[str, object] = {
        "flops_per_rank": flops,
        "load_imbalance": float(flops.max() / mean_flops) if mean_flops else 1.0,
        "nprocs": machine.nprocs,
        "topology": machine.topology.name,
    }
    if extras:
        all_extras.update(extras)
    return SolveResult(
        x=ctx.x.to_global(),
        converged=converged,
        iterations=iterations,
        history=ctx.history,
        solver=solver,
        strategy=ctx.strategy.name,
        machine_elapsed=machine.elapsed() - ctx._clock_before,
        comm=comm,
        extras=all_extras,
    )


def assemble_backend_result(run, solver: str, n: int) -> SolveResult:
    """Build a :class:`SolveResult` from an execution-backend run.

    ``run`` is a :class:`~repro.backend.base.BackendRun` whose per-rank
    results follow the rank-program convention
    ``(x_block, residuals, converged, iterations, extras)``.  ``machine_elapsed``
    is simulated time for the simulated backend and measured wall-clock
    time for the process backend; ``extras["backend"]`` says which.
    """
    x = np.concatenate([res[0] for res in run.results])[:n]
    residuals, converged, iterations = (
        run.results[0][1],
        run.results[0][2],
        run.results[0][3],
    )
    history = ConvergenceHistory()
    for rnorm in residuals:
        history.append(rnorm)
    flops = run.stats.flops_per_rank
    mean_flops = flops.mean() if flops.size else 0.0
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        history=history,
        solver=solver,
        strategy="spmd_message_passing",
        machine_elapsed=run.elapsed,
        comm={
            "messages": run.stats.total_messages,
            "words": run.stats.total_words,
            "comm_time": run.stats.comm_time,
            "flops": run.stats.total_flops,
        },
        extras={
            "backend": run.backend,
            "nprocs": run.nprocs,
            "timings": dict(run.timings),
            "per_rank": [dict(p) for p in run.per_rank],
            "flops_per_rank": flops,
            "load_imbalance": float(flops.max() / mean_flops) if mean_flops else 1.0,
        },
    )
