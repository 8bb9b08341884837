"""Cross-validate the simulated cost model against real-process execution.

The point of the backend abstraction: the *same* rank program runs on the
discrete-event simulator (modelled ``t_startup + m·t_comm`` time) and on
real OS processes (measured ``perf_counter`` time).  Because both drive
identical NumPy arithmetic through identical binomial-tree collectives,
the numerical outputs must be **bitwise identical** -- any divergence is a
backend bug, not rounding.  :func:`cross_validate` runs a solve on both,
checks that, and packages the modelled-vs-measured time decomposition
that benchmark E20 tabulates.

Terminology: *modelled* quantities come from the simulator's cost model,
*measured* ones from the process backend's wall clock.  Their ratio only
becomes meaningful after :mod:`repro.backend.calibrate` fits the cost
model's ``t_startup``/``t_comm``/``t_flop`` to the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from ..core.result import SolveResult
from ..core.stopping import StoppingCriterion
from ..machine.faults import FaultPlan
from .base import ExecutionBackend, ProgramFactory
from .faulty import FaultInjectingProgram
from .process import ProcessBackend
from .simulated import SimulatedBackend
from .solve import backend_solve

__all__ = [
    "BackendMismatchError",
    "CrossValidation",
    "cross_validate",
    "hpcg_cross_validate",
    "FaultSequenceParity",
    "fault_sequence_parity",
]


class BackendMismatchError(AssertionError):
    """The two backends produced numerically different solver output."""


@dataclass
class CrossValidation:
    """Parity verdict + modelled-vs-measured timing for one solve."""

    solver: str
    n: int
    nprocs: int
    simulated: SolveResult
    process: SolveResult
    #: solver outputs agree bit for bit (x, residual history, iterations)
    bitwise_equal: bool
    iterations_equal: bool
    residuals_equal: bool
    max_abs_diff: float
    #: modelled (simulated) seconds: total / compute / comm
    modelled: Dict[str, float] = field(default_factory=dict)
    #: measured (process) seconds: total / compute / comm
    measured: Dict[str, float] = field(default_factory=dict)

    @property
    def time_ratio(self) -> float:
        """measured / modelled total time (1.0 = perfectly calibrated model)."""
        if self.modelled.get("total", 0.0) <= 0:
            return float("nan")
        return self.measured.get("total", float("nan")) / self.modelled["total"]

    def check(self) -> "CrossValidation":
        """Raise :class:`BackendMismatchError` unless outputs are bitwise equal."""
        if not self.bitwise_equal:
            raise BackendMismatchError(
                f"{self.solver} (n={self.n}, P={self.nprocs}): simulated and "
                f"process backends disagree -- max |Δx| = {self.max_abs_diff:.3e}, "
                f"iterations {self.simulated.iterations} vs "
                f"{self.process.iterations}, residual histories "
                f"{'equal' if self.residuals_equal else 'DIFFER'}"
            )
        return self

    def summary(self) -> str:
        return (
            f"{self.solver} n={self.n} P={self.nprocs}: "
            f"bitwise={'yes' if self.bitwise_equal else 'NO'} "
            f"iters={self.process.iterations} "
            f"modelled={self.modelled.get('total', float('nan')):.3e}s "
            f"measured={self.measured.get('total', float('nan')):.3e}s "
            f"ratio={self.time_ratio:.2f}"
        )


def cross_validate(
    solver: str,
    matrix,
    b: np.ndarray,
    nprocs: int = 2,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    simulated: Optional[Union[SimulatedBackend, ExecutionBackend]] = None,
    process: Optional[Union[ProcessBackend, ExecutionBackend]] = None,
    strict: bool = True,
    fused: bool = False,
    reproducible: bool = False,
) -> CrossValidation:
    """Run one solve on both backends and compare.

    ``strict=True`` (default) raises :class:`BackendMismatchError` on any
    numerical divergence; ``strict=False`` returns the report and lets
    the caller decide.  ``simulated``/``process`` accept pre-configured
    backends (e.g. a custom calibrated cost model, a shorter timeout).
    ``fused=True`` cross-validates the single-reduction recurrence -- the
    packed allreduce must stay bitwise-deterministic across substrates
    just like the classic scalar trees.  ``reproducible=True`` runs both
    solves over superaccumulator reductions; cross-backend parity then
    holds *by construction*, so a mismatch flags transport corruption
    rather than reassociation.
    """
    sim_backend = simulated if simulated is not None else SimulatedBackend()
    proc_backend = process if process is not None else ProcessBackend()

    sim = backend_solve(solver, matrix, b, backend=sim_backend, nprocs=nprocs,
                        x0=x0, criterion=criterion, fused=fused,
                        reproducible=reproducible)
    proc = backend_solve(solver, matrix, b, backend=proc_backend, nprocs=nprocs,
                         x0=x0, criterion=criterion, fused=fused,
                         reproducible=reproducible)
    return _compare(solver, nprocs, sim, proc, strict)


def _compare(solver, nprocs, sim, proc, strict, scalars_equal=True):
    """The bit-for-bit report on two runs of one solve."""
    same_shape = sim.x.shape == proc.x.shape
    iters_equal = sim.iterations == proc.iterations
    res_equal = sim.history.residual_norms == proc.history.residual_norms
    report = CrossValidation(
        solver=solver,
        n=int(sim.x.size),
        nprocs=nprocs,
        simulated=sim,
        process=proc,
        bitwise_equal=same_shape and bool(np.all(sim.x == proc.x))
        and iters_equal and res_equal and scalars_equal
        and sim.converged == proc.converged,
        iterations_equal=iters_equal,
        residuals_equal=res_equal,
        max_abs_diff=(float(np.max(np.abs(sim.x - proc.x))) if same_shape
                      else float("inf")),
        modelled=dict(sim.extras["timings"]),
        measured=dict(proc.extras["timings"]),
    )
    return report.check() if strict else report


def hpcg_cross_validate(
    shape,
    nprocs: int = 2,
    precond: str = "mg",
    fused: bool = False,
    reproducible: bool = False,
    criterion: Optional[StoppingCriterion] = None,
    simulated: Optional[Union[SimulatedBackend, ExecutionBackend]] = None,
    process: Optional[Union[ProcessBackend, ExecutionBackend]] = None,
    strict: bool = True,
    **kwargs,
) -> CrossValidation:
    """Cross-backend parity for the HPCG subsystem (stencil27 + MG + halo).

    Same contract as :func:`cross_validate`, but exercising the 3-D
    subcube distribution, face/edge/corner halo exchange and the chosen
    preconditioner instead of the row-block path.  Beyond ``x``, the
    residual history and the iteration count, the per-iteration scalar
    trajectory (``alphas``/``betas``/``gammas`` in
    ``extras["hpcg"]``) must match bit for bit across substrates.
    """
    from ..hpcg.solve import hpcg_solve

    sim_backend = simulated if simulated is not None else SimulatedBackend()
    proc_backend = process if process is not None else ProcessBackend()
    common = dict(nprocs=nprocs, precond=precond, fused=fused,
                  reproducible=reproducible, criterion=criterion, **kwargs)
    sim = hpcg_solve(shape, backend=sim_backend, **common)
    proc = hpcg_solve(shape, backend=proc_backend, **common)
    scalars_equal = all(
        sim.extras["hpcg"][key] == proc.extras["hpcg"][key]
        for key in ("alphas", "betas", "gammas")
    )
    return _compare(f"hpcg[{precond}]", nprocs, sim, proc, strict,
                    scalars_equal)


@dataclass
class FaultSequenceParity:
    """Cross-backend comparison of the injected-fault sequence.

    ``logs_*`` hold, per rank, the ``(ordinal, action, dest, tag)``
    entries the injector recorded in program order.  With the same user
    plan, determinism of the Comm-level injector demands
    ``sequences_equal``; when the wrapped program's sends are themselves
    deterministic (no retransmitting transport, whose send *count* depends
    on real timing), the injected faults land on identical messages and
    the numerical results must match bitwise too.
    """

    nprocs: int
    logs_simulated: list
    logs_process: list
    stats_simulated: list
    stats_process: list
    sequences_equal: bool
    results_equal: bool

    def check(self) -> "FaultSequenceParity":
        if not self.sequences_equal:
            raise BackendMismatchError(
                "identical FaultPlan seeds produced different injected-fault "
                f"sequences across backends:\nsimulated: {self.logs_simulated}"
                f"\nprocess:   {self.logs_process}"
            )
        return self


def fault_sequence_parity(
    program: ProgramFactory,
    plan: FaultPlan,
    nprocs: int = 2,
    simulated: Optional[ExecutionBackend] = None,
    process: Optional[ExecutionBackend] = None,
    strict: bool = True,
) -> FaultSequenceParity:
    """Assert both backends inject the *same* fault sequence from one seed.

    Wraps ``program`` in :class:`FaultInjectingProgram` (fresh plan clone
    per backend, so RNG streams restart) with per-rank fault logging, runs
    it on both substrates, and compares the logs rank by rank.  Use a
    non-retransmitting program with a drop-free plan (corrupt / duplicate
    / delay) so every rank's send sequence -- and hence its decision
    sequence -- is independent of wall-clock timing.
    """
    sim_backend = simulated if simulated is not None else SimulatedBackend()
    proc_backend = process if process is not None else ProcessBackend()

    run_sim = sim_backend.run(
        FaultInjectingProgram(program, plan.clone(), return_log=True), nprocs
    )
    run_proc = proc_backend.run(
        FaultInjectingProgram(program, plan.clone(), return_log=True), nprocs
    )
    logs_sim = [r["fault_log"] for r in run_sim.results]
    logs_proc = [r["fault_log"] for r in run_proc.results]
    results_equal = _payloads_equal(
        [r["result"] for r in run_sim.results],
        [r["result"] for r in run_proc.results],
    )
    report = FaultSequenceParity(
        nprocs=nprocs,
        logs_simulated=logs_sim,
        logs_process=logs_proc,
        stats_simulated=[r["fault_stats"] for r in run_sim.results],
        stats_process=[r["fault_stats"] for r in run_proc.results],
        sequences_equal=logs_sim == logs_proc,
        results_equal=results_equal,
    )
    return report.check() if strict else report


def _payloads_equal(a, b) -> bool:
    """Structural bitwise equality over nested tuples/lists/arrays/scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and bool(np.all(a == b))
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            _payloads_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _payloads_equal(a[k], b[k]) for k in a
        )
    return bool(a == b)
