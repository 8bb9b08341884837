"""End-to-end HPCG driver: build, run on a backend, assemble the result.

:func:`hpcg_solve` is the HPCG analogue of
:func:`repro.backend.solve.backend_solve`: it distributes a 27-point
stencil system over a 3-D process grid, runs
:class:`~repro.hpcg.program.HPCGRankProgram` on the simulated or process
backend, and assembles a standard
:class:`~repro.core.result.SolveResult` -- so reporting, benchmarks and
the chaos harness treat an HPCG solve exactly like any other backend
solve.  The only assembly difference from the row-block path is the
gather: subcube blocks scatter back into the global vector through the
:class:`~repro.hpf.distribution.Grid3DBlock` index map rather than by
concatenation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..backend.base import ExecutionBackend, RunOptions
from ..backend.solve import _resilient_solve, _wants_recovery, make_backend
from ..core.driver import assemble_backend_result
from ..core.resilience import ResilienceConfig
from ..core.result import SolveResult
from ..core.stopping import StoppingCriterion
from ..hpf.distribution import Grid3DBlock
from ..machine.faults import FaultPlan
from ..sparse.convert import as_matrix
from ..sparse.generators import rhs_for_solution, stencil27
from .program import HPCGRankProgram, ResilientHPCGProgram

__all__ = ["hpcg_solve", "assemble_hpcg_result"]


def assemble_hpcg_result(run, n: int, layout: Grid3DBlock) -> SolveResult:
    """Build a :class:`SolveResult` from an HPCG backend run.

    :func:`~repro.core.driver.assemble_backend_result` with two HPCG
    differences: blocks land in the global vector via the subcube layout's
    index map, and the rank-0 ``extras`` (scalar trajectory, halo stats,
    phase timings) become ``SolveResult.extras["hpcg"]``.
    """
    result = assemble_backend_result(run, solver="hpcg", n=n)
    x = np.zeros(n)
    for rank, res in enumerate(run.results):
        x[layout.local_indices_cached(rank)] = res[0]
    result.x = x
    result.extras["hpcg"] = dict(run.results[0][4])
    return result


def hpcg_solve(
    shape: Union[int, Tuple[int, int, int]],
    backend: Union[str, ExecutionBackend] = "simulated",
    nprocs: int = 4,
    precond: str = "mg",
    reproducible: bool = False,
    b: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    maxiter: Optional[int] = None,
    mg_levels: int = 4,
    grid: Optional[Tuple[int, int, int]] = None,
    matrix=None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
    policy: str = "respawn",
    min_ranks: int = 1,
    abft: bool = False,
    store: Optional[Dict[int, Dict[int, Any]]] = None,
    **backend_kwargs,
) -> SolveResult:
    """Solve a 27-point stencil system on an execution backend.

    Parameters
    ----------
    shape:
        Grid dimensions ``(nx, ny, nz)``, or a single int for a cube.
    backend, nprocs:
        Execution backend name (``"simulated"``/``"process"``) or instance,
        and rank count; extra keyword arguments go to the constructor of
        a named backend (an instance is already built, so it refuses
        them with ``TypeError``).
    precond, reproducible, mg_levels:
        Forwarded to :class:`~repro.hpcg.program.HPCGRankProgram`, which
        always runs the Chronopoulos--Gear recurrence with its dots in one
        reduction tree per iteration.
    b:
        Right-hand side; defaults to the RHS whose exact solution is all
        ones (the HPCG convention, via :func:`rhs_for_solution`).
    matrix:
        Operator override for testing (anything
        :func:`~repro.sparse.convert.as_matrix` accepts, converted to CSR
        once); defaults to ``stencil27(*shape)``.  Every row must couple
        only to its 27-point neighbourhood, at most once per neighbour;
        otherwise ``ValueError`` names the row and column -- raised
        here, while building the multigrid, with ``precond="mg"``, and
        by the ranks otherwise.
    grid:
        Process-grid override ``(px, py, pz)``; defaults to the most
        cubic factorisation of ``nprocs``.
    faults, resilience, policy, min_ranks, abft, store:
        Select the fault-tolerant path: the solve runs
        :class:`~repro.hpcg.program.ResilientHPCGProgram` under
        :func:`~repro.backend.solve.run_with_recovery`, with the same
        plan split as :func:`~repro.backend.solve.backend_solve`
        (message faults at the Comm boundary, state corruption inside
        the program, crashes/slowdowns in the substrate).  ``policy``
        may be ``"respawn"`` or ``"shrink"`` (the 3-D grid re-factorises
        via :func:`~repro.hpf.distribution.choose_grid3d` on a shrink).
        ``abft=True`` duplicates every reduced dot and checksums the
        halo SpMV.  ``store`` supplies the checkpoint store; a
        :class:`~repro.backend.store.DurableCheckpointStore` holding a
        complete checkpoint from a killed driver makes the solve resume
        there instead of from scratch.
    """
    if backend_kwargs:
        if not isinstance(backend, str):
            raise TypeError(
                f"hpcg_solve got constructor arguments "
                f"{sorted(backend_kwargs)} for a built "
                f"{type(backend).__name__}; pass them to it")
        backend = make_backend(backend, **backend_kwargs)
    return _hpcg_solve(
        shape, backend, nprocs, RunOptions(), matrix=matrix, b=b,
        faults=faults, resilience=resilience, policy=policy,
        min_ranks=min_ranks, abft=abft, store=store, precond=precond,
        reproducible=reproducible, x0=x0, criterion=criterion,
        maxiter=maxiter, mg_levels=mg_levels, grid=grid,
    )


def _hpcg_solve(shape, backend, nprocs, options, *, matrix, b, faults,
                resilience, policy, min_ranks, abft, store, **settings):
    """:func:`hpcg_solve` with its per-run values in ``options``."""
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),) * 3
    nx, ny, nz = (int(s) for s in shape)
    shape = (nx, ny, nz)
    matrix = (stencil27(nx, ny, nz) if matrix is None
              else as_matrix(matrix).to_csr())
    if b is None:
        b = rhs_for_solution(matrix, np.ones(matrix.nrows))

    def assemble(run, program):
        return assemble_hpcg_result(
            run, matrix.nrows, program._layout_at(len(run.results)))

    be = make_backend(backend)
    if not (abft or _wants_recovery(faults, resilience, policy, store,
                                    options)):
        program = HPCGRankProgram(matrix, b, shape, **settings)
        return assemble(be.run(program, nprocs, options=options), program)

    if policy not in ("respawn", "shrink"):
        raise ValueError(
            f"hpcg recovery supports the 'respawn' and 'shrink' policies, "
            f"not {policy!r} (rebalancing would break the subcube halo)"
        )
    return _resilient_solve(
        lambda **guard: ResilientHPCGProgram(
            matrix, b, shape, abft=abft, **settings, **guard),
        assemble, be, nprocs, options, faults, resilience, store, policy,
        min_ranks,
    )
