"""Backend-portable SPMD rank programs (picklable factories).

A program factory is called as ``factory(rank, size)`` and returns the
rank's generator.  Everything here is a module-level class holding plain
NumPy arrays, so factories survive pickling -- the requirement for the
process backend's ``spawn`` start method, where workers receive their
program by pickle instead of inheriting memory from a fork.

:class:`CGRankProgram` is the row-block message-passing CG of the paper's
Section 5.1 -- the *same* program :func:`repro.baselines.message_passing.spmd_cg`
runs on the simulator (that function instantiates this class), which is
what makes the simulated-vs-real cross-validation of
:mod:`repro.backend.validate` an apples-to-apples comparison.
:class:`PCGRankProgram` adds Jacobi preconditioning with the update
ordering of :func:`repro.core.pcg.hpf_pcg`.  :class:`PingPongProgram` is
the two-rank latency/bandwidth microbenchmark behind
:func:`repro.backend.calibrate.calibrate_host`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional

import numpy as np

from ..hpf.distribution import Block
from ..machine.events import Compute, Recv, Send
from ..machine.faults import FaultPlan
from ..machine.reliable import ReliableConfig
from ..core.preconditioners import JacobiPreconditioner
from ..core.stopping import StoppingCriterion
from ..sparse.kernels import CompressedBlock
from .abft import check_matvec
from .kernel import (
    Collectives,
    Guard,
    RankProgramBase,
    Reducer,
    chronopoulos_gear_cg,
    classic_cg,
    csr_arrays,
    jacobi,
)

__all__ = [
    "CGRankProgram",
    "PCGRankProgram",
    "ResilientCGProgram",
    "PingPongProgram",
    "PING_PONG_SIZES",
    "csr_arrays",
]

#: default ping-pong sizes (words), up past the 50-100 k-word blocks the
#: row-block solvers exchange: ``t_comm`` is fitted, not extrapolated
PING_PONG_SIZES = (1, 64, 256, 1024, 4096, 16384, 65536, 262144)


class RowBlockOperator:
    """``A v`` on a contiguous row block: allgather, concatenate, local SpMV.

    Every product replicates its operand, so the iteration product and the
    from-scratch one differ only in the tag.  The kernel handle holds the
    CSR segment as *views* of the program's arrays; a per-rank copy would
    cost ``16 nnz / P`` bytes of resident memory for nothing.
    """

    def __init__(self, program, dist, rank: int, comm: Collectives):
        lo, hi = dist.local_range(rank)
        self.program = program
        self.comm = comm
        self.rows = slice(lo, hi)
        self.block = CompressedBlock(program.indptr, program.indices,
                                     program.data, lo, hi)
        self.flops = 2.0 * self.block.nnz
        #: replicated operand of the latest product (ABFT verifies on it)
        self.operand: Optional[np.ndarray] = None

    def apply(self, v, tag: int = 7):
        blocks = yield from self.comm.allgather(v, tag=tag)
        self.operand = np.concatenate(blocks)
        w = self.block.matvec(self.operand)
        yield Compute(self.flops)
        return w

    apply_gathered = apply

    def checksum_terms(self, w, v):
        # only sum(A v) needs reducing: the operand is replicated, so
        # every rank computes the expected value locally
        return [(w, None, "sum(A v)")]

    def verify_checksum(self, w_total: float) -> None:
        check_matvec(w_total, self.program.colsum, self.program.abs_colsum,
                     self.operand, self.program.abft_rtol)


class CGRankProgram(RankProgramBase):
    """Row-block SPMD CG rank program (paper §5.1, fault-free path).

    Per iteration: one allgather of ``p`` (the Scenario-1 broadcast), one
    local CSR mat-vec, two allreduce inner products and three local
    SAXPY-type updates (:func:`~repro.backend.kernel.classic_cg`).  Each
    rank returns ``(x_block, residuals, converged, iterations, extras)``,
    the shape every CG rank program returns; the residual history and
    flags are identical on every rank, and a guarded program's recovery
    telemetry sits under ``extras["resilience"]``.

    ``fused=True`` switches to the single-reduction recurrence
    (:func:`~repro.backend.kernel.chronopoulos_gear_cg`): the mat-vec rides
    on ``r`` and ``gamma = r.r``, ``delta = (A r).r`` travel in **one**
    batched :func:`~repro.machine.spmd.allreduce_vec` per iteration --
    same solution, half the per-iteration ``t_startup`` latency trees.

    ``layout`` makes the row distribution a run-time parameter: any
    *contiguous* :class:`~repro.hpf.distribution.Distribution` over the row
    space (``Block``, ``BlockK``, or the ``ATOM:BLOCK``
    :class:`~repro.hpf.distribution.IrregularBlock` a partitioner
    produced).  The degraded-mode driver re-points it after an online
    REDISTRIBUTE, so the same program instance runs correctly on the
    shrunken rank set.  ``None`` (the default) keeps the classic HPF
    ``BLOCK`` derived from the run's rank count.  Subclasses only add
    configuration: a preconditioner (``inv_diag``) or a guard.
    """

    inv_diag: Optional[np.ndarray] = None

    def __init__(self, matrix, b: np.ndarray,
                 x0: Optional[np.ndarray] = None,
                 criterion: Optional[StoppingCriterion] = None,
                 maxiter: Optional[int] = None, layout=None,
                 fused: bool = False, reproducible: bool = False):
        super().__init__(matrix, b, x0, criterion, maxiter, reproducible)
        self.layout = layout
        self.fused = bool(fused)

    @property
    def layout(self):
        return self._layout

    @layout.setter
    def layout(self, value) -> None:
        if value is not None:
            if not getattr(value, "is_contiguous", False):
                raise ValueError(
                    "row-block programs need a contiguous layout "
                    f"(got {value!r})"
                )
            if value.n != self.n:
                raise ValueError(
                    f"layout extent {value.n} != matrix rows {self.n}"
                )
        self._layout = value

    def __call__(self, rank: int, size: int):
        if self._layout is not None and self._layout.nprocs == size:
            dist = self._layout
        else:
            dist = Block(self.n, size)
        comm = Collectives(rank, size, self.reliable, self.reliable_config)
        op = RowBlockOperator(self, dist, rank, comm)
        reducer = Reducer(comm, self.reproducible,
                          abft_op=op if self.abft else None)
        precond = (
            None if self.inv_diag is None
            else partial(jacobi, self.inv_diag[op.rows])
        )
        bb = self.b[op.rows].copy()
        guard = Guard(self, rank, op, reducer, bb) if self.guarded else None
        recurrence = chronopoulos_gear_cg if self.fused else classic_cg
        result = yield from recurrence(
            op, precond, reducer, guard, bb, self.x_start[op.rows].copy(),
            bool(np.any(self.x_start)), self.crit, self.maxiter,
        )
        extras = {} if guard is None else {"resilience": guard.extras()}
        return result[:4] + (extras,)


class PCGRankProgram(CGRankProgram):
    """Jacobi-preconditioned row-block SPMD CG rank program.

    Update ordering mirrors :func:`repro.core.pcg.hpf_pcg` (rho = r·z,
    ``p = beta p + z`` at the *end* of the body), with the diagonal
    preconditioner applied locally -- Jacobi needs no communication, the
    paper's "fully parallel, one divide each" case.

    ``fused=True`` runs the preconditioned single-reduction recurrence:
    per iteration the three inner products ``gamma = r.u``,
    ``delta = (A u).u`` and ``rnorm2 = r.r`` (``u = M^-1 r``) share one
    batched :func:`~repro.machine.spmd.allreduce_vec`.
    """

    def __init__(self, matrix, b, x0=None, criterion=None, maxiter=None,
                 fused: bool = False, reproducible: bool = False):
        super().__init__(matrix, b, x0, criterion, maxiter, fused=fused,
                         reproducible=reproducible)
        self.inv_diag = JacobiPreconditioner(matrix).inv_diag


class ResilientCGProgram(CGRankProgram):
    """Fault-tolerant row-block SPMD CG: runs unchanged on both backends.

    The numerics are exactly :class:`CGRankProgram`'s -- same update order,
    same binomial-tree collectives -- so a fault-free run returns a
    bitwise-identical solution.  On top it layers the coordinated
    checkpoints, sanity audits and state-corruption injection of
    :class:`~repro.backend.kernel.Guard` and, optionally, reliable
    transport and ABFT checks (corruption in flight raises
    :class:`~repro.backend.abft.AbftChecksumError` the instant it
    happens).  A recovery driver restarts a crashed run by setting
    ``restart`` to the ``(iteration, {rank: snapshot})`` pair of the newest
    complete checkpoint.  Recovery telemetry comes back in
    ``extras["resilience"]``.

    ``fused=True`` layers all of the above on the single-reduction
    recurrence: with ``abft=True`` the duplicate-sum slots of
    ``gamma``/``delta`` *and* the mat-vec column checksum ride in the same
    packed message (6 words instead of three separate latency trees).
    Checkpoints then snapshot the extra recurrence state (``s``,
    ``gamma``, ``alpha``) so restarts resume the fused iteration exactly;
    a checkpoint written by the other recurrence is refused with a
    ``ValueError`` naming both.
    """

    def __init__(self, matrix, b: np.ndarray,
                 x0: Optional[np.ndarray] = None,
                 criterion: Optional[StoppingCriterion] = None,
                 maxiter: Optional[int] = None,
                 checkpoint_interval: int = 10, sanity_interval: int = 5,
                 sanity_rtol: float = 1.0e-6, max_restarts: int = 4,
                 faults: Optional[FaultPlan] = None, reliable: bool = False,
                 reliable_config: Optional[ReliableConfig] = None,
                 abft: bool = False, abft_rtol: float = 1.0e-8, layout=None,
                 fused: bool = False, reproducible: bool = False):
        super().__init__(matrix, b, x0, criterion, maxiter, layout=layout,
                         fused=fused, reproducible=reproducible)
        self._init_guard(checkpoint_interval, sanity_interval, sanity_rtol,
                         max_restarts, faults, reliable, reliable_config,
                         abft, abft_rtol)


class PingPongProgram:
    """Two-rank ping-pong microbenchmark for host calibration.

    Rank 0 sends an ``m``-word array to rank 1, which echoes it back;
    rank 0 times the round trip with ``perf_counter``.  Returns, on rank
    0, a list of ``(m_words, best_round_trip_seconds)`` samples; the
    calibration fit halves them and regresses against
    ``t_startup + m · t_comm``.  Only meaningful on the process backend
    (on the simulator the measured times are just interpreter overhead).
    """

    def __init__(self, sizes=PING_PONG_SIZES, repeats: int = 7):
        self.sizes = tuple(int(s) for s in sizes)
        self.repeats = int(repeats)
        if min(self.sizes) < 1 or self.repeats < 1:
            raise ValueError("sizes and repeats must be positive")

    def __call__(self, rank: int, size: int):
        if size != 2:
            raise ValueError("PingPongProgram needs exactly 2 ranks")
        samples = []
        for m in self.sizes:
            payload = np.zeros(m, dtype=np.float64)
            best = float("inf")
            for _ in range(self.repeats):
                if rank == 0:
                    t0 = time.perf_counter()
                    yield Send(dest=1, payload=payload, tag=11)
                    payload = yield Recv(source=1, tag=12)
                    best = min(best, time.perf_counter() - t0)
                else:
                    payload = yield Recv(source=0, tag=11)
                    yield Send(dest=0, payload=payload, tag=12)
            if rank == 0:
                samples.append((m, best))
        return samples if rank == 0 else None
