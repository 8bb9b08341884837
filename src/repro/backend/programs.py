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
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..hpf.distribution import Block
from ..machine import reliable as rel
from ..machine import spmd
from ..machine.events import Checkpoint, Compute, Recv, Send
from ..machine.faults import FaultPlan
from ..machine.reliable import ReliableConfig, ReliableEndpoint
from ..core.resilience import RecoveryExhaustedError
from ..core.stopping import StoppingCriterion
from ..sparse.convert import as_matrix
from .abft import check_matvec, column_checksums, decode_dot, encode_dot
from .reproducible import (
    dot_slots,
    pack_slots,
    render_slots,
    sum_slots,
    unpack_slots,
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


def csr_arrays(matrix):
    """Normalise any accepted matrix into CSR ``(n, indptr, indices, data)``."""
    A = as_matrix(matrix).to_csr()
    return A.nrows, A.indptr, A.indices, A.data


class _RowBlockProgram:
    """Shared state for row-block solvers: CSR slices + vector blocks.

    ``layout`` makes the row distribution a run-time parameter: any
    *contiguous* :class:`~repro.hpf.distribution.Distribution` over the row
    space (``Block``, ``BlockK``, or the ``ATOM:BLOCK``
    :class:`~repro.hpf.distribution.IrregularBlock` a partitioner
    produced).  The degraded-mode driver re-points it after an online
    REDISTRIBUTE, so the same program instance runs correctly on the
    shrunken rank set.  ``None`` (the default) keeps the classic HPF
    ``BLOCK`` derived from the run's rank count -- every pre-existing
    caller is unchanged.
    """

    def __init__(
        self,
        matrix,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        criterion: Optional[StoppingCriterion] = None,
        maxiter: Optional[int] = None,
        layout=None,
        reproducible: bool = False,
    ):
        n, indptr, indices, data = csr_arrays(matrix)
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.b = b
        self.x_start = (
            np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
        )
        self.crit = criterion or StoppingCriterion()
        self.maxiter = maxiter if maxiter is not None else self.crit.cap(n)
        self.layout = layout
        self.reproducible = bool(reproducible)

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

    def _local(self, rank: int, size: int):
        """This rank's row range, CSR segment and local row ids."""
        if self._layout is not None and self._layout.nprocs == size:
            dist = self._layout
        else:
            dist = Block(self.n, size)
        lo, hi = dist.local_range(rank)
        seg = slice(int(self.indptr[lo]), int(self.indptr[hi]))
        local_nnz = int(self.indptr[hi] - self.indptr[lo])
        row_ids = (
            np.repeat(
                np.arange(lo, hi, dtype=np.int64),
                np.diff(self.indptr[lo : hi + 1]),
            )
            - lo
        )
        return lo, hi, seg, local_nnz, row_ids

    def _dot(self, rank: int, size: int, a, b, tag: int = 3):
        """Globally reduced inner product ``a . b`` (one latency tree).

        With ``reproducible=True`` the local elementwise products are
        splat into a superaccumulator and the limb slots travel through
        the packed reduction exactly (:mod:`repro.backend.reproducible`),
        so the result is bitwise invariant to rank count and tree shape.
        """
        if self.reproducible:
            red = yield from spmd.allreduce_vec(
                rank, size, dot_slots(a, b), tag=tag
            )
            return render_slots(red)
        out = yield from spmd.allreduce_sum(rank, size, float(a @ b), tag=tag)
        return float(out)

    def _dots(self, rank: int, size: int, pairs, tag: int = 3):
        """Reduce several inner products in one packed ``allreduce_vec``."""
        if self.reproducible:
            red = yield from spmd.allreduce_vec(
                rank,
                size,
                pack_slots([dot_slots(a, b) for a, b in pairs]),
                tag=tag,
            )
            return [render_slots(s) for s in unpack_slots(red, len(pairs))]
        red = yield from spmd.allreduce_vec(
            rank, size, np.array([float(a @ b) for a, b in pairs]), tag=tag
        )
        return [float(v) for v in red]


class CGRankProgram(_RowBlockProgram):
    """Row-block SPMD CG rank program (paper §5.1, fault-free path).

    Per iteration: one allgather of ``p`` (the Scenario-1 broadcast), one
    local CSR mat-vec, two allreduce inner products and three local
    SAXPY-type updates.  Each rank returns
    ``(x_block, residuals, converged, iterations)``; the residual history
    and flags are identical on every rank.

    ``fused=True`` switches to the single-reduction (communication-
    avoiding, Chronopoulos--Gear) recurrence: the mat-vec rides on ``r``
    instead of ``p`` and the two inner products ``gamma = r.r`` and
    ``delta = (A r).r`` travel in **one** batched
    :func:`~repro.machine.spmd.allreduce_vec` per iteration, with
    ``alpha = gamma / (delta - beta * gamma / alpha_prev)`` recovering the
    classic step length.  Same solution, same residual trajectory (up to
    floating-point reassociation), half the per-iteration ``t_startup``
    latency trees.
    """

    def __init__(
        self,
        matrix,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        criterion: Optional[StoppingCriterion] = None,
        maxiter: Optional[int] = None,
        layout=None,
        fused: bool = False,
        reproducible: bool = False,
    ):
        super().__init__(matrix, b, x0, criterion, maxiter, layout=layout,
                         reproducible=reproducible)
        self.fused = bool(fused)

    def __call__(self, rank: int, size: int):
        if self.fused:
            result = yield from self._run_fused(rank, size)
        else:
            result = yield from self._run_classic(rank, size)
        return result

    def _run_classic(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        local_rows = slice(lo, hi)
        x = self.x_start[local_rows].copy()
        bb = self.b[local_rows].copy()

        # r = b - A x0 (one mat-vec only if x0 != 0)
        if np.any(self.x_start):
            x_full = yield from spmd.allgather(rank, size, x)
            x_full = np.concatenate(x_full)
            ax = np.zeros(hi - lo)
            np.add.at(ax, row_ids, data[seg] * x_full[indices[seg]])
            yield Compute(2.0 * local_nnz)
            r = bb - ax
        else:
            r = bb.copy()
        p = r.copy()

        bnorm2 = yield from self._dot(rank, size, bb, bb)
        yield Compute(2.0 * bb.size)
        bnorm = np.sqrt(bnorm2)
        rho = yield from self._dot(rank, size, r, r)
        yield Compute(2.0 * r.size)
        residuals = [float(np.sqrt(max(0.0, rho)))]
        if crit.satisfied(residuals[-1], bnorm):
            return x, residuals, True, 0

        converged = False
        iterations = 0
        for k in range(1, maxiter + 1):
            if k > 1:
                beta = rho / rho0
                p = beta * p + r  # saypx
                yield Compute(2.0 * p.size)
            # all-to-all broadcast of p (the Scenario-1 communication)
            blocks = yield from spmd.allgather(rank, size, p)
            p_full = np.concatenate(blocks)
            q = np.zeros(hi - lo)
            np.add.at(q, row_ids, data[seg] * p_full[indices[seg]])
            yield Compute(2.0 * local_nnz)
            pq = yield from self._dot(rank, size, p, q)
            yield Compute(2.0 * p.size)
            if pq == 0.0:
                break
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            yield Compute(4.0 * p.size)
            rho0 = rho
            rho = yield from self._dot(rank, size, r, r)
            yield Compute(2.0 * r.size)
            residuals.append(float(np.sqrt(max(0.0, rho))))
            iterations = k
            if crit.satisfied(residuals[-1], bnorm):
                converged = True
                break
        return x, residuals, converged, iterations

    def _run_fused(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        x = self.x_start[lo:hi].copy()
        bb = self.b[lo:hi].copy()

        def matvec(v_full):
            out = np.zeros(hi - lo)
            np.add.at(out, row_ids, data[seg] * v_full[indices[seg]])
            return out

        if np.any(self.x_start):
            blocks = yield from spmd.allgather(rank, size, x)
            ax = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            r = bb - ax
        else:
            r = bb.copy()

        # w = A r: the per-iteration allgather replicates r, not p
        blocks = yield from spmd.allgather(rank, size, r)
        w = matvec(np.concatenate(blocks))
        yield Compute(2.0 * local_nnz)
        # the single fused reduction; b.b rides along on the first trip so
        # even setup needs no second latency tree
        packed = yield from self._dots(
            rank, size, [(r, r), (w, r), (bb, bb)]
        )
        yield Compute(6.0 * r.size)
        gamma, delta = packed[0], packed[1]
        bnorm = float(np.sqrt(packed[2]))
        residuals = [float(np.sqrt(max(0.0, gamma)))]
        if crit.satisfied(residuals[-1], bnorm):
            return x, residuals, True, 0
        if delta == 0.0:
            return x, residuals, False, 0
        alpha = gamma / delta
        p = r.copy()
        s = w.copy()

        converged = False
        iterations = 0
        for k in range(1, maxiter + 1):
            x += alpha * p
            r -= alpha * s
            yield Compute(4.0 * r.size)
            blocks = yield from spmd.allgather(rank, size, r)
            w = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            packed = yield from self._dots(rank, size, [(r, r), (w, r)])
            yield Compute(4.0 * r.size)
            gamma_new, delta = packed[0], packed[1]
            residuals.append(float(np.sqrt(max(0.0, gamma_new))))
            iterations = k
            if crit.satisfied(residuals[-1], bnorm):
                converged = True
                break
            beta = gamma_new / gamma
            denom = delta - beta * gamma_new / alpha
            if denom == 0.0:
                break
            alpha = gamma_new / denom
            gamma = gamma_new
            p = r + beta * p
            s = w + beta * s
            yield Compute(4.0 * r.size)
        return x, residuals, converged, iterations


class PCGRankProgram(_RowBlockProgram):
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
        super().__init__(matrix, b, x0, criterion, maxiter,
                         reproducible=reproducible)
        A = as_matrix(matrix)
        d = A.diagonal()
        if (d == 0).any():
            raise ValueError("Jacobi preconditioner needs a zero-free diagonal")
        self.inv_diag = 1.0 / d
        self.fused = bool(fused)

    def __call__(self, rank: int, size: int):
        if self.fused:
            result = yield from self._run_fused(rank, size)
        else:
            result = yield from self._run_classic(rank, size)
        return result

    def _run_classic(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        x = self.x_start[lo:hi].copy()
        bb = self.b[lo:hi].copy()
        inv_d = self.inv_diag[lo:hi]

        def matvec(v_full):
            out = np.zeros(hi - lo)
            np.add.at(out, row_ids, data[seg] * v_full[indices[seg]])
            return out

        if np.any(self.x_start):
            blocks = yield from spmd.allgather(rank, size, x)
            ax = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            r = bb - ax
        else:
            r = bb.copy()

        bnorm2 = yield from self._dot(rank, size, bb, bb)
        yield Compute(2.0 * bb.size)
        bnorm = np.sqrt(bnorm2)
        rnorm2 = yield from self._dot(rank, size, r, r)
        yield Compute(2.0 * r.size)
        residuals = [float(np.sqrt(max(0.0, rnorm2)))]
        if crit.satisfied(residuals[-1], bnorm):
            return x, residuals, True, 0

        z = inv_d * r  # Jacobi apply: local, one divide each
        yield Compute(float(hi - lo))
        p = z.copy()
        rho = yield from self._dot(rank, size, r, z)
        yield Compute(2.0 * r.size)

        converged = False
        iterations = 0
        for k in range(1, maxiter + 1):
            blocks = yield from spmd.allgather(rank, size, p)
            q = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            pq = yield from self._dot(rank, size, p, q)
            yield Compute(2.0 * p.size)
            if pq == 0.0:
                break
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            yield Compute(4.0 * p.size)
            rnorm2 = yield from self._dot(rank, size, r, r)
            yield Compute(2.0 * r.size)
            residuals.append(float(np.sqrt(max(0.0, rnorm2))))
            iterations = k
            if crit.satisfied(residuals[-1], bnorm):
                converged = True
                break
            z = inv_d * r
            yield Compute(float(hi - lo))
            rho0 = rho
            rho = yield from self._dot(rank, size, r, z)
            yield Compute(2.0 * r.size)
            beta = rho / rho0
            p = beta * p + z  # saypx
            yield Compute(2.0 * p.size)
        return x, residuals, converged, iterations

    def _run_fused(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        x = self.x_start[lo:hi].copy()
        bb = self.b[lo:hi].copy()
        inv_d = self.inv_diag[lo:hi]

        def matvec(v_full):
            out = np.zeros(hi - lo)
            np.add.at(out, row_ids, data[seg] * v_full[indices[seg]])
            return out

        if np.any(self.x_start):
            blocks = yield from spmd.allgather(rank, size, x)
            ax = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            r = bb - ax
        else:
            r = bb.copy()

        u = inv_d * r  # Jacobi apply: local, one divide each
        yield Compute(float(hi - lo))
        blocks = yield from spmd.allgather(rank, size, u)
        w = matvec(np.concatenate(blocks))
        yield Compute(2.0 * local_nnz)
        # one fused reduction carries gamma = r.u, delta = (A u).u, the
        # stopping norm r.r, and (first trip only) b.b
        packed = yield from self._dots(
            rank, size, [(r, u), (w, u), (r, r), (bb, bb)]
        )
        yield Compute(8.0 * r.size)
        gamma, delta = packed[0], packed[1]
        bnorm = float(np.sqrt(packed[3]))
        residuals = [float(np.sqrt(max(0.0, packed[2])))]
        if crit.satisfied(residuals[-1], bnorm):
            return x, residuals, True, 0
        if delta == 0.0:
            return x, residuals, False, 0
        alpha = gamma / delta
        p = u.copy()
        s = w.copy()

        converged = False
        iterations = 0
        for k in range(1, maxiter + 1):
            x += alpha * p
            r -= alpha * s
            yield Compute(4.0 * r.size)
            u = inv_d * r
            yield Compute(float(hi - lo))
            blocks = yield from spmd.allgather(rank, size, u)
            w = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            packed = yield from self._dots(
                rank, size, [(r, u), (w, u), (r, r)]
            )
            yield Compute(6.0 * r.size)
            gamma_new, delta = packed[0], packed[1]
            residuals.append(float(np.sqrt(max(0.0, packed[2]))))
            iterations = k
            if crit.satisfied(residuals[-1], bnorm):
                converged = True
                break
            beta = gamma_new / gamma
            denom = delta - beta * gamma_new / alpha
            if denom == 0.0:
                break
            alpha = gamma_new / denom
            gamma = gamma_new
            p = u + beta * p
            s = w + beta * s
            yield Compute(4.0 * r.size)
        return x, residuals, converged, iterations


class ResilientCGProgram(_RowBlockProgram):
    """Fault-tolerant row-block SPMD CG: runs unchanged on both backends.

    The numerics are exactly :class:`CGRankProgram`'s -- same update order,
    same binomial-tree collectives -- so a fault-free run returns a
    bitwise-identical solution.  On top of that it layers, all optional and
    all backend-portable:

    * **coordinated checkpoints** every ``checkpoint_interval`` iterations
      (plus iteration 0): each rank keeps a local snapshot for in-program
      rollback *and* publishes it with a
      :class:`~repro.machine.events.Checkpoint` op, so the substrate's
      stable store always holds a restart point for fail-stop recovery
      (:func:`repro.backend.solve.run_with_recovery`);
    * **sanity audits** every ``sanity_interval`` iterations and before
      declaring convergence: the true residual ``||b - A x||`` is
      recomputed (one extra allgather + mat-vec + allreduce) and compared
      with the recurrence residual.  All ranks see identical reduced
      values, so they reach the rollback decision simultaneously without
      extra coordination.  More than ``max_restarts`` rollbacks raises
      :class:`~repro.core.resilience.RecoveryExhaustedError`;
    * **reliable transport** (``reliable=True``): collectives run over the
      stop-and-wait ARQ of :mod:`repro.machine.reliable`, masking dropped,
      duplicated and corrupted messages at a measurable retransmission
      cost;
    * **ABFT checks** (``abft=True``): dot-product reductions carry
      duplicate sums and the mat-vec is column-checksum verified
      (:mod:`repro.backend.abft`), raising
      :class:`~repro.backend.abft.AbftChecksumError` on silent in-flight
      corruption the instant it happens;
    * **state-corruption injection**: a ``faults`` plan's scheduled
      :class:`~repro.machine.faults.StateCorruption` entries are applied
      to this rank's local block (consumed-once, so a rollback's replay is
      clean) -- the adversary the audits exist to catch.

    A recovery driver restarts a crashed run by setting ``restart`` to the
    ``(iteration, {rank: snapshot})`` pair of the newest complete
    checkpoint; every rank then resumes from that coordinated state.  Each
    rank returns ``(x_block, residuals, converged, iterations, extras)``
    with recovery telemetry in ``extras``.

    ``fused=True`` layers all of the above on the single-reduction
    recurrence of :class:`CGRankProgram`: one batched
    ``allreduce_vec`` per iteration carries ``gamma``/``delta`` -- with
    ``abft=True`` their duplicate-sum slots *and* the mat-vec column
    checksum ride in the same packed message (6 words instead of three
    separate latency trees).  Checkpoints then snapshot the extra
    recurrence state (``s``, ``gamma``, ``alpha``) so restarts resume the
    fused iteration exactly.
    """

    def __init__(
        self,
        matrix,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        criterion: Optional[StoppingCriterion] = None,
        maxiter: Optional[int] = None,
        checkpoint_interval: int = 10,
        sanity_interval: int = 5,
        sanity_rtol: float = 1.0e-6,
        max_restarts: int = 4,
        faults: Optional[FaultPlan] = None,
        reliable: bool = False,
        reliable_config: Optional[ReliableConfig] = None,
        abft: bool = False,
        abft_rtol: float = 1.0e-8,
        layout=None,
        fused: bool = False,
        reproducible: bool = False,
    ):
        super().__init__(matrix, b, x0, criterion, maxiter, layout=layout,
                         reproducible=reproducible)
        self.fused = bool(fused)
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if sanity_interval < 1:
            raise ValueError("sanity_interval must be >= 1")
        self.checkpoint_interval = int(checkpoint_interval)
        self.sanity_interval = int(sanity_interval)
        self.sanity_rtol = float(sanity_rtol)
        self.max_restarts = int(max_restarts)
        self.faults = faults
        self.reliable = bool(reliable)
        self.reliable_config = reliable_config
        self.abft = bool(abft)
        self.abft_rtol = float(abft_rtol)
        self.colsum, self.abs_colsum = (
            column_checksums(self.n, self.indices, self.data)
            if self.abft
            else (None, None)
        )
        #: set by the recovery driver: (iteration, {rank: snapshot})
        self.restart: Optional[Tuple[int, Dict[int, Dict[str, Any]]]] = None

    # ------------------------------------------------------------------ #
    def __call__(self, rank: int, size: int):
        if self.fused:
            result = yield from self._run_fused(rank, size)
        else:
            result = yield from self._run_classic(rank, size)
        return result

    def _run_classic(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        bb = self.b[lo:hi].copy()
        plan = self.faults.for_rank(rank) if self.faults is not None else None
        ep = (
            ReliableEndpoint(rank, self.reliable_config)
            if self.reliable
            else None
        )

        def allreduce(value, tag=3):
            if ep is not None:
                out = yield from rel.allreduce_sum(ep, rank, size, value, tag=tag)
            else:
                out = yield from spmd.allreduce_sum(rank, size, value, tag=tag)
            return out

        def allgather(value, tag=7):
            if ep is not None:
                out = yield from rel.allgather(ep, rank, size, value, tag=tag)
            else:
                out = yield from spmd.allgather(rank, size, value, tag=tag)
            return out

        def dot(a, b, tag, what):
            # duplicate-sum ABFT: both slots (or, reproducible, both limb
            # blocks) see the identical addition sequence, so exact
            # equality of the reduced copies is the corruption detector
            if self.reproducible:
                blk = dot_slots(a, b)
                blocks = [blk, blk] if self.abft else [blk]
                red = yield from allreduce(pack_slots(blocks), tag=tag)
                vals = [render_slots(s)
                        for s in unpack_slots(red, len(blocks))]
                if self.abft:
                    return decode_dot(np.array(vals), what)
                return vals[0]
            value = float(a @ b)
            if self.abft:
                pair = yield from allreduce(encode_dot(value), tag=tag)
                return decode_dot(pair, what)
            out = yield from allreduce(value, tag=tag)
            return out

        def matvec(v_full):
            out = np.zeros(hi - lo)
            np.add.at(out, row_ids, data[seg] * v_full[indices[seg]])
            return out

        rollbacks = 0
        audits = 0
        checkpoints_published = 0
        last_snap: Optional[Dict[str, Any]] = None

        def snapshot(k, x, r, p, rho, rho0, residuals, iterations, bnorm):
            return {
                "k": k,
                "x": x.copy(),
                "r": r.copy(),
                "p": p.copy(),
                "rho": rho,
                "rho0": rho0,
                "residuals": list(residuals),
                "iterations": iterations,
                "bnorm": bnorm,
            }

        # ---------------- initial state (fresh or restarted) ----------- #
        if self.restart is not None:
            k0, snaps = self.restart
            snap = snaps[rank]
            if snap["k"] != k0:  # pragma: no cover - driver invariant
                raise ValueError("restart snapshot iteration mismatch")
            x = snap["x"].copy()
            r = snap["r"].copy()
            p = snap["p"].copy()
            rho, rho0 = snap["rho"], snap["rho0"]
            residuals = list(snap["residuals"])
            iterations = snap["iterations"]
            bnorm = snap["bnorm"]
            k = k0
            last_snap = snapshot(k, x, r, p, rho, rho0, residuals,
                                 iterations, bnorm)
            restarted_from: Optional[int] = k0
        else:
            x = self.x_start[lo:hi].copy()
            if np.any(self.x_start):
                blocks = yield from allgather(x)
                ax = matvec(np.concatenate(blocks))
                yield Compute(2.0 * local_nnz)
                r = bb - ax
            else:
                r = bb.copy()
            p = r.copy()
            bnorm2 = yield from dot(bb, bb, 3, "b·b")
            yield Compute(2.0 * bb.size)
            bnorm = float(np.sqrt(bnorm2))
            rho = yield from dot(r, r, 3, "r·r")
            yield Compute(2.0 * r.size)
            rho0 = rho
            residuals = [float(np.sqrt(max(0.0, rho)))]
            iterations = 0
            k = 0
            restarted_from = None
            last_snap = snapshot(0, x, r, p, rho, rho0, residuals,
                                 iterations, bnorm)
            yield Compute(3.0 * x.size)  # checkpoint copy cost (x, r, p)
            yield Checkpoint(iteration=0, payload=last_snap)
            checkpoints_published += 1
            if crit.satisfied(residuals[-1], bnorm):
                return x, residuals, True, 0, self._extras(
                    rollbacks, audits, checkpoints_published, restarted_from,
                    ep, plan,
                )

        # ---------------- main loop ------------------------------------ #
        converged = False
        while k < maxiter:
            k += 1
            if plan is not None:
                corr = plan.take_state_corruption(k, rank)
                if corr is not None:
                    target = {"x": x, "r": r, "p": p}[corr.target]
                    if target.size:
                        i = plan.draw_index(target.size)
                        target[i] += (1.0 + abs(target[i])) * corr.scale
            if k > 1:
                beta = rho / rho0
                p = beta * p + r  # saypx
                yield Compute(2.0 * p.size)
            blocks = yield from allgather(p)
            p_full = np.concatenate(blocks)
            q = matvec(p_full)
            yield Compute(2.0 * local_nnz)
            if self.abft:
                # one fused reduction: duplicate-sum p·q plus the mat-vec
                # column checksum, 4 words instead of 1
                if self.reproducible:
                    pq_blk, qs_blk = dot_slots(p, q), sum_slots(q)
                    red = yield from allreduce(
                        pack_slots([pq_blk, pq_blk, qs_blk, qs_blk]), tag=3
                    )
                    vals = [render_slots(s) for s in unpack_slots(red, 4)]
                    pq = decode_dot(np.array(vals[:2]), "p·q")
                    q_total = decode_dot(np.array(vals[2:]), "sum(A p)")
                else:
                    vec = np.array([float(p @ q)] * 2 + [float(q.sum())] * 2)
                    red = yield from allreduce(vec, tag=3)
                    pq = decode_dot(red[:2], "p·q")
                    q_total = decode_dot(red[2:], "sum(A p)")
                check_matvec(q_total, self.colsum, self.abs_colsum, p_full,
                             self.abft_rtol)
            else:
                pq = yield from dot(p, q, 3, "p·q")
            yield Compute(2.0 * p.size)
            if pq == 0.0:
                break
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            yield Compute(4.0 * p.size)
            rho0 = rho
            rho = yield from dot(r, r, 3, "r·r")
            yield Compute(2.0 * r.size)
            residuals.append(float(np.sqrt(max(0.0, rho))))
            iterations = k
            stopping = crit.satisfied(residuals[-1], bnorm)
            need_ckpt = k % self.checkpoint_interval == 0
            if stopping or need_ckpt or k % self.sanity_interval == 0:
                # sanity audit: recompute ||b - A x|| from scratch; every
                # rank sees the same reduced values, so all roll back (or
                # none do) without further coordination
                audits += 1
                x_blocks = yield from allgather(x, tag=21)
                ax = matvec(np.concatenate(x_blocks))
                yield Compute(2.0 * local_nnz)
                d = bb - ax
                true2 = yield from dot(d, d, 23, "audit")
                yield Compute(2.0 * d.size)
                true_norm = float(np.sqrt(max(0.0, true2)))
                if abs(true_norm - residuals[-1]) > self.sanity_rtol * max(
                    bnorm, 1.0e-300
                ):
                    rollbacks += 1
                    if rollbacks > self.max_restarts:
                        raise RecoveryExhaustedError(
                            f"rank {rank}: sanity audit failed at iteration "
                            f"{k} (recurrence {residuals[-1]:.3e} vs true "
                            f"{true_norm:.3e}) after "
                            f"{rollbacks - 1} rollbacks",
                            attempts=[{
                                "outcome": "audit_rollback_exhausted",
                                "rank": rank,
                                "iteration": k,
                                "rollbacks": rollbacks - 1,
                            }],
                        )
                    snap = last_snap
                    x = snap["x"].copy()
                    r = snap["r"].copy()
                    p = snap["p"].copy()
                    rho, rho0 = snap["rho"], snap["rho0"]
                    residuals = list(snap["residuals"])
                    iterations = snap["iterations"]
                    k = snap["k"]
                    yield Compute(3.0 * x.size)  # restore copy cost
                    continue
            if need_ckpt:
                last_snap = snapshot(k, x, r, p, rho, rho0, residuals,
                                     iterations, bnorm)
                yield Compute(3.0 * x.size)  # checkpoint copy cost
                yield Checkpoint(iteration=k, payload=last_snap)
                checkpoints_published += 1
            if stopping:
                converged = True
                break
        return x, residuals, converged, iterations, self._extras(
            rollbacks, audits, checkpoints_published, restarted_from, ep, plan,
        )

    # ------------------------------------------------------------------ #
    def _run_fused(self, rank: int, size: int):
        indices, data = self.indices, self.data
        crit, maxiter = self.crit, self.maxiter
        lo, hi, seg, local_nnz, row_ids = self._local(rank, size)
        bb = self.b[lo:hi].copy()
        plan = self.faults.for_rank(rank) if self.faults is not None else None
        ep = (
            ReliableEndpoint(rank, self.reliable_config)
            if self.reliable
            else None
        )

        def allreduce_vec(values, tag=3):
            if ep is not None:
                out = yield from rel.allreduce_vec(ep, rank, size, values,
                                                   tag=tag)
            else:
                out = yield from spmd.allreduce_vec(rank, size, values,
                                                    tag=tag)
            return out

        def allgather(value, tag=7):
            if ep is not None:
                out = yield from rel.allgather(ep, rank, size, value, tag=tag)
            else:
                out = yield from spmd.allgather(rank, size, value, tag=tag)
            return out

        def dot(a, b, tag, what):
            if self.reproducible:
                blk = dot_slots(a, b)
                blocks = [blk, blk] if self.abft else [blk]
                red = yield from allreduce_vec(pack_slots(blocks), tag=tag)
                vals = [render_slots(s)
                        for s in unpack_slots(red, len(blocks))]
                if self.abft:
                    return decode_dot(np.array(vals), what)
                return vals[0]
            value = float(a @ b)
            if self.abft:
                pair = yield from allreduce_vec(encode_dot(value), tag=tag)
                return decode_dot(pair, what)
            out = yield from allreduce_vec(np.array([value]), tag=tag)
            return float(out[0])

        def matvec(v_full):
            out = np.zeros(hi - lo)
            np.add.at(out, row_ids, data[seg] * v_full[indices[seg]])
            return out

        def fused_iteration_reduce(r, w, r_full, extra=()):
            """One packed reduction: gamma = r.r, delta = w.r (+ extras).

            With ABFT every dot slot travels duplicated and the mat-vec
            column checksum rides along, so silent in-flight corruption
            of the *single* per-iteration message is still caught.
            ``extra`` appends more dot pairs ``(a, b)`` (the first trip
            adds ``(b, b)``).  With ``reproducible=True`` every slot
            becomes a superaccumulator limb block and the duplicate-copy
            check compares exactly-rendered values.
            """
            if self.reproducible:
                base = [dot_slots(r, r), dot_slots(w, r)]
                ex = [dot_slots(a, b) for a, b in extra]
                if self.abft:
                    blocks = []
                    for blk in base + [sum_slots(w)] + ex:
                        blocks += [blk, blk]
                    red = yield from allreduce_vec(pack_slots(blocks))
                    vals = [render_slots(s)
                            for s in unpack_slots(red, len(blocks))]
                    gamma = decode_dot(np.array(vals[0:2]), "r·r")
                    delta = decode_dot(np.array(vals[2:4]), "(A r)·r")
                    w_total = decode_dot(np.array(vals[4:6]), "sum(A r)")
                    check_matvec(w_total, self.colsum, self.abs_colsum,
                                 r_full, self.abft_rtol)
                    rest = [
                        decode_dot(np.array(vals[6 + 2 * i:8 + 2 * i]),
                                   "setup")
                        for i in range(len(ex))
                    ]
                else:
                    blocks = base + ex
                    red = yield from allreduce_vec(pack_slots(blocks))
                    vals = [render_slots(s)
                            for s in unpack_slots(red, len(blocks))]
                    gamma, delta = vals[0], vals[1]
                    rest = vals[2:]
                return gamma, delta, rest
            g, d = float(r @ r), float(w @ r)
            ex = [float(a @ b) for a, b in extra]
            if self.abft:
                slots = [g, g, d, d, float(w.sum()), float(w.sum())]
                slots += [v for pair in ex for v in (pair, pair)]
                red = yield from allreduce_vec(np.array(slots))
                gamma = decode_dot(red[0:2], "r·r")
                delta = decode_dot(red[2:4], "(A r)·r")
                w_total = decode_dot(red[4:6], "sum(A r)")
                check_matvec(w_total, self.colsum, self.abs_colsum, r_full,
                             self.abft_rtol)
                rest = [decode_dot(red[6 + 2 * i:8 + 2 * i], "setup")
                        for i in range(len(ex))]
            else:
                red = yield from allreduce_vec(np.array([g, d, *ex]))
                gamma, delta = float(red[0]), float(red[1])
                rest = [float(v) for v in red[2:]]
            return gamma, delta, rest

        rollbacks = 0
        audits = 0
        checkpoints_published = 0
        last_snap: Optional[Dict[str, Any]] = None

        def snapshot(k, x, r, p, s, gamma, alpha, residuals, iterations,
                     bnorm):
            return {
                "k": k,
                "x": x.copy(),
                "r": r.copy(),
                "p": p.copy(),
                "s": s.copy(),
                "gamma": gamma,
                "alpha": alpha,
                "residuals": list(residuals),
                "iterations": iterations,
                "bnorm": bnorm,
            }

        # ---------------- initial state (fresh or restarted) ----------- #
        if self.restart is not None:
            k0, snaps = self.restart
            snap = snaps[rank]
            if snap["k"] != k0:  # pragma: no cover - driver invariant
                raise ValueError("restart snapshot iteration mismatch")
            x = snap["x"].copy()
            r = snap["r"].copy()
            p = snap["p"].copy()
            s = snap["s"].copy()
            gamma, alpha = snap["gamma"], snap["alpha"]
            residuals = list(snap["residuals"])
            iterations = snap["iterations"]
            bnorm = snap["bnorm"]
            k = k0
            last_snap = snapshot(k, x, r, p, s, gamma, alpha, residuals,
                                 iterations, bnorm)
            restarted_from: Optional[int] = k0
        else:
            x = self.x_start[lo:hi].copy()
            if np.any(self.x_start):
                blocks = yield from allgather(x)
                ax = matvec(np.concatenate(blocks))
                yield Compute(2.0 * local_nnz)
                r = bb - ax
            else:
                r = bb.copy()
            blocks = yield from allgather(r)
            r_full = np.concatenate(blocks)
            w = matvec(r_full)
            yield Compute(2.0 * local_nnz)
            gamma, delta, (bnorm2,) = yield from fused_iteration_reduce(
                r, w, r_full, extra=((bb, bb),)
            )
            yield Compute(6.0 * r.size)
            bnorm = float(np.sqrt(bnorm2))
            residuals = [float(np.sqrt(max(0.0, gamma)))]
            iterations = 0
            k = 0
            restarted_from = None
            if crit.satisfied(residuals[-1], bnorm) or delta == 0.0:
                return x, residuals, crit.satisfied(residuals[-1], bnorm), 0, \
                    self._extras(rollbacks, audits, checkpoints_published,
                                 restarted_from, ep, plan)
            alpha = gamma / delta
            p = r.copy()
            s = w.copy()
            last_snap = snapshot(0, x, r, p, s, gamma, alpha, residuals,
                                 iterations, bnorm)
            yield Compute(4.0 * x.size)  # checkpoint copy cost (x, r, p, s)
            yield Checkpoint(iteration=0, payload=last_snap)
            checkpoints_published += 1

        # ---------------- main loop ------------------------------------ #
        converged = False
        while k < maxiter:
            k += 1
            if plan is not None:
                corr = plan.take_state_corruption(k, rank)
                if corr is not None:
                    target = {"x": x, "r": r, "p": p}[corr.target]
                    if target.size:
                        i = plan.draw_index(target.size)
                        target[i] += (1.0 + abs(target[i])) * corr.scale
            x += alpha * p
            r -= alpha * s
            yield Compute(4.0 * r.size)
            blocks = yield from allgather(r)
            r_full = np.concatenate(blocks)
            w = matvec(r_full)
            yield Compute(2.0 * local_nnz)
            gamma_new, delta, _ = yield from fused_iteration_reduce(
                r, w, r_full
            )
            yield Compute(4.0 * r.size)
            residuals.append(float(np.sqrt(max(0.0, gamma_new))))
            iterations = k
            stopping = crit.satisfied(residuals[-1], bnorm)
            need_ckpt = k % self.checkpoint_interval == 0
            if stopping or need_ckpt or k % self.sanity_interval == 0:
                # sanity audit, exactly as in the classic variant: all
                # ranks compare identical reduced values, so they roll
                # back (or none do) without extra coordination
                audits += 1
                x_blocks = yield from allgather(x, tag=21)
                ax = matvec(np.concatenate(x_blocks))
                yield Compute(2.0 * local_nnz)
                d = bb - ax
                true2 = yield from dot(d, d, 23, "audit")
                yield Compute(2.0 * d.size)
                true_norm = float(np.sqrt(max(0.0, true2)))
                if abs(true_norm - residuals[-1]) > self.sanity_rtol * max(
                    bnorm, 1.0e-300
                ):
                    rollbacks += 1
                    if rollbacks > self.max_restarts:
                        raise RecoveryExhaustedError(
                            f"rank {rank}: sanity audit failed at iteration "
                            f"{k} (recurrence {residuals[-1]:.3e} vs true "
                            f"{true_norm:.3e}) after "
                            f"{rollbacks - 1} rollbacks",
                            attempts=[{
                                "outcome": "audit_rollback_exhausted",
                                "rank": rank,
                                "iteration": k,
                                "rollbacks": rollbacks - 1,
                            }],
                        )
                    snap = last_snap
                    x = snap["x"].copy()
                    r = snap["r"].copy()
                    p = snap["p"].copy()
                    s = snap["s"].copy()
                    gamma, alpha = snap["gamma"], snap["alpha"]
                    residuals = list(snap["residuals"])
                    iterations = snap["iterations"]
                    k = snap["k"]
                    yield Compute(4.0 * x.size)  # restore copy cost
                    continue
            if stopping:
                converged = True
                break
            beta = gamma_new / gamma
            denom = delta - beta * gamma_new / alpha
            if denom == 0.0:
                break
            alpha = gamma_new / denom
            gamma = gamma_new
            p = r + beta * p
            s = w + beta * s
            yield Compute(4.0 * r.size)
            if need_ckpt:
                last_snap = snapshot(k, x, r, p, s, gamma, alpha, residuals,
                                     iterations, bnorm)
                yield Compute(4.0 * x.size)  # checkpoint copy cost
                yield Checkpoint(iteration=k, payload=last_snap)
                checkpoints_published += 1
        return x, residuals, converged, iterations, self._extras(
            rollbacks, audits, checkpoints_published, restarted_from, ep, plan,
        )

    @staticmethod
    def _extras(rollbacks, audits, checkpoints_published, restarted_from,
                ep, plan) -> Dict[str, Any]:
        return {
            "rollbacks": rollbacks,
            "audits": audits,
            "checkpoints_published": checkpoints_published,
            "restarted_from": restarted_from,
            "telemetry": dict(ep.telemetry) if ep is not None else {},
            "fault_stats": plan.stats.as_dict() if plan is not None else {},
        }


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
