"""Backend-portable HPCG rank program: 3-D halo exchange + reproducible CG.

:class:`HPCGRankProgram` runs preconditioned conjugate gradients on a
:func:`~repro.sparse.generators.stencil27` system distributed over the 3-D
subcube layout of :class:`~repro.hpf.distribution.Grid3DBlock`.  Like the
row-block programs it is a picklable factory -- ``program(rank, size)``
yields the rank's generator -- and runs identically on the simulated and
process backends.

Design choices that make the bitwise-reproducibility pin possible:

* **one recurrence, one reduction per iteration.**  Genuinely different
  update orders (classic two-reduction CG vs the Chronopoulos--Gear
  recurrence) can never be bitwise equal, exact dots or not.  This program
  therefore always runs the *Chronopoulos--Gear* recurrence
  (:func:`~repro.backend.kernel.chronopoulos_gear_cg`), whose inner
  products are all available together after the mat-vec and travel in
  one packed :func:`~repro.machine.spmd.allreduce_vec`.  Its additions
  follow a fixed binomial-tree order, so a run is bitwise repeatable at
  any fixed rank count -- and with ``reproducible=True`` (exact
  superaccumulator reductions) across rank counts too.

* **halo exchange vs replicated preconditioning.**  With a local
  preconditioner (``none``/``jacobi``) the mat-vec operand is only known
  locally, so ranks exchange the faces, edges and corners of their subcube
  with up to 26 neighbours; received values land in the ring of a padded
  subcube.  With ``mg`` the residual is allgathered and every rank applies
  the deterministic V-cycle to the *full* vector (the
  serialised-preconditioner treatment of :func:`repro.core.pcg.hpf_pcg`,
  charged at ``flops_per_apply``), so the mat-vec needs no halo at all:
  the ring is sliced from that vector.

* **one local product, whatever the partition.**  Each rank cuts its rows
  of the matrix into the 27 coefficient planes of a
  :class:`~repro.sparse.kernels.StencilBlock` -- with ``mg`` it slices them
  from the V-cycle's fine level, which already holds them -- and sums the
  planes times shifted views of the pad in ascending neighbour offset,
  from zero.  That is every row's ascending-column order, so every mat-vec
  bit is the serial CSR product's at any rank count.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..backend.abft import AbftChecksumError
from ..backend.kernel import (
    Collectives,
    Guard,
    RankProgramBase,
    Reducer,
    chronopoulos_gear_cg,
    jacobi,
)
from ..core.preconditioners import JacobiPreconditioner
from ..core.stopping import StoppingCriterion
from ..hpf.distribution import Grid3DBlock
from ..machine.events import Compute, Recv, Send
from ..machine.faults import FaultPlan, RankFailedError
from ..machine.reliable import ReliableConfig
from ..sparse.kernels import StencilBlock
from .mg import MultigridPreconditioner

__all__ = [
    "HPCGRankProgram",
    "ResilientHPCGProgram",
    "HPCG_PRECONDS",
    "halo_plan",
]

HPCG_PRECONDS = ("none", "jacobi", "mg")

#: tag of the halo point-to-point exchange (clear of the collectives' tags)
_HALO_TAG = 31


def _box_intersect(a, b):
    """Intersection of two ``((xlo,xhi),(ylo,yhi),(zlo,zhi))`` boxes."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _box_empty(box) -> bool:
    return any(lo >= hi for lo, hi in box)


def _box_expand(box, shape):
    """Grow a box by one cell per face, clipped to the global grid."""
    return tuple(
        (max(0, lo - 1), min(dim, hi + 1))
        for (lo, hi), dim in zip(box, shape)
    )


def _box_ids(box, shape) -> np.ndarray:
    """Global ids inside a box, in global row-major (z, y, x) order.

    Built from the box's own extents: a slice of an ``n``-long id grid
    would keep that grid alive wherever the slice is contiguous.
    """
    nx, ny, _ = shape
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
    z, y, x = np.ix_(np.arange(zlo, zhi, dtype=np.int64),
                     np.arange(ylo, yhi, dtype=np.int64),
                     np.arange(xlo, xhi, dtype=np.int64))
    return ((z * ny + y) * nx + x).ravel()


def halo_plan(layout: Grid3DBlock, rank: int) -> List[Dict[str, Any]]:
    """Per-neighbour halo schedule for ``rank`` under ``layout``.

    Each entry names the neighbour rank, its kind (``face``/``edge``/
    ``corner`` by the number of process-grid axes that differ), the global
    ids this rank must *send* (its own cells the neighbour's stencil
    reads) and the global ids it will *receive* (the neighbour's cells its
    own stencil reads).  Both sides compute the same plan from the layout
    alone, so no negotiation messages are needed.  A rank whose subcube is
    empty (an axis with more ranks than cells) exchanges nothing; it still
    joins the reductions.
    """
    px, py, pz = layout.grid
    rx, ry, rz = layout.coords(rank)
    my_box = layout.local_box(rank)
    shape = layout.shape
    plan: List[Dict[str, Any]] = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                cx, cy, cz = rx + dx, ry + dy, rz + dz
                if not (0 <= cx < px and 0 <= cy < py and 0 <= cz < pz):
                    continue
                nb = layout.rank_of(cx, cy, cz)
                nb_box = layout.local_box(nb)
                if _box_empty(my_box) or _box_empty(nb_box):
                    continue
                send_box = _box_intersect(my_box, _box_expand(nb_box, shape))
                recv_box = _box_intersect(_box_expand(my_box, shape), nb_box)
                if send_box is None and recv_box is None:
                    continue
                if (send_box is None) != (recv_box is None):
                    raise RuntimeError(
                        f"asymmetric halo between ranks {rank} and {nb}"
                    )
                kind = ("face", "edge", "corner")[
                    abs(dx) + abs(dy) + abs(dz) - 1
                ]
                plan.append({
                    "rank": nb,
                    "kind": kind,
                    "send_ids": _box_ids(send_box, shape),
                    "recv_ids": _box_ids(recv_box, shape),
                })
    return plan


class SubcubeOperator:
    """``A v`` on one subcube (see the module docstring).

    The operand lives in one held ``(lz+2, ly+2, lx+2)`` pad: the local
    block fills its interior, and the ring around it comes from the full
    vector the replicated V-cycle left behind or an allgather (a clipped
    slice of the grid), or from a 26-neighbour halo exchange (each
    received face, edge and corner written at pad positions mapped once).
    Ring cells on the global boundary are never written and stay 0, as
    the kernel's pad contract requires; with no neighbours (one rank) only
    the interior is.  The product is a
    :class:`~repro.sparse.kernels.StencilBlock` over that pad.
    """

    def __init__(self, program, layout: Grid3DBlock, rank: int,
                 comm: Collectives):
        self.comm = comm
        self.layout = layout
        self.n = program.n
        self.rows = rows = layout.local_indices_cached(rank)
        box = layout.local_box(rank)
        if program.mg is not None:
            # the V-cycle's fine level already holds these planes
            counts = program.indptr[rows + 1] - program.indptr[rows]
            self.block = program.mg.levels[0].op.sub(box, counts.sum())
        else:
            self.block = StencilBlock(program.indptr, program.indices,
                                      program.data, layout.shape, box)
        self.flops = 2.0 * self.block.nnz
        self.pad = np.zeros(tuple(s + 2 for s in self.block.shape))
        self.interior = self.pad[1:-1, 1:-1, 1:-1]
        #: grid coordinates ``(z, y, x)`` of pad cell ``(0, 0, 0)``
        self.origin = tuple(lo - 1 for lo, _ in reversed(box))
        # the grown box clipped to the grid, in the grid and in the pad
        grown = list(reversed(_box_expand(box, layout.shape)))
        self.grid_view = tuple(slice(a, b) for a, b in grown)
        self.pad_view = tuple(slice(a - o, b - o)
                              for (a, b), o in zip(grown, self.origin))
        self.plan = (
            halo_plan(layout, rank)
            if program.precond != "mg" and comm.size > 1 else []
        )
        self.send_lpos = [
            np.asarray(layout.global_to_local(e["send_ids"]), dtype=np.int64)
            for e in self.plan
        ]
        self.recv_pos = [self._pad_positions(e["recv_ids"])
                         for e in self.plan]
        #: full operand left behind by the replicated preconditioner
        self.replicated: Optional[np.ndarray] = None
        #: host seconds inside the local SpMV (phase_spmv)
        self.seconds = 0.0
        if program.abft:
            self.csum = program.colsum[rows]
            self.acsum = program.abs_colsum[rows]
            self.abft_rtol = program.abft_rtol

    def _pad_positions(self, ids) -> np.ndarray:
        """Flat pad positions of global ids inside the grown box."""
        nx, ny, _ = self.layout.shape
        iz, rem = np.divmod(ids, nx * ny)
        iy, ix = np.divmod(rem, nx)
        oz, oy, ox = self.origin
        return np.ravel_multi_index((iz - oz, iy - oy, ix - ox),
                                    self.pad.shape)

    def assemble(self, blocks) -> np.ndarray:
        full = np.zeros(self.n)
        for rr, blk in enumerate(blocks):
            full[self.layout.local_indices_cached(rr)] = blk
        return full

    def _fill(self, full) -> None:
        nx, ny, nz = self.layout.shape
        self.pad[self.pad_view] = full.reshape(nz, ny, nx)[self.grid_view]

    def _spmv(self):
        t0 = time.perf_counter()
        out = self.block.matvec(self.pad)
        self.seconds += time.perf_counter() - t0
        yield Compute(self.flops)
        return out

    def apply_gathered(self, v, tag: int = 7):
        blocks = yield from self.comm.allgather(v, tag=tag)
        self._fill(self.assemble(blocks))
        return (yield from self._spmv())

    def apply(self, u):
        if self.replicated is not None:
            self._fill(self.replicated)
            self.replicated = None
        else:
            self.interior[...] = u.reshape(self.interior.shape)
            yield from self.exchange(u)
        return (yield from self._spmv())

    def _scatter(self, entry, pos, vals) -> None:
        vals = np.asarray(vals)
        expected = pos.size
        if vals.shape != (expected,):
            raise ValueError(
                f"halo {entry['kind']} mismatch: rank "
                f"{entry['rank']} sent {vals.shape} to rank "
                f"{self.comm.rank}, expected ({expected},)"
            )
        np.put(self.pad, pos, vals)

    def exchange(self, v_local):
        """Halo exchange: neighbours' faces, edges and corners -> the pad.

        Received payloads are shape-checked against the plan so a
        corrupted or misrouted halo message is named by both ranks and
        the face kind.  Over the reliable transport each neighbour pair
        orders its acknowledged send/recv by rank -- two symmetric
        stop-and-wait sends would deadlock waiting for each other's acks.
        """
        rank, ep = self.comm.rank, self.comm.ep
        if ep is None:
            for entry, lpos in zip(self.plan, self.send_lpos):
                yield Send(dest=entry["rank"], payload=v_local[lpos],
                           tag=_HALO_TAG)
            for entry, pos in zip(self.plan, self.recv_pos):
                vals = yield Recv(source=entry["rank"], tag=_HALO_TAG)
                self._scatter(entry, pos, vals)
            return
        for entry, lpos, pos in zip(self.plan, self.send_lpos,
                                    self.recv_pos):
            nb, kind = entry["rank"], entry["kind"]
            try:
                if rank < nb:
                    yield from ep.send(nb, v_local[lpos], tag=_HALO_TAG)
                    vals = yield from ep.recv(nb, tag=_HALO_TAG)
                else:
                    vals = yield from ep.recv(nb, tag=_HALO_TAG)
                    yield from ep.send(nb, v_local[lpos], tag=_HALO_TAG)
            except RankFailedError as exc:
                raise RankFailedError(
                    f"halo {kind} exchange between rank {rank} and "
                    f"rank {nb} failed: {exc}",
                    rank=nb,
                ) from exc
            self._scatter(entry, pos, vals)

    def checksum_terms(self, w, u):
        # no rank holds the full operand, so the expected value is reduced
        # too: sum(A u) beside the per-rank column-checksum contributions
        return [(w, None, "sum(A u)"), (self.csum, u, "colsum·u"),
                (self.acsum, np.abs(u), "|colsum|·|u|")]

    def verify_checksum(self, w_total, cs_total, acs_total) -> None:
        tol = self.abft_rtol * (abs(acs_total) + 1.0)
        if not np.isfinite(w_total) or abs(w_total - cs_total) > tol:
            raise AbftChecksumError(
                f"halo SpMV checksum mismatch: sum(A u) = "
                f"{w_total!r} but column checksums predict "
                f"{cs_total!r} (tolerance {tol:.3e})"
            )


class ReplicatedMultigrid:
    """``u = M^-1 r`` by the replicated V-cycle: allgather, solve, slice; the
    full result stays with the operator, whose next product needs no halo."""

    def __init__(self, mg: MultigridPreconditioner, op: SubcubeOperator):
        self.mg = mg
        self.op = op
        #: host seconds inside ``mg.solve`` (phase_mg)
        self.seconds = 0.0

    def __call__(self, r):
        blocks = yield from self.op.comm.allgather(r)
        r_full = self.op.assemble(blocks)
        t0 = time.perf_counter()
        z_full = self.mg.solve(r_full)
        self.seconds += time.perf_counter() - t0
        yield Compute(self.mg.flops_per_apply)
        self.op.replicated = z_full
        return z_full[self.op.rows]


class HPCGRankProgram(RankProgramBase):
    """Preconditioned CG on a 3-D 27-point stencil, subcube-distributed.

    Parameters
    ----------
    matrix, b:
        The :func:`stencil27` system (CSR-convertible) and right-hand side.
        Any coefficients will do, as long as every row couples only to its
        27-point neighbourhood, at most once per neighbour: ``ValueError``
        names the first row and column that do not, raised by the
        constructor with ``precond="mg"`` and by each rank otherwise.
    shape:
        Grid dimensions ``(nx, ny, nz)`` with ``nx*ny*nz`` matrix rows.
    precond:
        ``"none"``, ``"jacobi"`` (local diagonal scaling) or ``"mg"``
        (replicated geometric V-cycle).
    reproducible:
        Ride every inner product on the fixed-point superaccumulator of
        :mod:`repro.backend.reproducible`: dots and norms become bitwise
        invariant to rank count, topology and backend, at the cost of
        wider reduction payloads.

    Each rank returns ``(x_block, residuals, converged, iterations,
    extras)`` where ``extras`` carries the per-iteration scalar trajectory
    (``alphas``/``betas``/``gammas`` -- the bitwise pin checks these), halo
    statistics and per-phase compute seconds.
    """

    def __init__(self, matrix, b: np.ndarray, shape: Tuple[int, int, int],
                 x0: Optional[np.ndarray] = None,
                 criterion: Optional[StoppingCriterion] = None,
                 maxiter: Optional[int] = None, precond: str = "mg",
                 reproducible: bool = False, mg_levels: int = 4,
                 grid: Optional[Tuple[int, int, int]] = None):
        super().__init__(matrix, b, x0, criterion, maxiter, reproducible)
        nx, ny, nz = (int(s) for s in shape)
        if nx * ny * nz != self.n:
            raise ValueError(
                f"shape {shape} implies {nx * ny * nz} rows, "
                f"matrix has {self.n}"
            )
        if precond not in HPCG_PRECONDS:
            raise ValueError(
                f"unknown preconditioner {precond!r}; "
                f"expected one of {HPCG_PRECONDS}"
            )
        self.shape = (nx, ny, nz)
        self.precond = precond
        self.grid = grid
        self.inv_diag: Optional[np.ndarray] = (
            JacobiPreconditioner(matrix).inv_diag
            if precond == "jacobi" else None
        )
        self.mg = (
            MultigridPreconditioner(matrix, self.shape, max_levels=mg_levels)
            if precond == "mg"
            else None
        )

    def default_layout(self, nprocs: int) -> Grid3DBlock:
        """Subcube layout at ``nprocs`` ranks.

        The recovery driver calls this to re-factorise the process grid
        after a shrink; an explicit ``grid`` override only applies at the
        rank count it covers.
        """
        grid = self.grid
        if grid is not None and int(np.prod(grid)) != int(nprocs):
            grid = None
        return Grid3DBlock(self.shape, nprocs, grid=grid)

    def _layout_at(self, size: int) -> Grid3DBlock:
        return Grid3DBlock(self.shape, size, grid=self.grid)

    def __call__(self, rank: int, size: int):
        t_setup = time.perf_counter()
        layout = self._layout_at(size)
        comm = Collectives(rank, size, self.reliable, self.reliable_config)
        op = SubcubeOperator(self, layout, rank, comm)
        precond = None
        if self.precond == "mg":
            precond = ReplicatedMultigrid(self.mg, op)
        elif self.precond == "jacobi":
            precond = partial(jacobi, self.inv_diag[op.rows])
        reducer = Reducer(comm, self.reproducible,
                          abft_op=op if self.abft else None)
        bb = self.b[op.rows].copy()
        guard = None
        if self.guarded:
            guard = Guard(self, rank, op, reducer, bb, trajectory=True)
        x = self.x_start[op.rows].copy()
        setup_seconds = time.perf_counter() - t_setup

        x, residuals, converged, iterations, trajectory = (
            yield from chronopoulos_gear_cg(
                op, precond, reducer, guard, bb, x,
                bool(np.any(self.x_start)), self.crit, self.maxiter,
            )
        )
        kinds = [e["kind"] for e in op.plan]
        halo = {
            "neighbors": len(kinds),
            "faces": kinds.count("face"),
            "edges": kinds.count("edge"),
            "corners": kinds.count("corner"),
            "words_per_exchange": int(
                sum(e["send_ids"].size for e in op.plan)),
        }
        extras: Dict[str, Any] = {
            "precond": self.precond,
            "reproducible": self.reproducible,
        }
        if guard is not None:
            extras["abft"] = self.abft
            halo["reliable"] = self.reliable
        extras.update(
            grid=layout.grid,
            halo=halo,
            mg_depth=self.mg.depth if self.mg is not None else 0,
            mg_flops_per_apply=(
                self.mg.flops_per_apply if self.mg is not None else 0.0),
        )
        extras["alphas"], extras["betas"], extras["gammas"] = trajectory
        extras["phase_seconds"] = {
            "setup": setup_seconds,
            "spmv": op.seconds,
            "mg": precond.seconds if self.mg is not None else 0.0,
            "dot": reducer.seconds,
        }
        if guard is not None:
            extras["resilience"] = guard.extras()
        return x, residuals, converged, iterations, extras


class ResilientHPCGProgram(HPCGRankProgram):
    """Fault-tolerant HPCG: checkpoints, audits, ABFT, reliable halo.

    The resilience treatment of
    :class:`~repro.backend.programs.ResilientCGProgram` (one
    :class:`~repro.backend.kernel.Guard`) on the subcube-distributed
    recurrence.  Checkpoints snapshot ``x``/``r``/``p``/``s`` plus the
    recurrence scalars per subcube, in the format
    :func:`repro.backend.solve.reslice_snapshots` redistributes, so both
    ``respawn`` and ``shrink`` recovery work.  With ``abft=True`` every
    dot travels as duplicate-sum slots and the halo SpMV is checksummed;
    with ``reliable=True`` every collective *and* every face/edge/corner
    halo message rides the ARQ of :mod:`repro.machine.reliable`.

    ``reproducible=True`` composes exactly as in the plain program; a
    fault-free resilient run reproduces the plain trajectory bitwise.
    """

    def __init__(self, matrix, b: np.ndarray, shape: Tuple[int, int, int],
                 x0: Optional[np.ndarray] = None,
                 criterion: Optional[StoppingCriterion] = None,
                 maxiter: Optional[int] = None, precond: str = "mg",
                 reproducible: bool = False, mg_levels: int = 4,
                 grid: Optional[Tuple[int, int, int]] = None,
                 checkpoint_interval: int = 10, sanity_interval: int = 5,
                 sanity_rtol: float = 1.0e-6, max_restarts: int = 4,
                 faults: Optional[FaultPlan] = None, reliable: bool = False,
                 reliable_config: Optional[ReliableConfig] = None,
                 abft: bool = False, abft_rtol: float = 1.0e-8,
                 layout: Optional[Grid3DBlock] = None):
        super().__init__(
            matrix, b, shape, x0=x0, criterion=criterion, maxiter=maxiter,
            precond=precond, reproducible=reproducible, mg_levels=mg_levels,
            grid=grid,
        )
        self._init_guard(checkpoint_interval, sanity_interval, sanity_rtol,
                         max_restarts, faults, reliable, reliable_config,
                         abft, abft_rtol)
        #: set by the recovery driver after a shrink
        self.layout: Optional[Grid3DBlock] = layout

    def _layout_at(self, size: int) -> Grid3DBlock:
        if isinstance(self.layout, Grid3DBlock) \
                and self.layout.nprocs == size:
            return self.layout
        return self.default_layout(size)
