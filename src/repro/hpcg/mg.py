"""Geometric multigrid preconditioner for the 27-point stencil (HPCG-style).

One V-cycle per apply, matching the HPCG reference structure:

* **hierarchy**: each level halves every grid dimension (while all of them
  stay even and at least 4) and *re-discretises* the 27-point operator on
  the coarse grid -- the Galerkin product degenerates under injection for
  a distance-1 stencil, so re-discretisation is the right coarse operator
  here, exactly as in HPCG;
* **smoother**: one symmetric Gauss--Seidel sweep.  SymGS with initial
  guess ``x`` is algebraically ``x + M^{-1}(b - A x)`` where ``M`` is the
  SSOR splitting at ``omega = 1`` -- so the smoother *is* the existing
  :class:`~repro.core.preconditioners.SSORPreconditioner`, reused per
  level, whose triangular operands are built once, in numpy, at
  construction;
* **transfer**: injection restriction (coarse point ``(i,j,k)`` reads fine
  point ``(2i,2j,2k)``) and its transpose as prolongation, the HPCG pair,
  both the strided view ``[::2, ::2, ::2]`` of the level's grid;
* **coarsest level**: a single SymGS sweep.

Each level cuts its CSR once, at construction, into the 27 coefficient
planes of a whole-grid :class:`~repro.sparse.kernels.StencilBlock` and
then keeps only its shape, the planes and the smoother's operands.  A
constant plane is one float, so every level of a :func:`stencil27`
hierarchy holds 27 floats where a varying-coefficient level holds 27
arrays.  The HPCG rank operator slices its subcube out of the fine level
(:meth:`~repro.sparse.kernels.StencilBlock.sub`) rather than cut the CSR
again.  An apply is only arithmetic: per level, SuperLU forward and
backward substitutions on the prepared operands (two per smooth) and the
residual products (two per non-coarsest level), each the planes over a
fresh zero-ringed pad.  At 32^3 on a 2-core Xeon, one BLAS thread, one
apply takes about 5.5 ms, most of it the substitutions.

The apply is deterministic (triangular solves + plane sweeps in fixed
order, bitwise the CSR products on stencil rows), which is what lets the
distributed HPCG program replicate it on every rank and stay bitwise
invariant to the rank count.  As a
:class:`~repro.core.preconditioners.Preconditioner` with
``parallel = False`` it also plugs directly into
:func:`repro.core.pcg.hpf_pcg`, which charges ``flops_per_apply`` as
serialised work -- the same cost treatment SSOR gets.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.preconditioners import Preconditioner, SSORPreconditioner
from ..sparse.convert import as_matrix
from ..sparse.generators import stencil27
from ..sparse.kernels import StencilBlock

__all__ = ["MultigridPreconditioner"]


class _Level:
    """One grid level: its operator as stencil planes, its SymGS smoother."""

    __slots__ = ("shape", "op", "smoother")

    def __init__(self, matrix, shape: Tuple[int, int, int]):
        nx, ny, nz = shape
        self.shape = shape
        # the planes first: an entry they cannot hold fails before SSOR
        self.op = StencilBlock(matrix.indptr, matrix.indices, matrix.data,
                               shape, ((0, nx), (0, ny), (0, nz)))
        self.smoother = SSORPreconditioner(matrix, omega=1.0)

    def grid(self, v: np.ndarray) -> np.ndarray:
        """``v`` viewed as the level's ``(nz, ny, nx)`` grid."""
        nx, ny, nz = self.shape
        return v.reshape(nz, ny, nx)

    def residual(self, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``r - A x``, the planes over ``x`` in a fresh zero-ringed pad."""
        nx, ny, nz = self.shape
        pad = np.zeros((nz + 2, ny + 2, nx + 2))
        pad[1:-1, 1:-1, 1:-1] = self.grid(x)
        return r - self.op.matvec(pad)


class MultigridPreconditioner(Preconditioner):
    """HPCG-style geometric V(1,1)-cycle for :func:`stencil27` systems.

    Parameters
    ----------
    matrix:
        The fine-grid operator: a repro matrix, a ``scipy.sparse`` matrix
        or a dense ndarray (held as CSR, so every form gives the same
        apply bit for bit).  Must have ``nx * ny * nz`` rows, each coupled
        only to its 27-point neighbourhood, at most once per neighbour;
        otherwise construction raises ``ValueError`` naming the row and
        column.  The hierarchy below it is re-discretised with
        :func:`stencil27`.
    shape:
        Fine grid dimensions ``(nx, ny, nz)``.
    max_levels:
        Hierarchy depth cap (HPCG uses 4).  Coarsening also stops when any
        dimension is odd or would drop below 2.
    """

    parallel = False

    def __init__(self, matrix, shape: Tuple[int, int, int],
                 max_levels: int = 4):
        nx, ny, nz = (int(s) for s in shape)
        if max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        matrix = as_matrix(matrix).to_csr()
        if matrix.nrows != nx * ny * nz:
            raise ValueError(
                f"matrix has {matrix.nrows} rows, shape {shape} implies "
                f"{nx * ny * nz}"
            )
        self.shape = (nx, ny, nz)
        self.levels: List[_Level] = [_Level(matrix, self.shape)]
        while len(self.levels) < max_levels:
            fx, fy, fz = self.levels[-1].shape
            if fx % 2 or fy % 2 or fz % 2 or min(fx, fy, fz) < 4:
                break
            cshape = (fx // 2, fy // 2, fz // 2)
            self.levels.append(_Level(stencil27(*cshape), cshape))
        self._flops = self._count_flops()

    @property
    def depth(self) -> int:
        return len(self.levels)

    def _count_flops(self) -> float:
        total = 0.0
        for i, level in enumerate(self.levels):
            n = float(np.prod(level.shape))
            smooth = level.smoother.flops_per_apply  # 2*nnz + n
            residual = 2.0 * level.op.nnz + n
            if i == len(self.levels) - 1:
                total += smooth  # coarsest: one SymGS from zero
            else:
                # pre-smooth, two residuals, post-smooth, correction adds,
                # one read per coarse point
                total += 2.0 * smooth + 2.0 * residual + 2.0 * n
                total += float(np.prod(self.levels[i + 1].shape))
        return total

    # ------------------------------------------------------------------ #
    def _vcycle(self, lvl: int, r: np.ndarray) -> np.ndarray:
        level = self.levels[lvl]
        if lvl == len(self.levels) - 1:
            return level.smoother.solve(r)  # SymGS sweep from zero guess
        x = level.smoother.solve(r)  # pre-smooth (zero initial guess)
        res = level.residual(r, x)
        # injection restriction, then its transpose added into x in place
        coarse = level.grid(x)[::2, ::2, ::2]
        xc = self._vcycle(lvl + 1, level.grid(res)[::2, ::2, ::2].ravel())
        coarse += xc.reshape(coarse.shape)
        res = level.residual(r, x)
        x += level.smoother.solve(res)  # post-smooth
        return x

    def solve(self, r: np.ndarray) -> np.ndarray:
        return self._vcycle(0, np.asarray(r, dtype=np.float64))

    @property
    def flops_per_apply(self) -> float:
        return self._flops

    @property
    def name(self) -> str:
        return "mg"
