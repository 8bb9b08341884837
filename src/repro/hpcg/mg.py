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
  level, whose triangular operands are prepared once at construction;
* **transfer**: injection restriction (coarse point ``(i,j,k)`` reads fine
  point ``(2i,2j,2k)``) and its transpose as prolongation, the HPCG pair;
* **coarsest level**: a single SymGS sweep.

An apply is therefore only arithmetic: per level, SuperLU forward and
backward substitutions on the prepared operands (two per smooth) and the
CSR residual products (two per non-coarsest level).  At 32^3 on a 2-core
Xeon the residual products are about two thirds of it and the
substitutions one third; a V-cycle costs about four fine-grid SpMVs.

The apply is deterministic (triangular solves + CSR mat-vecs in fixed
order), which is what lets the distributed HPCG program replicate it on
every rank and stay bitwise invariant to the rank count.  As a
:class:`~repro.core.preconditioners.Preconditioner` with
``parallel = False`` it also plugs directly into
:func:`repro.core.pcg.hpf_pcg`, which charges ``flops_per_apply`` as
serialised work -- the same cost treatment SSOR gets.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.preconditioners import Preconditioner, SSORPreconditioner
from ..sparse.convert import as_matrix
from ..sparse.generators import stencil27

__all__ = ["MultigridPreconditioner"]


class _Level:
    """One grid level: operator, SymGS smoother, injection map to coarse."""

    __slots__ = ("matrix", "shape", "smoother", "inject")

    def __init__(self, matrix, shape: Tuple[int, int, int]):
        self.matrix = matrix
        self.shape = shape
        self.smoother = SSORPreconditioner(matrix, omega=1.0)
        self.inject: Optional[np.ndarray] = None  # fine ids of coarse points


def _injection_ids(fine: Tuple[int, int, int],
                   coarse: Tuple[int, int, int]) -> np.ndarray:
    """Fine-grid global ids of the coarse points (coarse row-major order)."""
    nx, ny, _ = fine
    cnx, cny, cnz = coarse
    cz, cy, cx = np.meshgrid(
        np.arange(cnz), np.arange(cny), np.arange(cnx), indexing="ij"
    )
    return (((2 * cz) * ny + 2 * cy) * nx + 2 * cx).ravel()


class MultigridPreconditioner(Preconditioner):
    """HPCG-style geometric V(1,1)-cycle for :func:`stencil27` systems.

    Parameters
    ----------
    matrix:
        The fine-grid operator: a repro matrix, a ``scipy.sparse`` matrix
        or a dense ndarray (held as CSR, so every form gives the same
        apply bit for bit).  Must have ``nx * ny * nz`` rows; the
        hierarchy below it is re-discretised with :func:`stencil27`.
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
            self.levels[-1].inject = _injection_ids(
                self.levels[-1].shape, cshape
            )
            self.levels.append(_Level(stencil27(*cshape), cshape))
        self._flops = self._count_flops()

    @property
    def depth(self) -> int:
        return len(self.levels)

    def _count_flops(self) -> float:
        total = 0.0
        for i, level in enumerate(self.levels):
            n = level.matrix.nrows
            smooth = level.smoother.flops_per_apply  # 2*nnz + n
            residual = 2.0 * level.matrix.nnz + n
            if i == len(self.levels) - 1:
                total += smooth  # coarsest: one SymGS from zero
            else:
                # pre-smooth, two residuals, post-smooth, correction adds
                total += 2.0 * smooth + 2.0 * residual + 2.0 * n
                total += float(level.inject.size)
        return total

    # ------------------------------------------------------------------ #
    def _vcycle(self, lvl: int, r: np.ndarray) -> np.ndarray:
        level = self.levels[lvl]
        if lvl == len(self.levels) - 1:
            return level.smoother.solve(r)  # SymGS sweep from zero guess
        x = level.smoother.solve(r)  # pre-smooth (zero initial guess)
        res = r - level.matrix.matvec(x)
        xc = self._vcycle(lvl + 1, res[level.inject])  # injection restrict
        x[level.inject] += xc  # transpose-injection prolong
        res = r - level.matrix.matvec(x)
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
