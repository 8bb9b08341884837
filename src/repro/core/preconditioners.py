"""Preconditioners for the CG family (paper Section 2.1).

"A preconditioner for A can be added to any of the algorithms described
above and which will increase the speed of convergence of the CG algorithm.
Although these preconditioned conjugate gradient algorithms requires a
matrix inverse, and a transpose, practical implementations is formulated
such that it works with the original matrix A."

Each preconditioner exposes ``solve(r) -> z`` (apply ``M^{-1}``) plus the
cost metadata the distributed PCG uses to charge the machine:

* ``parallel`` -- whether the apply is embarrassingly local under an
  aligned distribution (Jacobi, Neumann) or inherently serialised
  (SSOR's triangular sweeps);
* ``flops_per_apply`` -- arithmetic cost of one apply.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..sparse.convert import as_matrix
from ..sparse.coo import COOMatrix

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "SSORPreconditioner",
    "NeumannPreconditioner",
]


class Preconditioner(ABC):
    """Apply ``z = M^{-1} r`` with known cost structure."""

    #: True when the apply is purely element-local under owner-computes
    parallel: bool = True

    @abstractmethod
    def solve(self, r: np.ndarray) -> np.ndarray:
        """Return ``M^{-1} r``."""

    @property
    @abstractmethod
    def flops_per_apply(self) -> float:
        """Arithmetic operations per apply."""

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Preconditioner", "").lower() or "identity"


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: ``M = I``."""

    def __init__(self, n: int):
        self.n = int(n)

    def solve(self, r: np.ndarray) -> np.ndarray:
        return r.copy()

    @property
    def flops_per_apply(self) -> float:
        return 0.0


class JacobiPreconditioner(Preconditioner):
    """Diagonal scaling ``M = diag(A)`` -- fully parallel, one divide each."""

    def __init__(self, matrix):
        A = as_matrix(matrix)
        d = A.diagonal()
        if (d == 0).any():
            raise ValueError("Jacobi preconditioner needs a zero-free diagonal")
        self.inv_diag = 1.0 / d

    def solve(self, r: np.ndarray) -> np.ndarray:
        return r * self.inv_diag

    @property
    def flops_per_apply(self) -> float:
        return float(self.inv_diag.size)


def _canonical(matrix) -> tuple:
    """``(n, rows, cols, data)`` of ``matrix``'s entries in row-major order.

    Each row's entries sorted by column and duplicates summed in storage
    order, as scipy's ``sum_duplicates`` does on rows of up to 16 entries
    (where its sort is an insertion sort); explicit zeros are kept.  The
    sum starts from zero, not from the first duplicate, which only turns
    an all ``-0.0`` group into ``+0.0``: a zero the sweeps drop or the
    diagonal check rejects either way.
    """
    A = as_matrix(matrix).to_csr()
    rows, cols, data = A.expanded_rows(), A.indices, A.data
    key = rows * A.ncols + cols
    if (key[1:] <= key[:-1]).any():
        coo = COOMatrix(rows, cols, data, shape=A.shape)
        rows, cols, data = coo.rows, coo.cols, coo.data
    return A.nrows, rows, cols, data


def _sweep_operands(rows, cols, data, dw: np.ndarray, invdiag: np.ndarray,
                    lower: bool) -> tuple:
    """SuperLU ``gstrs`` operands of one triangular sweep ``T y = b``.

    ``T`` is the lower (``lower``) or upper triangle of the canonical
    ``(rows, cols, data)``, explicit zeros dropped and the diagonal
    replaced by ``dw``: the forward or backward SSOR operator.  This is the
    matrix-only half of scipy's sparse triangular solve for ``T`` in CSR,
    run once: the CSC transpose of ``T @ diag(invdiag)`` (rows in column
    order, products that are zero dropped), paired with the identity (a
    lower ``T`` is an upper CSC, diagonal set to zero) or an empty matrix,
    index arrays ``intc``.  Returned as plain ``(n, nnz, data, indices,
    indptr)`` twice, so :func:`_sweep` is bitwise that solve
    (``tests/test_preconditioners.py::TestSSORSweepParity``).
    """
    n = dw.size
    keep = ((cols <= rows) if lower else (cols >= rows)) & (data != 0)
    row, col, val = rows[keep], cols[keep], data[keep]
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    # each row holds its (nonzero) diagonal, last or first
    diag = indptr[1:] - 1 if lower else indptr[:-1]
    val[diag] = dw
    val *= invdiag[col]
    nonzero = val != 0  # the diagonal's product never vanishes
    if not nonzero.all():
        col, val = col[nonzero], val[nonzero]
        np.cumsum(np.bincount(row[nonzero], minlength=n), out=indptr[1:])
    if val.size > np.iinfo(np.intc).max:
        raise ValueError("SuperLU takes 32-bit indices; matrix too large")
    sweep = (n, val.size, val, col.astype(np.intc), indptr)
    if lower:
        val[indptr[1:] - 1] = 0.0
        eye = np.arange(n + 1, dtype=np.intc)
        return (n, n, np.ones(n), eye[:-1].copy(), eye) + sweep
    empty = (n, 0, np.empty(0), np.empty(0, dtype=np.intc),
             np.zeros(n + 1, dtype=np.intc))
    return sweep + empty


def _sweep(gstrs, operands: tuple, b: np.ndarray,
           invdiag: np.ndarray) -> np.ndarray:
    """Solve one prepared sweep; ``b`` (float64) is overwritten."""
    x, info = gstrs("T", *operands, b)
    if info:
        raise np.linalg.LinAlgError("A is singular.")
    return x * invdiag


class SSORPreconditioner(Preconditioner):
    """Symmetric SOR preconditioner.

    ``M = (D/w + L) * (w/(2-w)) * D^{-1} * (D/w + U)`` for ``A = L + D + U``.
    The two triangular sweeps are recurrences along the unknown index, so
    the apply is *serial* -- the distributed PCG charges it as serialised
    work, exhibiting the parallelism-vs-convergence trade-off.

    Both sweep operators are fixed, so they are prepared once, at
    construction, in numpy from the canonical CSR trio
    (:func:`_sweep_operands`), byte for byte the operands scipy's
    per-call triangular solve builds: an apply is two SuperLU
    substitutions and three diagonal scalings, bitwise that solve.  The
    instance keeps only plain arrays: each sweep's ``gstrs`` operands, the
    one inverse diagonal ``1 / (d * (1/w))`` both sweeps share, and the
    middle scaling.  A diagonal entry that is zero, or that the scaling
    underflows to zero, raises ``ValueError``.
    """

    parallel = False

    def __init__(self, matrix, omega: float = 1.0):
        if not 0.0 < omega < 2.0:
            raise ValueError("SSOR requires 0 < omega < 2")
        # loaded here, not by the first apply, which would pay for it
        import scipy.sparse.linalg._dsolve._superlu  # noqa: F401

        n, rows, cols, data = _canonical(matrix)
        on = rows == cols
        d = np.zeros(n)
        d[rows[on]] = data[on]
        dw = d * (1.0 / omega)  # D / omega, as scipy scales it
        if (dw == 0).any():
            raise ValueError("SSOR preconditioner needs a zero-free diagonal")
        self.omega = float(omega)
        self._invdiag = 1.0 / dw  # both sweeps share their diagonal
        self._forward = _sweep_operands(rows, cols, data, dw, self._invdiag,
                                        lower=True)
        self._backward = _sweep_operands(rows, cols, data, dw,
                                         self._invdiag, lower=False)
        self._d_scale = d * ((2.0 - omega) / omega)
        self._nnz = data.size
        self._n = n

    def solve(self, r: np.ndarray) -> np.ndarray:
        # imported per call on purpose: a module-level import would load
        # scipy into every rank process, and the instance holds only numpy
        # arrays so that the pickled multigrid program (the smoother is part
        # of it) carries no scipy object
        from scipy.sparse.linalg._dsolve._superlu import gstrs

        b = np.array(r, dtype=np.float64)  # gstrs overwrites its rhs
        if b.shape != (self._n,):
            raise ValueError(
                f"r has shape {b.shape}, expected ({self._n},)"
            )
        y = _sweep(gstrs, self._forward, b, self._invdiag) * self._d_scale
        return _sweep(gstrs, self._backward, y, self._invdiag)

    @property
    def flops_per_apply(self) -> float:
        # two triangular solves (~nnz multiply-adds each) plus the scaling
        return 2.0 * self._nnz + self._n


class NeumannPreconditioner(Preconditioner):
    """Truncated Neumann-series preconditioner (parallel-friendly).

    ``M^{-1} = sum_{i=0}^{order} (I - D^{-1} A)^i D^{-1}`` -- built from
    mat-vecs and diagonal scalings only, so unlike SSOR it parallelises
    under the same distributions as CG itself.
    """

    def __init__(self, matrix, order: int = 2):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.A = as_matrix(matrix)
        d = self.A.diagonal()
        if (d == 0).any():
            raise ValueError("Neumann preconditioner needs a zero-free diagonal")
        self.inv_diag = 1.0 / d
        self.order = int(order)

    def solve(self, r: np.ndarray) -> np.ndarray:
        z = self.inv_diag * r
        acc = z.copy()
        for _ in range(self.order):
            z = z - self.inv_diag * self.A.matvec(z)
            acc += z
        return acc

    @property
    def flops_per_apply(self) -> float:
        n = self.inv_diag.size
        per_term = 2.0 * self.A.nnz + 3.0 * n
        return n + self.order * per_term
