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


def _sweep_operands(T, lower: bool, invdiag: np.ndarray) -> tuple:
    """SuperLU ``gstrs`` operands of one triangular sweep ``T y = b``.

    This is the matrix-only half of scipy's sparse triangular solve for a
    CSR ``T``, run once: its CSC transpose scaled to a unit diagonal
    (``T @ diag(invdiag)``, duplicates summed), paired with the identity
    (a lower ``T`` is an upper CSC, diagonal zeroed) or an empty matrix,
    index arrays cast to ``intc``.  Returned as plain ``(n, nnz, data,
    indices, indptr)`` twice, so :func:`_sweep` is bitwise that solve
    (``tests/test_preconditioners.py::TestSSORSweepParity``).
    """
    import scipy.sparse as sp

    n = T.shape[0]
    A = (T @ sp.diags_array(invdiag)).T
    A.sum_duplicates()
    if lower:
        L, U = sp.eye_array(n, format="csc"), A
        U.setdiag(0)
    else:
        L, U = A, sp.csc_array((n, n))
    if max(L.nnz, U.nnz) > np.iinfo(np.intc).max:
        raise ValueError("SuperLU takes 32-bit indices; matrix too large")
    return tuple(
        x for M in (L, U) for x in (
            n, M.nnz, M.data,
            M.indices.astype(np.intc), M.indptr.astype(np.intc),
        )
    )


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
    construction (:func:`_sweep_operands`): an apply is two SuperLU
    substitutions and three diagonal scalings, bitwise what scipy's
    per-call triangular solve gives on the same operators.  The instance
    keeps only plain arrays: each sweep's ``gstrs`` operands, the one
    inverse diagonal ``w / d`` both sweeps share, and the middle scaling.
    """

    parallel = False

    def __init__(self, matrix, omega: float = 1.0):
        if not 0.0 < omega < 2.0:
            raise ValueError("SSOR requires 0 < omega < 2")
        import scipy.sparse as sp
        # loaded here, not by the first apply, which would pay for it
        import scipy.sparse.linalg._dsolve._superlu  # noqa: F401

        A = as_matrix(matrix).to_scipy().tocsr()
        d = A.diagonal()
        if (d == 0).any():
            raise ValueError("SSOR preconditioner needs a zero-free diagonal")
        self.omega = float(omega)
        n = A.shape[0]
        D = sp.diags(d)
        lower = (D / omega + sp.tril(A, k=-1)).tocsr()  # forward sweep
        upper = (D / omega + sp.triu(A, k=1)).tocsr()  # backward sweep
        self._invdiag = 1.0 / lower.diagonal()  # upper's diagonal is the same
        self._forward = _sweep_operands(lower, True, self._invdiag)
        self._backward = _sweep_operands(upper, False, self._invdiag)
        self._d_scale = d * ((2.0 - omega) / omega)
        self._nnz = A.nnz
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
