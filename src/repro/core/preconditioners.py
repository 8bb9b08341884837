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


class SSORPreconditioner(Preconditioner):
    """Symmetric SOR preconditioner.

    ``M = (D/w + L) * (w/(2-w)) * D^{-1} * (D/w + U)`` for ``A = L + D + U``.
    The two triangular sweeps are recurrences along the unknown index, so
    the apply is *serial* -- the distributed PCG charges it as serialised
    work, exhibiting the parallelism-vs-convergence trade-off.
    """

    parallel = False

    def __init__(self, matrix, omega: float = 1.0):
        if not 0.0 < omega < 2.0:
            raise ValueError("SSOR requires 0 < omega < 2")
        import scipy.sparse as sp

        A = as_matrix(matrix).to_scipy().tocsr()
        d = A.diagonal()
        if (d == 0).any():
            raise ValueError("SSOR preconditioner needs a zero-free diagonal")
        self.omega = float(omega)
        n = A.shape[0]
        D = sp.diags(d)
        L = sp.tril(A, k=-1)
        U = sp.triu(A, k=1)
        self._lower = (D / omega + L).tocsr()  # forward sweep operator
        self._upper = (D / omega + U).tocsr()  # backward sweep operator
        self._d_scale = d * ((2.0 - omega) / omega)
        self._nnz = A.nnz
        self._n = n

    def solve(self, r: np.ndarray) -> np.ndarray:
        # imported per call on purpose: stored on the instance it would ride
        # every pickled multigrid program (the smoother is part of it), and
        # at module level it would load scipy into every rank process
        from scipy.sparse.linalg import spsolve_triangular

        y = spsolve_triangular(self._lower, r, lower=True)
        y = y * self._d_scale
        return spsolve_triangular(self._upper, y, lower=False)

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
