"""Abstract base class for the sparse-matrix storage schemes of Section 3.

The paper considers the Compressed Sparse Column (CSC) and Compressed Sparse
Row (CSR) schemes "which can store any sparse matrix", plus the dense
two-dimensional representation.  Every format here implements the same small
interface -- ``matvec`` (``A @ x``), ``rmatvec`` (``A.T @ x``, needed by
BiCG), conversions, and shape/nnz metadata -- so the solver layer is format
agnostic.

All kernels are vectorised NumPy (no Python-level per-element loops), per
the owner-computes local kernels an HPF compiler would generate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .kernels import CompressedBlock

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csc import CSCMatrix
    from .csr import CSRMatrix
    from .dense import DenseMatrix

__all__ = ["SparseMatrix"]


class SparseMatrix(ABC):
    """Common interface of all matrix storage schemes."""

    #: (nrows, ncols)
    shape: Tuple[int, int]

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    @abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored entries."""

    @property
    @abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype."""

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #
    @abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x``."""

    @abstractmethod
    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``A.T @ x`` (the transpose product BiCG requires)."""

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(np.asarray(x))

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored)."""
        return self.to_coo().diagonal()

    def _block(self) -> CompressedBlock:
        """Kernel handle over a compressed scheme's ``(indptr, indices, data)``.

        Built per product and dropped with it, as the matrix classes always
        did: a cached handle would keep ``8 * nnz`` bytes resident per
        matrix (and in every process forked from its owner).  Callers with
        a hot loop hold their own handle.
        """
        return CompressedBlock(self.indptr, self.indices, self.data)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @abstractmethod
    def to_coo(self) -> "COOMatrix":
        """Convert to coordinate format."""

    def to_csr(self) -> "CSRMatrix":
        return self.to_coo().to_csr()

    def to_csc(self) -> "CSCMatrix":
        return self.to_coo().to_csc()

    def to_dense(self) -> "DenseMatrix":
        return self.to_coo().to_dense()

    def toarray(self) -> np.ndarray:
        """Dense ``ndarray`` copy of the matrix."""
        return self.to_dense().array.copy()

    def to_scipy(self):
        """Convert to a ``scipy.sparse`` matrix (used as a test oracle)."""
        import scipy.sparse as sp

        coo = self.to_coo()
        return sp.coo_matrix(
            (coo.data, (coo.rows, coo.cols)), shape=self.shape
        ).tocsr()

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    def _check_vector(self, x: np.ndarray, length: int) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != length:
            raise ValueError(
                f"vector of length {length} required, got shape {x.shape}"
            )
        return x

    @staticmethod
    def _check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise ValueError(f"invalid shape {shape}")
        return nrows, ncols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype})"
        )
