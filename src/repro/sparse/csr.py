"""Compressed Sparse Row (CSR) storage.

The scheme of the paper's Figure 2: three arrays ``(row, col, a)`` where --
in the paper's 1-based Fortran notation -- ``a(nz)`` holds the nonzeros in
row order, ``col(nz)`` their column numbers, and ``row(n+1)`` points to the
first entry of each row.  Internally we use 0-based ``indptr`` / ``indices``
/ ``data``; :meth:`fortran_arrays` returns the 1-based trio for fidelity
with the paper's figures and the directive-level examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .base import SparseMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csc import CSCMatrix

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseMatrix):
    """CSR matrix defined by ``indptr`` (n+1), ``indices`` (nnz), ``data`` (nnz)."""

    def __init__(self, indptr, indices, data, shape: Tuple[int, int] = None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
            raise ValueError("indptr, indices, data must be 1-D")
        if indices.shape != data.shape:
            raise ValueError("indices and data must have equal length")
        nrows = indptr.size - 1
        if nrows < 0:
            raise ValueError("indptr must have at least one entry")
        if shape is None:
            ncols = int(indices.max()) + 1 if indices.size else 0
            shape = (nrows, ncols)
        self.shape = self._check_shape(shape)
        if self.shape[0] != nrows:
            raise ValueError(
                f"indptr implies {nrows} rows but shape says {self.shape[0]}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.shape[1]):
            raise ValueError("column index out of bounds")
        self.indptr = indptr
        self.indices = indices
        self.data = data

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries in each row."""
        return np.diff(self.indptr)

    def expanded_rows(self) -> np.ndarray:
        """Row index of every stored entry (length nnz)."""
        return np.repeat(
            np.arange(self.nrows, dtype=np.int64), self.row_lengths()
        )

    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``q(j) = sum_k a(k) * x(col(k))`` over row ``j``'s entries.

        This is the vectorised form of the paper's Figure-2 FORALL loop:
        contributions ``a * x[col]`` are scattered to their rows.
        """
        return self._block().matvec(self._check_vector(x, self.ncols))

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x``: gather by row, scatter by column (a CSC-style loop)."""
        return self._block().rmatvec(
            self._check_vector(x, self.nrows), self.ncols
        )

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.shape), dtype=self.dtype)
        rows = self.expanded_rows()
        mask = rows == self.indices
        np.add.at(d, rows[mask], self.data[mask])
        return d

    def row_slice(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row ``j``."""
        if not 0 <= j < self.nrows:
            raise IndexError(f"row {j} out of range")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------ #
    def to_coo(self) -> "COOMatrix":
        from .coo import COOMatrix

        return COOMatrix(
            self.expanded_rows(),
            self.indices,
            self.data,
            shape=self.shape,
            sum_duplicates=False,
        )

    def to_csr(self) -> "CSRMatrix":
        return self

    def transpose(self) -> "CSCMatrix":
        """``A.T`` for free: reinterpret the same arrays as CSC."""
        from .csc import CSCMatrix

        return CSCMatrix(
            self.indptr,
            self.indices,
            self.data,
            shape=(self.ncols, self.nrows),
        )

    # ------------------------------------------------------------------ #
    def fortran_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The paper's 1-based ``(row, col, a)`` trio for this CSR matrix.

        ``row`` has ``n+1`` entries pointing at the first element of each
        row (1-based); ``col`` holds 1-based column numbers; ``a`` the
        values.
        """
        return self.indptr + 1, self.indices + 1, self.data.copy()

    @classmethod
    def from_fortran_arrays(
        cls, row, col, a, shape: Tuple[int, int] = None
    ) -> "CSRMatrix":
        """Build from the paper's 1-based ``(row, col, a)`` arrays."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        return cls(row - 1, col - 1, a, shape=shape)
