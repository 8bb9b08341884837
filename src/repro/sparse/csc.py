"""Compressed Sparse Column (CSC) storage -- the paper's Figure 1 scheme.

Three arrays store an ``n x n`` sparse matrix with ``nz`` nonzeros:

* ``a(nz)``   -- the nonzero elements in column order (columns 1..n),
* ``row(nz)`` -- the row number of each nonzero element,
* ``col(n+1)``-- the j-th entry points at the first entry of column j.

Internally 0-based ``indptr`` / ``indices`` / ``data``;
:meth:`fortran_arrays` reproduces the 1-based trio exactly as drawn in
Figure 1 (verified by benchmark E1 against the worked 6x6 example).

The CSC mat-vec is the loop the whole Section-5.1 extension discussion is
about: ``q(row(k)) = q(row(k)) + a(k) * p(j)`` scatters into ``q`` through
the indirection array ``row``, a many-to-one pattern that HPF-1's FORALL
and INDEPENDENT cannot express in parallel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .base import SparseMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .coo import COOMatrix
    from .csr import CSRMatrix

__all__ = ["CSCMatrix"]


class CSCMatrix(SparseMatrix):
    """CSC matrix defined by ``indptr`` (n+1), ``indices`` (nnz), ``data`` (nnz)."""

    def __init__(self, indptr, indices, data, shape: Tuple[int, int] = None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
            raise ValueError("indptr, indices, data must be 1-D")
        if indices.shape != data.shape:
            raise ValueError("indices and data must have equal length")
        ncols = indptr.size - 1
        if ncols < 0:
            raise ValueError("indptr must have at least one entry")
        if shape is None:
            nrows = int(indices.max()) + 1 if indices.size else 0
            shape = (nrows, ncols)
        self.shape = self._check_shape(shape)
        if self.shape[1] != ncols:
            raise ValueError(
                f"indptr implies {ncols} columns but shape says {self.shape[1]}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.shape[0]):
            raise ValueError("row index out of bounds")
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

    def col_lengths(self) -> np.ndarray:
        """Number of stored entries in each column."""
        return np.diff(self.indptr)

    def expanded_cols(self) -> np.ndarray:
        """Column index of every stored entry (length nnz)."""
        return np.repeat(
            np.arange(self.ncols, dtype=np.int64), self.col_lengths()
        )

    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``q(row(k)) += a(k) * x(j)``: the scatter loop of Section 5.1."""
        return self._block().rmatvec(
            self._check_vector(x, self.ncols), self.nrows
        )

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x``: per-column gather, no scatter dependency."""
        return self._block().matvec(self._check_vector(x, self.nrows))

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.shape), dtype=self.dtype)
        cols = self.expanded_cols()
        mask = cols == self.indices
        np.add.at(d, cols[mask], self.data[mask])
        return d

    def col_slice(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column ``j``."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # ------------------------------------------------------------------ #
    def to_coo(self) -> "COOMatrix":
        from .coo import COOMatrix

        return COOMatrix(
            self.indices,
            self.expanded_cols(),
            self.data,
            shape=self.shape,
            sum_duplicates=False,
        )

    def to_csc(self) -> "CSCMatrix":
        return self

    def transpose(self) -> "CSRMatrix":
        """``A.T`` for free: reinterpret the same arrays as CSR."""
        from .csr import CSRMatrix

        return CSRMatrix(
            self.indptr,
            self.indices,
            self.data,
            shape=(self.ncols, self.nrows),
        )

    # ------------------------------------------------------------------ #
    def fortran_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The paper's 1-based Figure-1 trio ``(a, row, col)``.

        Returns ``(a, row, col)`` in the order the figure labels them:
        values in column order, 1-based row numbers, and the 1-based
        column-pointer array of length ``n + 1``.
        """
        return self.data.copy(), self.indices + 1, self.indptr + 1

    @classmethod
    def from_fortran_arrays(
        cls, a, row, col, shape: Tuple[int, int] = None
    ) -> "CSCMatrix":
        """Build from the paper's 1-based ``(a, row, col)`` arrays."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        return cls(col - 1, row - 1, a, shape=shape)
