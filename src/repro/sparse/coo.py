"""Coordinate (COO) storage: explicit ``(row, col, value)`` triples.

COO is the interchange format: every other scheme converts through it.
Duplicate coordinates are summed on normalisation, matching the behaviour
of assembly in finite-element applications the paper's introduction cites
(structural analysis, fluid dynamics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .base import SparseMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .csc import CSCMatrix
    from .csr import CSRMatrix
    from .dense import DenseMatrix

__all__ = ["COOMatrix"]


def _canonical_order(major, minor, n_major: int, n_minor: int) -> np.ndarray:
    """Stable permutation into ``(major, minor)`` order, ties in input order.

    One int64 key ``major * n_minor + minor`` sorted stably is the same
    permutation as ``np.lexsort((minor, major))``; the key needs
    ``n_major * n_minor < 2**63``, so a larger shape is refused rather
    than wrapped into a wrong order.
    """
    if n_major * n_minor >= 2**63:
        raise ValueError(
            f"shape {n_major} x {n_minor}: the sort key major*n_minor + minor "
            "needs n_major*n_minor < 2**63"
        )
    return np.argsort(major * n_minor + minor, kind="stable")


class COOMatrix(SparseMatrix):
    """Coordinate-format sparse matrix.

    Parameters
    ----------
    rows, cols, data:
        Parallel arrays of equal length: ``A[rows[k], cols[k]] = data[k]``.
    shape:
        Matrix shape; inferred from the maximum indices if omitted.
    sum_duplicates:
        When True (default) repeated coordinates are combined by addition.
    """

    def __init__(
        self,
        rows,
        cols,
        data,
        shape: Tuple[int, int] = None,
        sum_duplicates: bool = True,
    ):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, data must be equal-length 1-D arrays")
        if shape is None:
            nrows = int(rows.max()) + 1 if rows.size else 0
            ncols = int(cols.max()) + 1 if cols.size else 0
            shape = (nrows, ncols)
        self.shape = self._check_shape(shape)
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.shape[0]:
                raise ValueError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= self.shape[1]:
                raise ValueError("column index out of bounds")
        if sum_duplicates and rows.size:
            # canonical order: row-major, summing duplicates in input order
            order = _canonical_order(rows, cols, *self.shape)
            rows, cols, data = rows[order], cols[order], data[order]
            is_new = np.ones(rows.size, dtype=bool)
            is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(is_new) - 1
            out_data = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(out_data, group, data)
            rows, cols, data = rows[is_new], cols[is_new], out_data
        self.rows = rows
        self.cols = cols
        self.data = data

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = self._check_vector(x, self.ncols)
        y = np.zeros(self.nrows, dtype=np.result_type(self.dtype, x.dtype))
        np.add.at(y, self.rows, self.data * x[self.cols])
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        x = self._check_vector(x, self.nrows)
        y = np.zeros(self.ncols, dtype=np.result_type(self.dtype, x.dtype))
        np.add.at(y, self.cols, self.data * x[self.rows])
        return y

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.shape), dtype=self.dtype)
        mask = self.rows == self.cols
        np.add.at(d, self.rows[mask], self.data[mask])
        return d

    # ------------------------------------------------------------------ #
    def to_coo(self) -> "COOMatrix":
        return self

    def to_csr(self) -> "CSRMatrix":
        from .csr import CSRMatrix

        order = _canonical_order(self.rows, self.cols, *self.shape)
        rows = self.rows[order]
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(
            indptr, self.cols[order], self.data[order], shape=self.shape
        )

    def to_csc(self) -> "CSCMatrix":
        from .csc import CSCMatrix

        order = _canonical_order(self.cols, self.rows, self.ncols, self.nrows)
        cols = self.cols[order]
        indptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSCMatrix(
            indptr, self.rows[order], self.data[order], shape=self.shape
        )

    def to_dense(self) -> "DenseMatrix":
        from .dense import DenseMatrix

        out = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(out, (self.rows, self.cols), self.data)
        return DenseMatrix(out)

    def transpose(self) -> "COOMatrix":
        """Return ``A.T`` in COO form."""
        return COOMatrix(
            self.cols, self.rows, self.data, shape=(self.ncols, self.nrows)
        )

    @classmethod
    def from_dense(cls, array: np.ndarray, tol: float = 0.0) -> "COOMatrix":
        """Extract the entries of a dense array with ``|a_ij| > tol``."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("dense array must be 2-D")
        rows, cols = np.nonzero(np.abs(array) > tol)
        return cls(rows, cols, array[rows, cols], shape=array.shape)
