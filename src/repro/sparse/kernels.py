"""The local sparse kernel: a compressed block times a vector, written once.

Every storage scheme and every distribution in this repository ends in the
same rank-local loop -- "sum the entries of a compressed row" (CSR rows,
CSC columns of the transpose) or "scatter a compressed column" -- and this
module is the only place in ``src/`` that spells it (DESIGN.md, "Local
kernel").  Swapping the body for a compiled kernel is a change to the two
methods below and nothing else.

**Summation-order contract.**  ``matvec`` sums each major line (row of a
CSR block, column of a CSC block) *left to right in storage order,
starting from zero*; ``rmatvec`` scatters the products *in storage order
into a zero vector*.  Both are therefore independent of how the matrix was
cut into blocks, which is what lets the simulated, process and reference
paths agree bitwise.  Indices within a line need not be sorted and may
repeat.  A replacement body must keep this order (no FMA contraction, no
pairwise or blocked row sums); ``tests/test_local_kernel.py`` checks it
against the explicit loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["CompressedBlock"]


class CompressedBlock:
    """Major lines ``lo:hi`` of a compressed ``(indptr, indices, data)`` trio.

    ``indptr`` may be the matrix's global pointer array (with ``lo:hi`` the
    contiguous range this rank owns) or an already-sliced local one
    (``lo=0``, ``hi=None``); rectangular and zero-line blocks are fine.
    The major index of every entry is expanded **once**, here;
    ``indices`` and ``data`` are *views* of the caller's arrays, so a
    handle costs ``8 * nnz`` bytes for as long as it is held and sees
    in-place updates.  Handles are built inside the rank or strategy that
    uses them and never pickled.
    """

    def __init__(self, indptr, indices, data, lo: int = 0,
                 hi: Optional[int] = None):
        hi = len(indptr) - 1 if hi is None else hi
        seg = slice(int(indptr[lo]), int(indptr[hi]))
        self.nmajor = hi - lo
        self.indices = indices[seg]
        self.data = data[seg]
        #: local major index (``0 .. hi-lo``) of every stored entry
        self.major = np.repeat(np.arange(self.nmajor, dtype=np.int64),
                               np.diff(indptr[lo : hi + 1]))

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Gather: ``y[i] = sum_k data[k] * x[indices[k]]`` over line ``i``."""
        y = np.zeros(self.nmajor, dtype=np.result_type(self.data.dtype, x.dtype))
        np.add.at(y, self.major, self.data * x[self.indices])
        return y

    def rmatvec(self, x: np.ndarray, n: int) -> np.ndarray:
        """Scatter: ``y[indices[k]] += data[k] * x[major[k]]`` into ``n`` zeros."""
        y = np.zeros(n, dtype=np.result_type(self.data.dtype, x.dtype))
        np.add.at(y, self.indices, self.data * x[self.major])
        return y
