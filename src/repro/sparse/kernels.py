"""The local sparse kernels: a compressed block, or a stencil box, times a vector.

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

:class:`StencilBlock` is the second kernel: a 27-point operator on one box
of a 3-D grid, held as coefficient planes -- a constant one as a single
float -- and applied as shifted sweeps over a padded operand whose cells
outside the grid hold zero (DESIGN.md, "Local kernel").  Its order is
ascending neighbour offset ``(dz, dy, dx)`` from zero, which on a row
stored in ascending column order is :class:`CompressedBlock`'s order
exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["CompressedBlock", "StencilBlock"]


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


#: rows per slab while :class:`StencilBlock` cuts a CSR into planes; it
#: bounds the build's transient per-entry arrays, not the result
_PLANE_CHUNK_ROWS = 4096

#: neighbour offset ``(dz, dy, dx)`` of each plane, in plane order
_OFFSETS = [(dz, dy, dx) for dz in (-1, 0, 1) for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)]


def _inside(shape, box, offset) -> tuple:
    """Local slices of the cells of ``box`` whose neighbour at ``offset``
    (``(dz, dy, dx)``) lies inside the ``nx x ny x nz`` grid."""
    return tuple(
        slice(max(lo, -d) - lo, max(min(hi, dim - d), lo) - lo)
        for (lo, hi), dim, d in zip(reversed(box), reversed(shape), offset))


class StencilBlock:
    """A 27-point operator on one box of an ``nx x ny x nz`` grid.

    Built once from the box's rows of a CSR trio (``(iz*ny + iy)*nx + ix``
    numbering, ``x`` fastest) as 27 coefficient planes: plane
    ``k = 9*(dz+1) + 3*(dy+1) + (dx+1)`` holds each row's coefficient for
    neighbour ``(dz, dy, dx)``, or 0 where the row stores none.  A plane is
    held as one Python float ``c`` when ``c`` is finite and every cell
    whose neighbour lies inside the grid holds exactly ``c``'s bits -- so a
    constant-coefficient stencil holds 27 floats -- and otherwise as an
    array in the pad's layout: the box's cells from the first to the last,
    with 0 in the ring cells between them, ``lz*(ly+2)*(lx+2) - 2*lx - 6``
    cells of 8 bytes.  Either way it is a copy, not a view, so a handle
    does not see later in-place updates of ``data``.  An entry outside a
    row's 27-neighbourhood, or two entries at one offset, raises
    ``ValueError`` naming the row and column: nothing is ever dropped.

    ``matvec(pad)`` takes the operand on the box grown by one cell per face,
    ``(lz+2, ly+2, lx+2)``, and sums ``planes[k] * pad[shifted by k]`` for
    ``k = 0 .. 26`` from zero.  **Pad contract:** every pad cell outside the
    grid holds zero.  A missing neighbour then adds ``c * 0 = ±0.0`` to a
    partial sum that starts at ``+0.0`` and so is never ``-0.0``, whatever
    ``c`` a float plane holds there: for finite operands this is bitwise
    :class:`CompressedBlock` on rows stored in ascending column order,
    which stencil rows are.  A float ``c`` must be finite because
    ``inf * 0`` is NaN.

    The held scratch never rides a pickle: an unpickled handle, whose
    array planes may be read-only views, allocates its own.
    """

    def __init__(self, indptr, indices, data, shape, box):
        nx, ny, nz = (int(s) for s in shape)
        (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
        self._frame((nx, ny, nz), box)
        _, ly, lx = self.shape
        planes = np.zeros((27,) + self.shape)
        n = nx * ny * nz
        # per-entry coordinate arithmetic in int32 wherever the grid fits
        it = np.dtype(np.int32 if n < 2 ** 31 else np.int64)
        flat = planes.reshape(27, -1)
        layer = ly * lx
        step = max(1, _PLANE_CHUNK_ROWS // max(layer, 1))
        nnz = 0
        for z0 in range(zlo, zhi, step):
            z1 = min(z0 + step, zhi)
            gz, gy, gx = (g.ravel() for g in np.meshgrid(
                np.arange(z0, z1, dtype=it), np.arange(ylo, yhi, dtype=it),
                np.arange(xlo, xhi, dtype=it), indexing="ij"))
            rows = (gz.astype(np.int64) * ny + gy) * nx + gx
            counts = indptr[rows + 1] - indptr[rows]
            ends = np.cumsum(counts)
            total = int(ends[-1]) if ends.size else 0
            nnz += total
            offs = (np.repeat(indptr[rows] - (ends - counts), counts)
                    + np.arange(total))
            cols = indices[offs]
            bad = (cols < 0) | (cols >= n)
            # neighbour offset + 1 per axis, from grid coordinates (column
            # minus row aliases once nx or ny <= 2); valid in {0, 1, 2}
            c = cols.astype(it)
            dz = c // (nx * ny)
            c -= dz * (nx * ny)
            dy = c // nx
            c -= dy * nx
            dz -= np.repeat(gz - 1, counts)
            dy -= np.repeat(gy - 1, counts)
            c -= np.repeat(gx - 1, counts)
            for d in (dz, dy, c):
                bad |= d.view(f"u{it.itemsize}") > 2
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    f"row {int(rows[np.searchsorted(ends, k, 'right')])} has "
                    f"an entry in column {int(cols[k])}, outside its "
                    f"27-point neighbourhood on the {nx}x{ny}x{nz} grid")
            slot = dz * 9 + dy * 3 + c
            slot += np.repeat(np.arange(0, 27 * rows.size, 27, dtype=it),
                              counts)
            seen = np.bincount(slot, minlength=27 * rows.size)
            if seen.max(initial=0) > 1:
                k = int(np.argmax(seen[slot] > 1))
                raise ValueError(
                    f"row {int(rows[np.searchsorted(ends, k, 'right')])} "
                    f"stores column {int(cols[k])} more than once")
            buf = np.zeros(27 * rows.size)
            buf[slot] = data[offs]
            lo = (z0 - zlo) * layer
            flat[:, lo:lo + rows.size] = buf.reshape(-1, 27).T
        self.planes = [self._held(plane, inside)
                       for plane, inside in zip(planes, self._inside())]
        self.nnz = nnz

    def _frame(self, shape, box) -> None:
        """The grid, the box, its scratch and where each plane's operand
        starts in the flattened pad."""
        self._grid = shape
        self._box = tuple((int(lo), int(hi)) for lo, hi in box)
        (xlo, xhi), (ylo, yhi), (zlo, zhi) = self._box
        self.shape = lz, ly, lx = (zhi - zlo, yhi - ylo, xhi - xlo)
        # flattened pad: the box's cells from first to last, ring columns
        # between them included, are one slice of ``_span`` per plane
        layer, row = (ly + 2) * (lx + 2), lx + 2
        self._span = ((lz - 1) * layer + (ly - 1) * row + lx
                      if lz and ly and lx else 0)
        self._starts = [(1 + dz) * layer + (1 + dy) * row + 1 + dx
                        for dz, dy, dx in _OFFSETS]
        self._scratch = np.empty(self._span)

    def _held(self, plane: np.ndarray, inside: tuple):
        """``plane`` (``(lz, ly, lx)``) as one float ``c`` when ``c`` is
        finite and every cell in ``inside`` holds exactly ``c``'s bits
        (``0.0`` when none does), else a copy in the pad's layout."""
        cells = plane[inside]
        if cells.size == 0:
            return 0.0
        bits = cells.view(np.uint64)
        if np.isfinite(cells.flat[0]) and (bits == bits.flat[0]).all():
            return float(cells.flat[0])
        lz, ly, lx = self.shape
        out = np.zeros((lz, ly + 2, lx + 2))
        out[:, :ly, :lx] = plane
        return out.reshape(-1)[:self._span].copy()

    def _cells(self, plane: np.ndarray) -> np.ndarray:
        """An array plane's ``(lz, ly, lx)`` box cells, out of the pad's
        layout."""
        lz, ly, lx = self.shape
        out = np.zeros(lz * (ly + 2) * (lx + 2))
        out[:self._span] = plane
        return out.reshape(lz, ly + 2, lx + 2)[:, :ly, :lx]

    def _inside(self):
        """Per plane, the local cells whose neighbour is inside the grid."""
        return [_inside(self._grid, self._box, o) for o in _OFFSETS]

    def sub(self, box, nnz: int) -> "StencilBlock":
        """The block of a sub-``box`` of this one, without the CSR.

        Bitwise the block a fresh cut of the same trio would build, given
        the ``nnz`` the box's rows store: float planes stay floats (``0.0``
        where no cell of the box has the neighbour inside the grid), and
        array planes are sliced, copied and held again by the same rule.
        """
        out = StencilBlock.__new__(StencilBlock)
        out._frame(self._grid, box)
        (xlo, xhi), (ylo, yhi), (zlo, zhi) = out._box
        (oxlo, _), (oylo, _), (ozlo, _) = self._box
        window = (slice(zlo - ozlo, zhi - ozlo), slice(ylo - oylo, yhi - oylo),
                  slice(xlo - oxlo, xhi - oxlo))
        out.planes = []
        for plane, inside in zip(self.planes, out._inside()):
            if isinstance(plane, float):
                empty = any(s.start >= s.stop for s in inside)
                out.planes.append(0.0 if empty else plane)
            else:
                out.planes.append(
                    out._held(self._cells(plane)[window], inside))
        out.nnz = int(nnz)
        return out

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_scratch"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._scratch = np.empty(self._span)

    def matvec(self, pad: np.ndarray) -> np.ndarray:
        """``y = sum_k planes[k] * pad[view k]`` in plane order, flattened.

        ``y`` and every array plane live in the pad's own layout, so each
        plane is one contiguous multiply and add over ``_span`` cells of
        the flattened pad, from its neighbour's start; the sums this also
        forms in the ring columns are dropped.
        """
        lz, ly, lx = self.shape
        y = np.zeros((lz, ly + 2, lx + 2))
        span = self._span
        flat, ys = pad.reshape(-1), y.reshape(-1)[:span]
        scratch = self._scratch
        for plane, start in zip(self.planes, self._starts):
            np.multiply(plane, flat[start:start + span], out=scratch)
            np.add(ys, scratch, out=ys)
        return y[:, :ly, :lx].reshape(-1)
