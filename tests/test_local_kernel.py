"""The local sparse kernels' contracts, by name.

``repro.sparse.kernels.CompressedBlock`` is the one place a compressed
block meets a vector.  Its contract is a summation order -- each major line
summed left to right in storage order from zero (``matvec``), products
scattered in storage order into zeros (``rmatvec``) -- so the oracle here is
the explicit Python loop that *is* that definition, compared bitwise.  The
scipy case is the net a later kernel-body swap lands on.
``StencilBlock`` (the subcube operator's kernel) is held to its own loop --
ascending neighbour offset from zero -- and to ``CompressedBlock`` itself.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.sparse import CSCMatrix, CSRMatrix, nas_cg_style, stencil27
from repro.sparse.kernels import CompressedBlock, StencilBlock


# ------------------------------------------------------------------ #
# the definition
# ------------------------------------------------------------------ #
def loop_matvec(indptr, indices, data, x, lo, hi):
    y = np.zeros(hi - lo)
    for i in range(lo, hi):
        acc = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            acc = acc + data[k] * x[indices[k]]
        y[i - lo] = acc
    return y


def loop_rmatvec(indptr, indices, data, x_local, lo, hi, n):
    y = np.zeros(n)
    for i in range(lo, hi):
        for k in range(indptr[i], indptr[i + 1]):
            y[indices[k]] = y[indices[k]] + data[k] * x_local[i - lo]
    return y


def _vector(n, seed=0):
    # wide dynamic range so a different summation order shows in the bits
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)


def _check_block(A, lo, hi, seed=0):
    block = CompressedBlock(A.indptr, A.indices, A.data, lo, hi)
    x = _vector(A.ncols, seed)
    assert block.matvec(x).tobytes() == loop_matvec(
        A.indptr, A.indices, A.data, x, lo, hi).tobytes()
    xl = _vector(hi - lo, seed + 1)
    assert block.rmatvec(xl, A.ncols).tobytes() == loop_rmatvec(
        A.indptr, A.indices, A.data, xl, lo, hi, A.ncols).tobytes()
    return block


MATRICES = {
    "nas_cg_style": lambda: nas_cg_style(120, seed=3),
    "stencil27": lambda: stencil27(5, 4, 3),
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_whole_matrix_matches_the_loop(name):
    A = MATRICES[name]()
    block = _check_block(A, 0, A.nrows)
    assert block.nnz == A.nnz and block.nmajor == A.nrows


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_rectangular_half_blocks_match_the_loop(name):
    A = MATRICES[name]()
    half = A.nrows // 2
    _check_block(A, 0, half)
    _check_block(A, half, A.nrows, seed=5)


def test_zero_row_block():
    # p > n leaves ranks with no rows: an empty range anywhere in the matrix
    A = MATRICES["nas_cg_style"]()
    for at in (0, 7, A.nrows):
        block = _check_block(A, at, at)
        assert block.nnz == 0 and block.matvec(np.ones(A.ncols)).shape == (0,)
        assert not block.rmatvec(np.zeros(0), A.ncols).any()


def test_unsorted_and_duplicate_indices_within_a_row():
    indptr = np.array([0, 4, 4, 7])
    indices = np.array([2, 0, 2, 1, 3, 3, 0])
    data = np.array([1e16, 1.0, -1e16, 3.0, 0.1, 0.2, 0.3])
    x = np.array([1.0, 1.0, 1.0, 1.0])
    block = CompressedBlock(indptr, indices, data)
    # storage order: (1e16 + 1) - 1e16 + 3, not the sorted-column order
    assert block.matvec(x).tolist() == [3.0, 0.0, (0.1 + 0.2) + 0.3]
    assert block.matvec(x).tobytes() == loop_matvec(
        indptr, indices, data, x, 0, 3).tobytes()
    xl = np.array([1.0, 5.0, 2.0])
    assert block.rmatvec(xl, 4).tobytes() == loop_rmatvec(
        indptr, indices, data, xl, 0, 3, 4).tobytes()


def test_already_sliced_local_indptr():
    # gathered rows with their own pointer
    A = MATRICES["stencil27"]()
    rows = np.array([3, 17, 4, 59])
    counts = A.indptr[rows + 1] - A.indptr[rows]
    lptr = np.concatenate(([0], np.cumsum(counts)))
    pick = np.concatenate([np.arange(A.indptr[r], A.indptr[r + 1]) for r in rows])
    block = CompressedBlock(lptr, A.indices[pick], A.data[pick])
    x = _vector(A.ncols)
    assert block.matvec(x).tobytes() == A.matvec(x)[rows].tobytes()


def test_handle_holds_views_and_sees_in_place_updates():
    A = nas_cg_style(40, seed=1)
    block = CompressedBlock(A.indptr, A.indices, A.data, 10, 30)
    assert np.shares_memory(block.data, A.data)
    assert np.shares_memory(block.indices, A.indices)
    x = np.ones(A.ncols)
    before = block.matvec(x)
    A.data *= 2.0
    assert block.matvec(x).tobytes() == (2.0 * before).tobytes()


# ------------------------------------------------------------------ #
# the matrix classes on top of it: behaviour unchanged
# ------------------------------------------------------------------ #
def test_matrix_products_in_all_four_directions():
    A = MATRICES["nas_cg_style"]()
    x = _vector(A.nrows)
    want = loop_matvec(A.indptr, A.indices, A.data, x, 0, A.nrows)
    want_t = loop_rmatvec(A.indptr, A.indices, A.data, x, 0, A.nrows, A.ncols)
    At = A.transpose()  # the same trio read as CSC
    assert isinstance(At, CSCMatrix)
    assert A.matvec(x).tobytes() == want.tobytes()
    assert A.rmatvec(x).tobytes() == want_t.tobytes()
    assert At.rmatvec(x).tobytes() == want.tobytes()
    assert At.matvec(x).tobytes() == want_t.tobytes()
    assert np.array_equal(A.expanded_rows(), At.expanded_cols())


@pytest.mark.parametrize("make,dtype", [
    (lambda n: np.arange(n) + 1j, np.complex128),
    (lambda n: np.arange(n), np.float64),
    (lambda n: np.arange(n) % 2 == 0, np.float64),
    (lambda n: np.arange(2.0 * n)[::2], np.float64),
    (lambda n: [float(i) for i in range(n)], np.float64),
])
def test_operand_kinds_keep_their_result_dtype(make, dtype):
    A = CSRMatrix([0, 2, 3, 5], [0, 2, 1, 0, 2], [1.0, 2.0, 3.0, 4.0, 5.0],
                  shape=(3, 3))
    x = make(3)
    dense = A.toarray()
    for got, want in ((A.matvec(x), dense @ np.asarray(x)),
                      (A.rmatvec(x), dense.T @ np.asarray(x))):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_two_dimensional_operand_is_rejected():
    A = CSRMatrix([0, 1, 2], [0, 1], [1.0, 1.0], shape=(2, 2))
    for bad in (np.ones((2, 1)), np.ones((2, 2)), np.ones(3)):
        with pytest.raises(ValueError):
            A.matvec(bad)
        with pytest.raises(ValueError):
            A.rmatvec(bad)


# ------------------------------------------------------------------ #
# what a kernel-body swap must still satisfy
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_scipy_csr_products_are_bitwise_the_kernel(name):
    """The benchmark operators at reduced size, full and half block, both
    directions: an FMA-contracting or re-associating build fails here and
    not in 235 trajectory goldens."""
    from scipy.sparse import csr_matrix

    A = {"nas_cg_style": lambda: nas_cg_style(2000, seed=3),
         "stencil27": lambda: stencil27(10, 10, 10)}[name]()
    half = A.nrows // 2
    for lo, hi in ((0, A.nrows), (0, half), (half, A.nrows)):
        block = CompressedBlock(A.indptr, A.indices, A.data, lo, hi)
        S = csr_matrix(
            (block.data, block.indices, A.indptr[lo:hi + 1] - A.indptr[lo]),
            shape=(hi - lo, A.ncols),
        )
        x, xl = _vector(A.ncols), _vector(hi - lo, seed=1)
        assert (S @ x).tobytes() == block.matvec(x).tobytes()
        assert (S.T @ xl).tobytes() == block.rmatvec(xl, A.ncols).tobytes()


def test_row_block_solve_never_imports_scipy():
    """``cg_rowblock_proc/peak_rss_mib`` has no room for the ~28 MiB that
    importing ``scipy.sparse`` costs (DESIGN.md, "Local kernel")."""
    code = (
        "import sys, numpy as np\n"
        "from repro.backend import backend_solve\n"
        "from repro.sparse import nas_cg_style\n"
        "A = nas_cg_style(300, seed=1)\n"
        "res = backend_solve('cg', A, np.ones(A.nrows), nprocs=2)\n"
        "A.matvec(np.ones(A.nrows))\n"
        "assert res.converged\n"
        "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------------ #
# the stencil kernel: 27 coefficient planes over a padded box
# ------------------------------------------------------------------ #
def _offset(shape, row, col):
    """``(dz, dy, dx)`` from grid coordinates: ``col - row`` aliases once
    ``nx`` or ``ny`` is 2 or less."""
    nx, ny, _ = shape
    (rz, ry, rx), (cz, cy, cx) = (
        (i // (nx * ny), i // nx % ny, i % nx) for i in (row, col))
    return cz - rz, cy - ry, cx - rx


def loop_stencil(A, shape, box, x):
    """Each box row summed from zero over the 27 offsets in ascending
    ``(dz, dy, dx)``; an absent entry or an off-grid neighbour adds ``c * 0``."""
    nx, ny, nz = shape
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
    y = []
    for iz in range(zlo, zhi):
        for iy in range(ylo, yhi):
            for ix in range(xlo, xhi):
                row = (iz * ny + iy) * nx + ix
                coef = {}
                for k in range(A.indptr[row], A.indptr[row + 1]):
                    coef[_offset(shape, row, A.indices[k])] = A.data[k]
                acc = 0.0
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            jz, jy, jx = iz + dz, iy + dy, ix + dx
                            inside = (0 <= jz < nz and 0 <= jy < ny
                                      and 0 <= jx < nx)
                            v = x[(jz * ny + jy) * nx + jx] if inside else 0.0
                            acc = acc + coef.get((dz, dy, dx), 0.0) * v
                y.append(acc)
    return np.array(y)


def padded(x, shape, box):
    """The box grown by one cell per face, zero off the grid."""
    nx, ny, nz = shape
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
    pad = np.zeros((zhi - zlo + 2, yhi - ylo + 2, xhi - xlo + 2))
    grid = x.reshape(nz, ny, nx)
    for iz in range(max(zlo - 1, 0), min(zhi + 1, nz)):
        for iy in range(max(ylo - 1, 0), min(yhi + 1, ny)):
            for ix in range(max(xlo - 1, 0), min(xhi + 1, nx)):
                pad[iz - zlo + 1, iy - ylo + 1, ix - xlo + 1] = grid[iz, iy, ix]
    return pad


def random_stencil(shape, seed, keep=1.0):
    """stencil27's pattern with wide-range random coefficients; ``keep < 1``
    drops entries at random (absent neighbours inside the grid)."""
    A = stencil27(*shape)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-6, 7, A.nnz)
    mask = rng.random(A.nnz) < keep
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))[mask]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                        minlength=A.nrows))))
    return CSRMatrix(indptr, A.indices[mask], data[mask], shape=A.shape)


def _faces_touched(shape, box):
    return sum((lo == 0) + (hi == dim) for (lo, hi), dim in zip(box, shape))


#: (grid shape, box): every count of touched global faces from 0 to 6, and
#: grids with an axis of 1 or 2
STENCIL_BOXES = [
    ((5, 4, 3), ((1, 4), (1, 3), (1, 2))),
    ((5, 4, 3), ((0, 4), (1, 3), (1, 2))),
    ((5, 4, 3), ((0, 5), (1, 3), (1, 2))),
    ((5, 4, 3), ((0, 5), (0, 3), (1, 2))),
    ((5, 4, 3), ((0, 5), (0, 4), (1, 2))),
    ((5, 4, 3), ((0, 5), (0, 4), (0, 2))),
    ((5, 4, 3), ((0, 5), (0, 4), (0, 3))),
    ((5, 4, 3), ((2, 3), (1, 2), (1, 2))),
    ((1, 2, 5), ((0, 1), (0, 2), (1, 4))),
    ((2, 1, 2), ((0, 2), (0, 1), (0, 2))),
    ((2, 2, 2), ((1, 2), (0, 1), (1, 2))),
    ((2, 5, 1), ((0, 2), (1, 4), (0, 1))),
    ((4, 2, 3), ((1, 3), (0, 2), (1, 2))),
]


def test_stencil_boxes_touch_every_face_count():
    touched = {_faces_touched(shape, box) for shape, box in STENCIL_BOXES}
    assert touched == set(range(7))


@pytest.mark.parametrize("shape,box", STENCIL_BOXES)
@pytest.mark.parametrize("keep", [1.0, 0.6])
def test_stencil_block_is_bitwise_the_loop_and_compressed_block(
        shape, box, keep):
    nx, ny, nz = shape
    A = random_stencil(shape, seed=sum(shape) + int(10 * keep), keep=keep)
    x = _vector(A.ncols, seed=3)
    block = StencilBlock(A.indptr, A.indices, A.data, shape, box)
    got = block.matvec(padded(x, shape, box))
    assert got.tobytes() == loop_stencil(A, shape, box, x).tobytes()
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
    rows = np.arange(A.nrows).reshape(nz, ny, nx)[
        zlo:zhi, ylo:yhi, xlo:xhi].ravel()
    counts = np.diff(A.indptr)[rows]
    pick = np.concatenate(
        [np.arange(A.indptr[r], A.indptr[r + 1]) for r in rows])
    crs = CompressedBlock(np.concatenate(([0], np.cumsum(counts))),
                          A.indices[pick], A.data[pick])
    assert got.tobytes() == crs.matvec(x).tobytes()
    assert block.nnz == crs.nnz


def test_stencil_block_is_bitwise_the_matrix_at_benchmark_shape():
    A = random_stencil((12, 10, 8), seed=7)
    x = _vector(A.ncols, seed=8)
    full = ((0, 12), (0, 10), (0, 8))
    want = A.matvec(x)
    for box in (full, ((0, 12), (0, 10), (4, 8)), ((3, 9), (2, 7), (1, 5))):
        block = StencilBlock(A.indptr, A.indices, A.data, (12, 10, 8), box)
        (xlo, xhi), (ylo, yhi), (zlo, zhi) = box
        rows = np.arange(A.nrows).reshape(8, 10, 12)[
            zlo:zhi, ylo:yhi, xlo:xhi].ravel()
        got = block.matvec(padded(x, (12, 10, 8), box))
        assert got.tobytes() == want[rows].tobytes()


def test_stencil_block_sums_signed_zeros_from_plus_zero():
    """All products ``-0.0`` (negative coefficients times zeros) sum to
    ``+0.0``, as the loop and ``CompressedBlock`` do."""
    shape, box = (4, 3, 3), ((1, 3), (0, 2), (1, 2))
    A = random_stencil(shape, seed=2)
    A.data[:] = -np.abs(A.data)
    x = np.zeros(A.ncols)
    got = StencilBlock(A.indptr, A.indices, A.data, shape, box).matvec(
        padded(x, shape, box))
    assert got.tobytes() == loop_stencil(A, shape, box, x).tobytes()
    assert not np.signbit(got).any()


def _holds_a_copy_and_returns_a_fresh_vector(A, arrays):
    box = ((0, 4), (0, 3), (0, 2))
    block = StencilBlock(A.indptr, A.indices, A.data, (4, 3, 2), box)
    assert len(block.planes) == 27
    held = [p for p in block.planes if isinstance(p, np.ndarray)]
    assert len(held) == arrays
    for plane in held:
        # the box's cells in the pad's (2, 3+2, 2+4) row layout, from the
        # first to the last
        assert plane.shape == (1 * 5 * 6 + 2 * 6 + 4,)
        assert not np.shares_memory(plane, A.data)
    pad = padded(np.ones(A.nrows), (4, 3, 2), box)
    first = block.matvec(pad)
    second = block.matvec(pad)
    assert first is not second and first.tobytes() == second.tobytes()
    A.data *= 2.0
    assert block.matvec(pad).tobytes() == first.tobytes()


def test_stencil_block_holds_a_copy_and_returns_a_fresh_vector():
    """Varying coefficients: every plane an array, none a view."""
    _holds_a_copy_and_returns_a_fresh_vector(
        random_stencil((4, 3, 2), seed=6), arrays=27)


def test_constant_stencil_block_holds_floats_and_returns_a_fresh_vector():
    _holds_a_copy_and_returns_a_fresh_vector(stencil27(4, 3, 2), arrays=0)


def test_empty_box():
    A = stencil27(3)
    block = StencilBlock(A.indptr, A.indices, A.data, (3, 3, 3),
                         ((3, 3), (0, 3), (0, 3)))
    assert block.nnz == 0
    assert block.matvec(np.zeros((5, 5, 2))).shape == (0,)


def with_extra_entry(A, row, col, value=-0.5):
    """``A``'s CSR trio plus one entry ``(row, col)`` at the end of its row;
    ``col`` may lie off the matrix."""
    at = A.indptr[row + 1]
    indptr = A.indptr.copy()
    indptr[row + 1:] += 1
    return (indptr, np.insert(A.indices, at, col),
            np.insert(A.data, at, value))


@pytest.mark.parametrize("shape,row,col", [
    ((5, 4, 3), 0, 50),      # far away
    ((5, 4, 3), 4, 5),       # col = row + 1 wraps to the next grid line
    ((3, 2, 3), 5, 6),       # col - row = 1, yet the offset is (1, -1, -2)
    ((5, 4, 3), 59, 79),     # one layer past the grid: an off-grid (1, 0, 0)
])
def test_stencil_block_rejects_an_entry_outside_the_neighbourhood(
        shape, row, col):
    trio = with_extra_entry(stencil27(*shape), row, col)
    nx, ny, nz = shape
    with pytest.raises(ValueError, match=rf"row {row} .*column {col}\b"):
        StencilBlock(*trio, shape, ((0, nx), (0, ny), (0, nz)))


def test_stencil_block_rejects_two_entries_at_one_offset():
    trio = with_extra_entry(stencil27(5, 4, 3), 7, 8)
    with pytest.raises(ValueError, match=r"row 7 stores column 8 "):
        StencilBlock(*trio, (5, 4, 3), ((0, 5), (0, 4), (0, 3)))
    # a box without row 7 never reads it
    StencilBlock(*trio, (5, 4, 3), ((0, 5), (0, 4), (1, 3)))


def rebuild_read_only(obj):
    """``obj`` through protocol 5, rebuilt over read-only copies of every
    out-of-band buffer, as a warm-pool rank rebuilds a dispatched program."""
    buffers = []
    data = pickle.dumps(obj, 5, buffer_callback=buffers.append)
    return pickle.loads(data, buffers=[bytes(b.raw()) for b in buffers])


def _rebuilt_over_read_only_buffers_applies_bitwise(A, arrays):
    shape = (12, 10, 8)
    box = ((0, 12), (0, 10), (2, 8))
    block = StencilBlock(A.indptr, A.indices, A.data, shape, box)
    clone = rebuild_read_only(block)
    held = [p for p in clone.planes if isinstance(p, np.ndarray)]
    assert len(held) == arrays
    assert not any(plane.flags.writeable for plane in held)
    for seed in (1, 2):
        pad = padded(_vector(A.ncols, seed), shape, box)
        assert clone.matvec(pad).tobytes() == block.matvec(pad).tobytes()


def test_stencil_block_rebuilt_over_read_only_buffers_applies_bitwise():
    """Varying coefficients: every plane an array, rebuilt read-only."""
    _rebuilt_over_read_only_buffers_applies_bitwise(
        random_stencil((12, 10, 8), seed=4), arrays=27)


def test_constant_stencil_block_rebuilt_over_read_only_buffers_applies():
    _rebuilt_over_read_only_buffers_applies_bitwise(
        stencil27(12, 10, 8), arrays=0)


# ------------------------------------------------------------------ #
# constant planes held as one float
# ------------------------------------------------------------------ #
def as_array_planes(block):
    """A copy of ``block`` with every float plane spelled out as the array
    a plane-per-cell build holds: ``c`` where the neighbour is inside the
    grid, 0 where it is not, in the pad's layout."""
    lz, ly, lx = block.shape
    out = pickle.loads(pickle.dumps(block))
    out.planes = []
    for plane, inside in zip(block.planes, block._inside()):
        if isinstance(plane, float):
            full = np.zeros((lz, ly + 2, lx + 2))
            full[:, :ly, :lx][inside] = plane
            plane = full.reshape(-1)[:block._span]
        out.planes.append(plane)
    return out


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


def with_plane(A, shape, offset, values):
    """``A`` with the coefficient at neighbour ``offset`` of every row set
    from ``values(rows)``."""
    nx, ny, _ = shape
    rows = A.expanded_rows()
    cols = A.indices
    dz, dy, dx = offset
    at = cols - rows == (dz * ny + dy) * nx + dx
    # the column difference aliases on thin grids: check the coordinates
    rz, ry, rx = rows // (nx * ny), rows // nx % ny, rows % nx
    cz, cy, cx = cols // (nx * ny), cols // nx % ny, cols % nx
    at &= (cz - rz == dz) & (cy - ry == dy) & (cx - rx == dx)
    data = A.data.copy()
    data[at] = values(rows[at])
    return CSRMatrix(A.indptr, A.indices, data, shape=A.shape)


def _plane_index(offset):
    dz, dy, dx = offset
    return 9 * (dz + 1) + 3 * (dy + 1) + (dx + 1)


def scalar_cases(shape):
    """``name -> (matrix, {plane: "float" | "array"})`` on ``shape``."""
    base = stencil27(*shape)
    rng = np.random.default_rng(sum(shape))
    varied = ((0, 0, 1), (1, -1, 0), (-1, -1, -1))
    mixed = base
    for offset in varied:
        mixed = with_plane(mixed, shape, offset,
                           lambda r: rng.standard_normal(r.size))
    kinds = {_plane_index(o): "array" for o in varied}
    kinds.update({_plane_index((0, 0, 0)): "float",
                  _plane_index((1, 1, 1)): "float"})
    cases = {"mixed": (mixed, kinds)}
    cases["one-cell"] = (with_plane(
        base, shape, (0, 0, 1),
        lambda r: np.where(np.arange(r.size) == r.size // 2, -0.75,
                           -1.0)),
        {_plane_index((0, 0, 1)): "array", _plane_index((0, 0, -1)): "float"})
    cases["minus-zero"] = (with_plane(
        base, shape, (0, 1, 0), lambda r: np.full(r.size, -0.0)),
        {_plane_index((0, 1, 0)): "float"})
    cases["one-minus-zero"] = (with_plane(
        base, shape, (0, 1, 0),
        lambda r: np.where(np.arange(r.size) == 0, -0.0, 0.0)),
        {_plane_index((0, 1, 0)): "array"})
    for bad in (np.inf, -np.inf, np.nan):
        cases[f"constant-{bad}"] = (with_plane(
            base, shape, (1, 0, 0), lambda r, v=bad: np.full(r.size, v)),
            {_plane_index((1, 0, 0)): "array",
             _plane_index((0, 0, 0)): "float"})
    cases["stencil27"] = (base, {k: "float" for k in range(27)})
    return cases


SCALAR_CASES = list(scalar_cases((5, 4, 3)))


@pytest.mark.parametrize("name", SCALAR_CASES)
def test_each_plane_is_held_by_the_rule(name):
    shape = (5, 4, 3)
    A, kinds = scalar_cases(shape)[name]
    block = StencilBlock(A.indptr, A.indices, A.data, shape,
                         ((0, 5), (0, 4), (0, 3)))
    for k, kind in kinds.items():
        plane = block.planes[k]
        assert isinstance(plane, float if kind == "float" else np.ndarray), k
    if name == "minus-zero":
        assert _bits(block.planes[_plane_index((0, 1, 0))]) == _bits(-0.0)


@pytest.mark.parametrize("shape,box", STENCIL_BOXES)
@pytest.mark.parametrize("name", SCALAR_CASES)
def test_float_planes_are_bitwise_the_array_form(shape, box, name):
    """Every held form on boxes touching 0-6 global faces, thin grids too,
    against the same block with its float planes spelled out; the operand
    holds infinities, NaN and signed zeros inside the grid.  Every bit is
    the same except a NaN's sign and payload, which numpy does not fix
    when two NaNs meet in one addition."""
    A, _ = scalar_cases(shape)[name]
    block = StencilBlock(A.indptr, A.indices, A.data, shape, box)
    spelled = as_array_planes(block)
    x = _vector(A.ncols, seed=5)
    x[::7] = -0.0
    x[3::11] = np.inf
    x[5::13] = np.nan
    with np.errstate(invalid="ignore"):
        for v in (x, _vector(A.ncols, seed=6)):
            pad = padded(v, shape, box)
            got, want = block.matvec(pad), spelled.matvec(pad)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()
            if np.isfinite(v).all() and np.isfinite(A.data).all():
                want = loop_stencil(A, shape, box, v)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_constant_planes_stay_arrays(bad):
    """``inf * 0`` is NaN: held as a float, a non-finite constant would
    poison every row whose neighbour is off the grid."""
    shape, box = (5, 4, 3), ((0, 5), (0, 4), (0, 3))
    A = with_plane(stencil27(*shape), shape, (1, 0, 0),
                   lambda r: np.full(r.size, bad))
    block = StencilBlock(A.indptr, A.indices, A.data, shape, box)
    assert isinstance(block.planes[_plane_index((1, 0, 0))], np.ndarray)
    x = _vector(A.ncols, seed=2)
    with np.errstate(invalid="ignore"):
        got = block.matvec(padded(x, shape, box))
    # the top layer has no neighbour above: its rows stay finite
    assert np.isfinite(got.reshape(3, 4, 5)[-1]).all()
    with np.errstate(invalid="ignore"):
        want = loop_stencil(A, shape, box, x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()


def off_grid(block) -> np.ndarray:
    """The pad cells of ``block`` that lie outside its grid."""
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = block._box
    nx, ny, nz = block._grid
    z, y, x = np.ix_(np.arange(zlo - 1, zhi + 1), np.arange(ylo - 1, yhi + 1),
                     np.arange(xlo - 1, xhi + 1))
    return ((z < 0) | (z >= nz)) | ((y < 0) | (y >= ny)) | ((x < 0) | (x >= nx))


@pytest.fixture
def ring_watch(monkeypatch):
    """Every ``StencilBlock.matvec`` call checks its pad holds zeros
    outside the grid; returns the list of blocks seen."""
    seen = []
    inner = StencilBlock.matvec

    def matvec(self, pad):
        assert pad.shape == tuple(s + 2 for s in self.shape)
        ring = pad[off_grid(self)]
        assert not ring.any(), "a pad cell outside the grid is not zero"
        seen.append(self)
        return inner(self, pad)

    monkeypatch.setattr(StencilBlock, "matvec", matvec)
    return seen


@pytest.mark.parametrize("precond", ["none", "jacobi", "mg"])
@pytest.mark.parametrize("nprocs", [1, 2, 8])
def test_no_pad_cell_outside_the_grid_is_ever_written(ring_watch, precond,
                                                      nprocs):
    """The subcube operator's pads (halo and replicated rings) and the
    multigrid levels' residual pads, through whole solves."""
    from repro.hpcg import hpcg_solve
    from repro.hpf.distribution import Grid3DBlock

    shape = (8, 8, 12)
    res = hpcg_solve(shape, nprocs=nprocs, precond=precond, maxiter=4)
    assert res.iterations >= 1
    grids = {block._grid for block in ring_watch}
    assert shape in grids
    if precond == "mg":
        assert (4, 4, 6) in grids  # a coarse level's residual
    layout = Grid3DBlock(shape, nprocs)
    ranks = {layout.local_box(r) for r in range(nprocs)}
    assert ranks <= {block._box for block in ring_watch}
