"""The local sparse kernel's contract, by name.

``repro.sparse.kernels.CompressedBlock`` is the one place a compressed
block meets a vector.  Its contract is a summation order -- each major line
summed left to right in storage order from zero (``matvec``), products
scattered in storage order into zeros (``rmatvec``) -- so the oracle here is
the explicit Python loop that *is* that definition, compared bitwise.  The
scipy case at the end is the net a later kernel-body swap lands on.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sparse import CSCMatrix, CSRMatrix, nas_cg_style, stencil27
from repro.sparse.kernels import CompressedBlock


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
    # the subcube operator's spelling: gathered rows with their own pointer
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
