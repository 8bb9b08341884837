"""Tests for the preconditioner family."""

import numpy as np
import pytest

from repro.core import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    NeumannPreconditioner,
    SSORPreconditioner,
    StoppingCriterion,
    cg_reference,
    pcg_reference,
)
from repro.hpcg import MultigridPreconditioner, hpcg_solve
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    nas_cg_style,
    poisson1d,
    poisson2d,
    rhs_for_solution,
    stencil27,
)

TIGHT = StoppingCriterion(rtol=1e-10, maxiter=2000)


@pytest.fixture
def ill_conditioned():
    """A diagonally scaled Poisson system: Jacobi helps a lot here."""
    A = poisson2d(8, 8).to_coo()
    n = 64
    scales = np.logspace(0, 3, n)
    rows, cols, data = A.rows, A.cols, A.data
    scaled = data * scales[rows] * scales[cols]
    return COOMatrix(rows, cols, scaled, (n, n)).to_csr()


class TestIdentity:
    def test_identity_is_noop(self, rng):
        p = IdentityPreconditioner(10)
        r = rng.standard_normal(10)
        assert np.allclose(p.solve(r), r)
        assert p.flops_per_apply == 0.0
        assert p.parallel

    def test_pcg_with_identity_equals_cg(self, spd_medium, rng):
        b = rng.standard_normal(spd_medium.nrows)
        plain = cg_reference(spd_medium, b, criterion=TIGHT)
        ident = pcg_reference(
            spd_medium, b, IdentityPreconditioner(spd_medium.nrows), criterion=TIGHT
        )
        assert abs(plain.iterations - ident.iterations) <= 1


class TestJacobi:
    def test_solve_is_diagonal_scaling(self, spd_small, rng):
        p = JacobiPreconditioner(spd_small)
        r = rng.standard_normal(spd_small.nrows)
        assert np.allclose(p.solve(r), r / spd_small.diagonal())

    def test_reduces_iterations_on_ill_conditioned(self, ill_conditioned, rng):
        xt = rng.standard_normal(64)
        b = rhs_for_solution(ill_conditioned, xt)
        plain = cg_reference(ill_conditioned, b, criterion=TIGHT)
        jac = pcg_reference(
            ill_conditioned, b, JacobiPreconditioner(ill_conditioned), criterion=TIGHT
        )
        assert jac.converged
        assert jac.iterations < plain.iterations
        assert np.allclose(jac.x, xt, atol=1e-5)

    def test_zero_diagonal_rejected(self):
        m = COOMatrix([0, 1], [1, 0], [1.0, 1.0], shape=(2, 2))
        with pytest.raises(ValueError):
            JacobiPreconditioner(m)

    def test_parallel_flag(self, spd_small):
        assert JacobiPreconditioner(spd_small).parallel


class TestSSOR:
    def test_reduces_iterations_vs_jacobi(self, spd_medium, rng):
        xt = rng.standard_normal(spd_medium.nrows)
        b = rhs_for_solution(spd_medium, xt)
        jac = pcg_reference(spd_medium, b, JacobiPreconditioner(spd_medium), criterion=TIGHT)
        ssor = pcg_reference(spd_medium, b, SSORPreconditioner(spd_medium), criterion=TIGHT)
        assert ssor.converged
        assert ssor.iterations < jac.iterations
        assert np.allclose(ssor.x, xt, atol=1e-5)

    def test_omega_range_validated(self, spd_small):
        with pytest.raises(ValueError):
            SSORPreconditioner(spd_small, omega=0.0)
        with pytest.raises(ValueError):
            SSORPreconditioner(spd_small, omega=2.0)

    def test_serial_flag(self, spd_small):
        assert not SSORPreconditioner(spd_small).parallel

    def test_apply_is_spd_operator(self, spd_small, rng):
        """M^{-1} must be symmetric positive definite for PCG validity."""
        p = SSORPreconditioner(spd_small, omega=1.3)
        n = spd_small.nrows
        M_inv = np.column_stack([p.solve(e) for e in np.eye(n)])
        assert np.allclose(M_inv, M_inv.T, atol=1e-10)
        assert (np.linalg.eigvalsh((M_inv + M_inv.T) / 2) > 0).all()


def _spsolve_ssor(matrix, r, omega):
    """SSOR apply as two per-call ``spsolve_triangular`` sweeps (oracle)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve_triangular

    A = matrix.to_scipy().tocsr()
    d = A.diagonal()
    D = sp.diags(d)
    lower = (D / omega + sp.tril(A, k=-1)).tocsr()
    upper = (D / omega + sp.triu(A, k=1)).tocsr()
    y = spsolve_triangular(lower, r, lower=True)
    y = y * (d * ((2.0 - omega) / omega))
    return spsolve_triangular(upper, y, lower=False)


class TestSSORSweepParity:
    """The prepared sweeps are bitwise the per-call ``spsolve_triangular``.

    They hand SuperLU's private ``gstrs`` the operands that function builds;
    a scipy release that changes either side fails here first.
    """

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize(
        "make", [lambda: stencil27(32), lambda: stencil27(16),
                 lambda: stencil27(8), lambda: stencil27(4),
                 lambda: nas_cg_style(2000)],
        ids=["stencil27-32", "stencil27-16", "stencil27-8", "stencil27-4",
             "nas_cg_style-2000"])
    def test_bitwise_equal_to_spsolve_triangular(self, make, omega):
        A = make()
        r = np.random.default_rng(7).standard_normal(A.nrows)
        z = SSORPreconditioner(A, omega=omega).solve(r)
        ref = _spsolve_ssor(A, r, omega)
        np.testing.assert_array_equal(z.view(np.int64), ref.view(np.int64))

    def test_wrong_length_rejected(self, spd_small):
        p = SSORPreconditioner(spd_small)
        with pytest.raises(ValueError):
            p.solve(np.ones(spd_small.nrows + 1))

    def test_zero_diagonal_rejected(self):
        m = COOMatrix([0, 1], [1, 0], [1.0, 1.0], shape=(2, 2))
        with pytest.raises(ValueError, match="diagonal"):
            SSORPreconditioner(m)


def _scipy_sweep_operands(T, lower, invdiag):
    """The ``gstrs`` operands as scipy builds them for a CSR ``T`` (oracle)."""
    import scipy.sparse as sp

    n = T.shape[0]
    A = (T @ sp.diags_array(invdiag)).T
    A.sum_duplicates()
    if lower:
        L, U = sp.eye_array(n, format="csc"), A
        U.setdiag(0)
    else:
        L, U = A, sp.csc_array((n, n))
    return tuple(
        x for M in (L, U) for x in (
            n, M.nnz, M.data,
            M.indices.astype(np.intc), M.indptr.astype(np.intc),
        )
    )


def _scipy_ssor_state(matrix, omega):
    """What an SSOR instance holds, built through ``scipy.sparse`` (oracle)."""
    import scipy.sparse as sp

    A = matrix.to_scipy().tocsr()
    d = A.diagonal()
    D = sp.diags(d)
    lower = (D / omega + sp.tril(A, k=-1)).tocsr()
    upper = (D / omega + sp.triu(A, k=1)).tocsr()
    invdiag = 1.0 / lower.diagonal()
    return {
        "_invdiag": invdiag,
        "_forward": _scipy_sweep_operands(lower, True, invdiag),
        "_backward": _scipy_sweep_operands(upper, False, invdiag),
        "_d_scale": d * ((2.0 - omega) / omega),
        "_nnz": A.nnz,
        "_n": A.shape[0],
    }


def _same(got, want):
    """Equal type, and for arrays equal dtype, shape and bytes."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and got.shape == want.shape
                and got.tobytes() == want.tobytes())
    return type(got) is type(want) and got == want


def _tril_spd(n, seed):
    """A small SPD-ish CSR with random pattern, for perturbing below."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, 4 * n)
    cols = rng.integers(0, n, 4 * n)
    vals = rng.standard_normal(4 * n)
    sym = COOMatrix(np.concatenate((rows, cols, np.arange(n))),
                    np.concatenate((cols, rows, np.arange(n))),
                    np.concatenate((vals, vals, np.full(n, 20.0))),
                    shape=(n, n))
    return sym.to_csr()


def _with_entries(A, extra):
    """``A``'s entries plus ``(row, col, value)`` triples, each appended at
    the end of its row: unsorted, and a duplicate where the cell is held."""
    rows = list(A.expanded_rows())
    cols, data = list(A.indices), list(A.data)
    for r, c, v in extra:
        at = int(A.indptr[r + 1]) + sum(1 for rr, _, _ in extra if rr < r)
        rows.insert(at, r)
        cols.insert(at, c)
        data.insert(at, v)
    rows = np.array(rows)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                        minlength=A.nrows))))
    return CSRMatrix(indptr, np.array(cols), np.array(data), shape=A.shape)


def _corpus():
    yield "stencil27-6", stencil27(6)
    yield "stencil27-5x4x3", stencil27(5, 4, 3)
    yield "nas_cg_style-300", nas_cg_style(300, seed=2)
    yield "poisson1d-50", poisson1d(50)
    A = _tril_spd(40, seed=1)
    z = A.data.copy()
    off = A.expanded_rows() != A.indices
    z[np.flatnonzero(off)[::5]] = 0.0
    z[np.flatnonzero(off)[1::5]] = -0.0
    yield "explicit-zeros", CSRMatrix(A.indptr, A.indices, z, shape=A.shape)
    u = A.data.copy()
    # products with 1/d underflow to zero (or to subnormals) in the sweeps
    u[np.flatnonzero(off)[2::6]] = 5e-324
    u[np.flatnonzero(off)[3::6]] = -5e-324
    u[np.flatnonzero(off)[4::6]] = -3e-308
    yield "underflow", CSRMatrix(A.indptr, A.indices, u, shape=A.shape)
    yield "unsorted-duplicates", _with_entries(A, [
        (0, 0, 1.5), (3, 1, -0.25), (3, 1, 1e-17), (7, 30, 0.0),
        (9, 2, -0.0), (12, 12, -2.0), (39, 0, 3.0)])
    rows = A.expanded_rows()
    rng = np.random.default_rng(4)
    order = rng.permutation(A.nnz)
    yield "unsorted-coo", COOMatrix(
        np.concatenate((rows[order], [5, 5])),
        np.concatenate((A.indices[order], [6, 6])),
        np.concatenate((A.data[order], [0.5, -0.5])),
        shape=A.shape, sum_duplicates=False)


CORPUS = list(_corpus())


class TestSSOROperandParity:
    """The numpy-built sweep operands equal scipy's, dtype and bytes."""

    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("name,matrix", CORPUS,
                             ids=[name for name, _ in CORPUS])
    def test_operands_equal_the_scipy_build(self, name, matrix, omega):
        got = SSORPreconditioner(matrix, omega=omega)
        want = _scipy_ssor_state(matrix, omega)
        for attr, value in want.items():
            assert _same(getattr(got, attr), value), attr
        r = np.random.default_rng(9).standard_normal(matrix.nrows)
        np.testing.assert_array_equal(
            got.solve(r).view(np.int64),
            _spsolve_ssor(matrix, r, omega).view(np.int64))

    def test_corpus_holds_the_awkward_entries(self):
        kinds = dict(CORPUS)
        data = kinds["explicit-zeros"].data
        assert (data == 0).any() and np.signbit(data[data == 0]).any()
        # some products with 1/d vanish: the sweeps drop those entries
        under = kinds["underflow"]
        lower = np.count_nonzero(under.indices < under.expanded_rows())
        assert SSORPreconditioner(under)._forward[6] < lower + under.nrows
        dup = kinds["unsorted-duplicates"]
        key = dup.expanded_rows() * dup.ncols + dup.indices
        assert (np.diff(key) < 0).any() and (np.diff(key) == 0).any()

    def test_a_diagonal_zero_after_duplicates_sum_is_rejected(self):
        A = _with_entries(stencil27(3), [(4, 4, -26.0)])
        with pytest.raises(ValueError, match="zero-free diagonal"):
            SSORPreconditioner(A)


class TestNoPreparationPerApply:
    """Applies run on the operands prepared at construction only."""

    @staticmethod
    def _forbid_spsolve(monkeypatch):
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("spsolve_triangular called during an apply")

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", refuse)

    def test_multigrid_apply(self, monkeypatch):
        A = stencil27(8)
        mg = MultigridPreconditioner(A, (8, 8, 8))
        r = np.random.default_rng(3).standard_normal(A.nrows)
        want = mg.solve(r)
        self._forbid_spsolve(monkeypatch)
        np.testing.assert_array_equal(mg.solve(r), want)

    def test_ssor_pcg(self, spd_medium, monkeypatch):
        b = np.random.default_rng(4).standard_normal(spd_medium.nrows)
        want = pcg_reference(spd_medium, b, SSORPreconditioner(spd_medium))
        self._forbid_spsolve(monkeypatch)
        got = pcg_reference(spd_medium, b, SSORPreconditioner(spd_medium))
        assert got.iterations == want.iterations
        np.testing.assert_array_equal(got.x, want.x)

    def test_hpcg_mg_solve(self, monkeypatch):
        want = hpcg_solve(8, precond="mg", backend="simulated", nprocs=2)
        self._forbid_spsolve(monkeypatch)
        got = hpcg_solve(8, precond="mg", backend="simulated", nprocs=2)
        assert got.converged and got.iterations == want.iterations
        np.testing.assert_array_equal(got.x, want.x)


class TestNeumann:
    def test_order_zero_is_jacobi(self, spd_small, rng):
        r = rng.standard_normal(spd_small.nrows)
        nm = NeumannPreconditioner(spd_small, order=0)
        jc = JacobiPreconditioner(spd_small)
        assert np.allclose(nm.solve(r), jc.solve(r))

    def test_higher_order_reduces_iterations(self, spd_medium, rng):
        b = rng.standard_normal(spd_medium.nrows)
        it0 = pcg_reference(
            spd_medium, b, NeumannPreconditioner(spd_medium, 0), criterion=TIGHT
        ).iterations
        it2 = pcg_reference(
            spd_medium, b, NeumannPreconditioner(spd_medium, 2), criterion=TIGHT
        ).iterations
        assert it2 < it0

    def test_parallel_flag(self, spd_small):
        assert NeumannPreconditioner(spd_small).parallel

    def test_invalid_order(self, spd_small):
        with pytest.raises(ValueError):
            NeumannPreconditioner(spd_small, order=-1)

    def test_flops_grow_with_order(self, spd_small):
        f1 = NeumannPreconditioner(spd_small, 1).flops_per_apply
        f3 = NeumannPreconditioner(spd_small, 3).flops_per_apply
        assert f3 > f1
