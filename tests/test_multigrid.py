"""Geometric multigrid preconditioner: V-cycle, hierarchy, CG coupling."""

import numpy as np
import pytest

from repro.backend import SimulatedBackend
from repro.core import (
    JacobiPreconditioner,
    StoppingCriterion,
    hpf_pcg,
    make_strategy,
    pcg_reference,
)
from repro.hpcg import MultigridPreconditioner, hpcg_solve
from repro.machine import Machine
from repro.sparse import CSRMatrix, rhs_for_solution, stencil27

from .test_local_kernel import rebuild_read_only, with_extra_entry

CRIT = StoppingCriterion(rtol=1e-8, maxiter=500)


@pytest.fixture(scope="module")
def fine():
    return stencil27(8)


@pytest.fixture(scope="module")
def mg(fine):
    return MultigridPreconditioner(fine, (8, 8, 8))


class TestHierarchy:
    def test_depth_from_cube(self, mg):
        # 8 -> 4 -> 2: coarsening stops when a dim would drop below 4's half
        assert mg.depth == 3
        assert [lvl.shape for lvl in mg.levels] == [
            (8, 8, 8), (4, 4, 4), (2, 2, 2)]

    def test_depth_cap(self, fine):
        shallow = MultigridPreconditioner(fine, (8, 8, 8), max_levels=2)
        assert shallow.depth == 2

    def test_odd_dims_stay_single_level(self):
        a = stencil27(5)
        assert MultigridPreconditioner(a, (5, 5, 5)).depth == 1

    def test_flops_per_apply_positive_and_dominated_by_fine(self, mg, fine):
        assert mg.flops_per_apply > 0
        # fine-level work alone (two smooths at 2*nnz + n each) dominates
        assert mg.flops_per_apply > 2 * (2.0 * fine.nnz + fine.nrows)

    def test_shape_mismatch_rejected(self, fine):
        with pytest.raises(ValueError, match="rows"):
            MultigridPreconditioner(fine, (4, 4, 4))

    def test_scipy_and_dense_inputs_apply_bitwise(self, fine, mg, rng):
        r = rng.standard_normal(fine.nrows)
        want = mg.solve(r)
        for form in (fine.to_scipy(), fine.toarray()):
            got = MultigridPreconditioner(form, (8, 8, 8)).solve(r)
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    def test_name_and_serial(self, mg):
        assert mg.name == "mg"
        assert not mg.parallel


class TestVCycle:
    def test_one_apply_reduces_residual(self, mg, fine, rng):
        b = rng.standard_normal(fine.nrows)
        x = mg.solve(b)
        assert np.linalg.norm(b - fine @ x) < 0.5 * np.linalg.norm(b)

    def test_spd_apply(self, mg, fine, rng):
        """M^{-1} acts like an SPD operator: r^T M^{-1} r > 0."""
        for _ in range(5):
            r = rng.standard_normal(fine.nrows)
            assert float(r @ mg.solve(r)) > 0.0

    def test_zero_maps_to_zero(self, mg, fine):
        np.testing.assert_array_equal(
            mg.solve(np.zeros(fine.nrows)), np.zeros(fine.nrows))


class TestMgAcceleratesCg:
    def test_fewer_iterations_than_jacobi_reference(self, fine, mg, rng):
        xt = rng.standard_normal(fine.nrows)
        b = rhs_for_solution(fine, xt)
        res_mg = pcg_reference(fine, b, mg, criterion=CRIT)
        res_j = pcg_reference(
            fine, b, JacobiPreconditioner(fine), criterion=CRIT)
        assert res_mg.converged and res_j.converged
        assert res_mg.iterations < res_j.iterations
        assert np.allclose(res_mg.x, xt, atol=1e-5)

    def test_plugs_into_hpf_pcg(self, fine, mg, rng):
        """MG rides hpf_pcg like SSOR: serialised charging, full convergence."""
        xt = rng.standard_normal(fine.nrows)
        b = rhs_for_solution(fine, xt)
        m = Machine(nprocs=4)
        res = hpf_pcg(
            make_strategy("csr_forall_aligned", m, fine), b, mg,
            criterion=CRIT)
        assert res.converged
        assert np.allclose(res.x, xt, atol=1e-5)
        assert res.extras["preconditioner"] == "mg"

    # exact CG iterations per cube side and preconditioner, the same at
    # p = 1 and 4.  stencil27's diagonal is the constant 26, so Jacobi is a
    # scaled identity and needs exactly the unpreconditioned count: the
    # order is mg < jacobi <= none, and jacobi < none cannot hold.
    HPCG_ITERATIONS = {
        8: {"none": 12, "jacobi": 12, "mg": 7},
        16: {"none": 24, "jacobi": 24, "mg": 12},
    }
    MG_DEPTH = {8: 3, 16: 4}

    @pytest.mark.parametrize("p", [1, 4])
    def test_hpcg_solve_mg_beats_jacobi(self, p):
        for shape, expected in self.HPCG_ITERATIONS.items():
            runs = {precond: hpcg_solve(shape, nprocs=p, precond=precond)
                    for precond in expected}
            assert all(res.converged for res in runs.values())
            assert {k: res.iterations for k, res in runs.items()} == expected
            hpcg = runs["mg"].extras["hpcg"]
            assert hpcg["mg_depth"] == self.MG_DEPTH[shape]
            assert hpcg["mg_flops_per_apply"] > 0


# ------------------------------------------------------------------ #
# the V-cycle's order and transfers, against the CSR formulation
# ------------------------------------------------------------------ #
def injection_ids(fine, coarse):
    """Fine-grid ids of the coarse points, in coarse row-major order."""
    nx, ny, _ = fine
    cnx, cny, cnz = coarse
    cz, cy, cx = np.meshgrid(np.arange(cnz), np.arange(cny), np.arange(cnx),
                             indexing="ij")
    return (((2 * cz) * ny + 2 * cy) * nx + 2 * cx).ravel()


def reference_vcycle(mg, matrices, lvl, r):
    """The V-cycle with ``CSRMatrix.matvec`` residuals and fancy-index
    injection, on ``mg``'s smoothers."""
    level = mg.levels[lvl]
    x = level.smoother.solve(r)
    if lvl == mg.depth - 1:
        return x
    ids = injection_ids(level.shape, mg.levels[lvl + 1].shape)
    res = r - matrices[lvl].matvec(x)
    x[ids] += reference_vcycle(mg, matrices, lvl + 1, res[ids])
    res = r - matrices[lvl].matvec(x)
    x += level.smoother.solve(res)
    return x


def varying_stencil(shape, seed=0):
    """stencil27 with every coefficient scaled by its own factor in
    [0.5, 1.5): the same pattern, no plane constant."""
    A = stencil27(*shape)
    scale = np.random.default_rng(seed).uniform(0.5, 1.5, A.nnz)
    return CSRMatrix(A.indptr, A.indices, A.data * scale, shape=A.shape)


def wide_range(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)


#: fine shape, the hierarchy below it, HPCG's ``flops_per_apply``
HIERARCHIES = [
    ((8, 8, 8), [(4, 4, 4), (2, 2, 2)], 96848.0),
    ((16, 8, 12), [(8, 4, 6), (4, 2, 3)], 314592.0),  # anisotropic
    ((6, 8, 8), [(3, 4, 4)], 65752.0),                # odd coarse dim
]


class TestStencilPlaneVCycle:
    @pytest.mark.parametrize("shape,coarse,flops", HIERARCHIES)
    def test_bitwise_the_csr_vcycle(self, shape, coarse, flops):
        fine = stencil27(*shape)
        mg = MultigridPreconditioner(fine, shape)
        assert [lvl.shape for lvl in mg.levels[1:]] == coarse
        matrices = [fine] + [stencil27(*c) for c in coarse]
        for seed in range(3):
            r = wide_range(fine.nrows, seed)
            want = reference_vcycle(mg, matrices, 0, r.copy())
            assert mg.solve(r).tobytes() == want.tobytes()
        assert mg.flops_per_apply == flops

    def test_flops_per_apply_at_benchmark_shape(self):
        mg = MultigridPreconditioner(stencil27(32), (32, 32, 32))
        assert mg.flops_per_apply == 7739536.0


class TestReadOnlyRebuild:
    """A warm-pool rank rebuilds the pickled program over read-only views."""

    @staticmethod
    def check(fine, shape, arrays):
        mg = MultigridPreconditioner(fine, shape)
        clone = rebuild_read_only(mg)
        held = [p for p in clone.levels[0].op.planes
                if isinstance(p, np.ndarray)]
        assert len(held) == arrays
        assert not any(plane.flags.writeable for plane in held)
        for seed in range(2):
            r = wide_range(int(np.prod(shape)), seed)
            assert clone.solve(r).tobytes() == mg.solve(r).tobytes()

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 8, 12)])
    def test_rebuilt_over_read_only_buffers_applies_bitwise(self, shape):
        """Varying coefficients: the fine level holds 27 array planes."""
        self.check(varying_stencil(shape), shape, arrays=27)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 8, 12)])
    def test_constant_planes_rebuilt_over_read_only_buffers(self, shape):
        self.check(stencil27(*shape), shape, arrays=0)

    def test_read_only_residual_is_left_alone(self, mg, fine):
        r = wide_range(fine.nrows, 5)
        before = r.tobytes()
        r.setflags(write=False)
        want = mg.solve(r.copy())
        assert mg.solve(r).tobytes() == want.tobytes()
        assert r.tobytes() == before


class TestBadMatrix:
    """An entry the planes cannot hold fails in the driver, named."""

    MESSAGE = r"row 0 has an entry in column 50\b"

    @pytest.fixture
    def bad(self, fine):
        return CSRMatrix(*with_extra_entry(fine, 0, 50), shape=fine.shape)

    def test_constructor_names_row_and_column(self, bad):
        with pytest.raises(ValueError, match=self.MESSAGE):
            MultigridPreconditioner(bad, (8, 8, 8))

    def test_hpcg_solve_raises_before_any_rank_runs(self, bad, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("a rank ran")

        monkeypatch.setattr(SimulatedBackend, "run", run)
        with pytest.raises(ValueError, match=self.MESSAGE):
            hpcg_solve(8, precond="mg", matrix=bad)


class TestSlicedFromTheFineLevel:
    """With ``mg`` a rank's block is a sub-box of the V-cycle's fine level:
    bitwise the block a fresh cut of the CSR builds, floats and arrays."""

    @staticmethod
    def assert_same_block(got, want):
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        for k, (g, w) in enumerate(zip(got.planes, want.planes)):
            assert type(g) is type(w), k
            if isinstance(w, float):
                assert np.float64(g).tobytes() == np.float64(w).tobytes(), k
            else:
                assert g.dtype == w.dtype and g.shape == w.shape, k
                assert g.tobytes() == w.tobytes(), k

    def check(self, program, layout):
        from repro.backend.kernel import Collectives
        from repro.hpcg.program import SubcubeOperator
        from repro.sparse.kernels import StencilBlock

        size = layout.nprocs
        for rank in range(size):
            op = SubcubeOperator(program, layout, rank,
                                 Collectives(rank, size))
            want = StencilBlock(program.indptr, program.indices,
                                program.data, program.shape,
                                layout.local_box(rank))
            self.assert_same_block(op.block, want)
            assert op.flops == 2.0 * want.nnz

    @pytest.mark.parametrize("varying", [False, True],
                             ids=["constant", "varying"])
    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 8, 12)])
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
    def test_every_rank_block_is_a_fresh_cut(self, nprocs, shape, varying):
        from repro.hpcg.program import HPCGRankProgram
        from repro.hpf.distribution import Grid3DBlock

        A = varying_stencil(shape) if varying else stencil27(*shape)
        program = HPCGRankProgram(A, np.ones(A.nrows), shape, precond="mg")
        self.check(program, Grid3DBlock(shape, nprocs))

    @pytest.mark.parametrize("varying", [False, True],
                             ids=["constant", "varying"])
    def test_the_layout_after_a_shrink(self, varying):
        """Three survivors over ``nz = 2``: ``(1, 1, 3)``, one box empty
        and two a single layer, whose planes reaching off the grid in z
        hold no cell."""
        from repro.hpcg.program import ResilientHPCGProgram

        shape = (16, 16, 2)
        A = varying_stencil(shape, seed=3) if varying else stencil27(*shape)
        program = ResilientHPCGProgram(A, np.ones(A.nrows), shape,
                                       precond="mg")
        program.layout = program.default_layout(3)
        assert program.layout.grid == (1, 1, 3)
        self.check(program, program._layout_at(3))

    @pytest.mark.parametrize("reproducible", [False, True])
    def test_resilient_abft_reliable_run_is_the_plain_run(self,
                                                         reproducible):
        from repro.core.resilience import ResilienceConfig
        from repro.machine.reliable import ReliableConfig

        kw = dict(nprocs=4, precond="mg", reproducible=reproducible,
                  criterion=StoppingCriterion(rtol=1e-10, atol=0.0))
        plain = hpcg_solve((16, 8, 12), **kw)
        guarded = hpcg_solve(
            (16, 8, 12), abft=True, resilience=ResilienceConfig(
                checkpoint_interval=3, sanity_interval=3,
                reliable=ReliableConfig(base_timeout=0.05, max_retries=8)),
            **kw)
        assert plain.converged and guarded.converged
        assert guarded.extras["hpcg"]["abft"] is True
        assert guarded.extras["resilience"]["rollbacks"] == 0
        assert guarded.x.tobytes() == plain.x.tobytes()
        assert guarded.iterations == plain.iterations
