"""Geometric multigrid preconditioner: V-cycle, hierarchy, CG coupling."""

import numpy as np
import pytest

from repro.core import (
    JacobiPreconditioner,
    StoppingCriterion,
    hpf_pcg,
    make_strategy,
    pcg_reference,
)
from repro.hpcg import MultigridPreconditioner, hpcg_solve
from repro.machine import Machine
from repro.sparse import rhs_for_solution, stencil27

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

    @pytest.mark.parametrize("p", [1, 4])
    def test_hpcg_solve_mg_beats_jacobi(self, p):
        res_mg = hpcg_solve(8, nprocs=p, precond="mg")
        res_j = hpcg_solve(8, nprocs=p, precond="jacobi")
        assert res_mg.converged and res_j.converged
        assert res_mg.iterations < res_j.iterations
        assert res_mg.extras["hpcg"]["mg_depth"] == 3
        assert res_mg.extras["hpcg"]["mg_flops_per_apply"] > 0
