"""The HPCG reproducibility pin: bitwise invariance across everything.

With ``reproducible=True`` every distributed dot rides the fixed-point
superaccumulator, so the *entire solver trajectory* -- solution vector,
per-iteration alpha/beta/gamma, residual history, iteration count -- must
be bitwise identical across

* rank counts (p in {1, 2, 4, 8}),
* execution substrate (simulated scheduler vs real OS processes), and
* fault-induced re-execution (chaos restarts replay the same exact dots).

HPCG always packs a step's dots into one reduction tree.  A job spec's
``fused`` field selects the row-block recurrence only; a ``stencil27``
spec ignores it, so specs journaled with either value replay the same
run, reproducible or not.
"""

import numpy as np
import pytest

from repro.backend import (
    SimulatedBackend,
    backend_solve,
    hpcg_cross_validate,
    process_backend_support,
)
from repro.backend.chaos import chaos_run
from repro.backend.job import JobSpec, solve
from repro.core import StoppingCriterion
from repro.sparse import poisson2d, rhs_for_solution
from repro.hpcg import hpcg_solve

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)

SHAPE = 8


def _signature(res):
    """Everything that must be invariant, as comparable values."""
    h = res.extras["hpcg"]
    return (
        res.x.tobytes(),
        res.iterations,
        bool(res.converged),
        tuple(res.history.residual_norms),
        tuple(h["alphas"]),
        tuple(h["betas"]),
        tuple(h["gammas"]),
    )


def _spec_solve(p, fused, **kw):
    """One stencil27 job; ``fused`` is the spec field HPCG ignores."""
    return solve(JobSpec(scenario="stencil27", shape=SHAPE, nprocs=p,
                         fused=fused, **kw), "simulated")


class TestReproducibleMatrix:
    """The 16-way pin on the simulated backend."""

    @pytest.mark.parametrize("precond", ["none", "jacobi", "mg"])
    def test_invariant_across_p_and_fusion(self, precond):
        ref = None
        for p in (1, 2, 4, 8):
            for fused in (False, True):
                res = _spec_solve(p, fused, precond=precond,
                                  reproducible=True)
                assert res.converged
                sig = _signature(res)
                if ref is None:
                    ref = sig
                else:
                    assert sig == ref, (
                        f"{precond} p={p} fused={fused} diverged")

    def test_reproducible_differs_only_in_rounding(self):
        """Sanity: reproducible result is numerically the same solve."""
        a = hpcg_solve(SHAPE, nprocs=4, precond="mg", reproducible=True)
        b = hpcg_solve(SHAPE, nprocs=4, precond="mg", reproducible=False)
        assert a.iterations == b.iterations
        assert np.allclose(a.x, b.x, rtol=1e-12, atol=1e-14)


class TestNonReproducibleFixedP:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_classic_equals_fused_at_fixed_p(self, p):
        """Either spelling of a stencil27 spec is the same run."""
        classic = _spec_solve(p, False, precond="mg")
        fused = _spec_solve(p, True, precond="mg")
        assert _signature(classic) == _signature(fused)
        assert classic.comm == fused.comm


@needs_process
class TestProcessBackendParity:
    @pytest.mark.parametrize("reproducible", [False, True])
    def test_cross_validate_mg(self, reproducible):
        report = hpcg_cross_validate(
            SHAPE, nprocs=2, precond="mg", reproducible=reproducible)
        assert report.bitwise_equal

    def test_process_matches_simulated_reference_any_p(self):
        ref = _signature(hpcg_solve(
            SHAPE, nprocs=1, precond="jacobi", reproducible=True))
        for p in (2, 4):
            res = hpcg_solve(
                SHAPE, nprocs=p, precond="jacobi", reproducible=True,
                backend="process")
            assert _signature(res) == ref, f"process p={p} diverged"


class TestRowBlockReproducible:
    """reproducible=True on the existing cg/pcg row-block programs."""

    @pytest.mark.parametrize("solver", ["cg", "pcg"])
    @pytest.mark.parametrize("fused", [False, True])
    def test_p_invariant(self, solver, fused):
        A = poisson2d(8, 8)
        b = rhs_for_solution(A, np.arange(A.nrows, dtype=np.float64) / 7.0)
        crit = StoppingCriterion(rtol=1e-10, maxiter=300)
        ref = None
        for p in (1, 2, 4, 8):
            res = backend_solve(
                solver, A, b, backend=SimulatedBackend(), nprocs=p,
                criterion=crit, fused=fused, reproducible=True)
            sig = (res.x.tobytes(), res.iterations,
                   tuple(res.history.residual_norms))
            if ref is None:
                ref = sig
            else:
                assert sig == ref, f"{solver} fused={fused} p={p} diverged"


class TestChaosExactContract:
    """Under reproducible=True chaos verdicts demand err == 0.0 bitwise."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_faulted_run_is_bitwise_exact(self, seed):
        record = chaos_run(seed, backend="simulated", nprocs=4,
                           reproducible=True)
        assert record.outcome in ("converged", "degraded")
        assert record.converged_to_reference
        assert record.max_abs_err == 0.0
