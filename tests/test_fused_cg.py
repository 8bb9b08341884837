"""Single-reduction (fused) CG: parity, counts, resilience.

The fused Chronopoulos--Gear recurrence must be a drop-in for the
classic programs on every axis this repo cares about:

* **numerics** -- same iterates as classic CG (property-based over random
  SPD matrices and an E12-style family sweep);
* **communication** -- a tag-counted run shows exactly ``iters + 1``
  allreduce trees on BOTH backends (the whole point of the recurrence);
* **parity** -- the packed ``allreduce_vec`` stays bitwise-deterministic
  across the simulated and real-process substrates;
* **fault tolerance** -- the fused ``ResilientCGProgram`` path survives
  crashes, rollbacks, ABFT checks and shrink-redistribution exactly like
  the classic one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import (
    FaultInjectingProgram,
    ProcessBackend,
    ResilientCGProgram,
    SimulatedBackend,
    TagCountingProgram,
    allreduce_trees,
    backend_solve,
    cross_validate,
    process_backend_support,
    run_with_recovery,
)
from repro.backend.abft import AbftChecksumError
from repro.backend.programs import CGRankProgram, PCGRankProgram
from repro.core.resilience import ResilienceConfig
from repro.core.stopping import StoppingCriterion
from repro.machine.faults import FaultPlan, FaultRule, RankCrash, StateCorruption
from repro.sparse.generators import (
    nas_cg_style,
    poisson1d,
    poisson2d,
    random_sparse_symmetric,
    rhs_for_solution,
    structural_truss,
)

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)

CRIT = StoppingCriterion(rtol=1e-10, atol=0.0)


def _problem(n=40):
    A = poisson1d(n)
    b = rhs_for_solution(A, np.linspace(1.0, 2.0, n))
    return A, b


def _solve(A, b, fused, nprocs=4, **kw):
    return backend_solve("cg", A, b, backend="simulated", nprocs=nprocs,
                         criterion=CRIT, fused=fused, **kw)


# ---------------------------------------------------------------------- #
# numerics: fused iterates == classic iterates
# ---------------------------------------------------------------------- #
class TestFusedMatchesClassic:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: poisson1d(48),
            lambda: poisson2d(8, 8),
            lambda: nas_cg_style(48, seed=3),
            lambda: structural_truss(12, seed=1),
            lambda: random_sparse_symmetric(56, seed=7),
        ],
        ids=["poisson1d", "poisson2d", "nas_cg", "truss", "random_spd"],
    )
    def test_e12_style_family_sweep(self, make, nprocs):
        A = make()
        x_true = np.linspace(1.0, 2.0, A.nrows)
        b = rhs_for_solution(A, x_true)
        classic = _solve(A, b, fused=False, nprocs=nprocs)
        fused = _solve(A, b, fused=True, nprocs=nprocs)
        assert classic.converged and fused.converged
        # the recurrences order flops differently, so right at the 1e-10
        # stopping threshold the decision can shift by one iteration
        assert abs(fused.iterations - classic.iterations) <= 1
        scale = float(np.max(np.abs(x_true)))
        assert float(np.max(np.abs(classic.x - x_true))) <= 1e-7 * scale
        assert float(np.max(np.abs(fused.x - classic.x))) <= 1e-8 * scale

    @given(
        n=st.integers(min_value=4, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
        nprocs=st.sampled_from([1, 2, 4]),
    )
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_iterate_for_iterate(self, n, seed, nprocs):
        """Fused and classic walk the same Krylov trajectory.

        Same iteration count, residual history equal step for step (tiny
        rounding slack: the recurrences order the flops differently), and
        the same solution -- on random diagonally-dominant SPD systems.
        """
        A = random_sparse_symmetric(n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        classic = _solve(A, b, fused=False, nprocs=nprocs)
        fused = _solve(A, b, fused=True, nprocs=nprocs)
        assert abs(fused.iterations - classic.iterations) <= 1
        assert fused.converged == classic.converged
        rc = np.asarray(classic.history.residual_norms)
        rf = np.asarray(fused.history.residual_norms)
        m = min(rc.size, rf.size)
        bscale = float(np.linalg.norm(b)) or 1.0
        # below the stopping threshold the recurrences' residuals drift
        # apart relatively while both keep certifying convergence, so the
        # absolute slack is the threshold itself
        np.testing.assert_allclose(rf[:m], rc[:m], rtol=1e-5,
                                   atol=CRIT.rtol * bscale)
        assert float(np.max(np.abs(fused.x - classic.x))) <= 1e-7 * bscale

    def test_fused_pcg_matches_classic_pcg(self):
        A, b = _problem(40)
        classic = backend_solve("pcg", A, b, backend="simulated", nprocs=4,
                                criterion=CRIT)
        fused = backend_solve("pcg", A, b, backend="simulated", nprocs=4,
                              criterion=CRIT, fused=True)
        assert classic.converged and fused.converged
        assert fused.iterations == classic.iterations
        assert float(np.max(np.abs(fused.x - classic.x))) <= 1e-10


# ---------------------------------------------------------------------- #
# communication: one allreduce tree per iteration, on both backends
# ---------------------------------------------------------------------- #
def _counted(backend, prog_cls, A, b, nprocs, fused, **kw):
    prog = TagCountingProgram(
        prog_cls(A, b, criterion=CRIT, fused=fused, **kw))
    run = backend.run(prog, nprocs)
    iters = run.results[0]["result"][3]
    assert run.results[0]["result"][2]  # converged
    return iters, allreduce_trees(run.results, nprocs)


class TestSingleAllreducePerIteration:
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_simulated_cg_counts(self, nprocs):
        A, b = _problem(40)
        be = SimulatedBackend()
        ic, trees_c = _counted(be, CGRankProgram, A, b, nprocs, False)
        if_, trees_f = _counted(be, CGRankProgram, A, b, nprocs, True)
        assert ic == if_
        # classic: bnorm + rho at setup, then pq + rho per iteration;
        # fused: ONE packed tree per iteration, b.b riding on the setup one
        assert trees_c == 2 + 2 * ic
        assert trees_f == if_ + 1

    def test_simulated_pcg_counts(self):
        A, b = _problem(40)
        be = SimulatedBackend()
        ic, trees_c = _counted(be, PCGRankProgram, A, b, 4, False)
        if_, trees_f = _counted(be, PCGRankProgram, A, b, 4, True)
        assert ic == if_
        # classic PCG: three trees per iteration (the converged final
        # iteration skips the trailing rho reduction)
        assert trees_c == 3 + 3 * ic - 1
        assert trees_f == if_ + 1

    @needs_process
    def test_process_backend_counts(self):
        """The invariant holds on real processes, not just the model."""
        A, b = _problem(40)
        be = ProcessBackend(timeout=120.0)
        ic, trees_c = _counted(be, CGRankProgram, A, b, 2, False)
        if_, trees_f = _counted(be, CGRankProgram, A, b, 2, True)
        assert ic == if_
        assert trees_c == 2 + 2 * ic
        assert trees_f == if_ + 1


# ---------------------------------------------------------------------- #
# cross-backend bitwise parity of the packed collective
# ---------------------------------------------------------------------- #
@needs_process
class TestCrossBackendParity:
    def test_fused_cg_bitwise(self):
        A, b = _problem(40)
        cv = cross_validate("cg", A, b, nprocs=2, criterion=CRIT, fused=True)
        assert cv.bitwise_equal  # check() already raised otherwise

    def test_fused_pcg_bitwise(self):
        A, b = _problem(40)
        cv = cross_validate("pcg", A, b, nprocs=2, criterion=CRIT, fused=True)
        assert cv.bitwise_equal


# ---------------------------------------------------------------------- #
# fault tolerance: the fused resilient path
# ---------------------------------------------------------------------- #
class TestFusedResilient:
    def test_plain_resilient_matches_reference(self):
        A, b = _problem(40)
        ref = _solve(A, b, fused=False)
        res = _solve(A, b, fused=True,
                     resilience=ResilienceConfig(checkpoint_interval=5))
        assert res.converged
        assert res.extras["resilience"]["checkpoints_published"] >= 1
        assert res.extras["resilience"]["audits"] >= 1
        assert float(np.max(np.abs(res.x - ref.x))) <= 1e-10

    def test_crash_recovery(self):
        A, b = _problem(40)
        ref = _solve(A, b, fused=False)
        plan = FaultPlan(seed=0, crashes=[RankCrash(rank=2, at_time=0.01)])
        res = _solve(A, b, fused=True, faults=plan,
                     resilience=ResilienceConfig(checkpoint_interval=5))
        assert res.converged
        assert len(res.extras["recovery"]["crashes_recovered"]) >= 1
        assert float(np.max(np.abs(res.x - ref.x))) <= 1e-10

    def test_rollback_on_state_corruption(self):
        A, b = _problem(40)
        ref = _solve(A, b, fused=False)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target="x",
                                               rank=1)],
        )
        res = _solve(A, b, fused=True, faults=plan,
                     resilience=ResilienceConfig(checkpoint_interval=5,
                                                 sanity_interval=2))
        assert res.converged
        assert res.extras["resilience"]["rollbacks"] >= 1
        assert float(np.max(np.abs(res.x - ref.x))) <= 1e-10

    def test_shrink_reslices_fused_snapshot(self):
        """A shrink must redistribute the fused {x,r,p,s} snapshot."""
        A, b = _problem(40)
        ref = _solve(A, b, fused=False)
        plan = FaultPlan(seed=0, crashes=[RankCrash(rank=1, at_time=0.01)])
        res = _solve(A, b, fused=True, faults=plan, policy="shrink",
                     resilience=ResilienceConfig(checkpoint_interval=5))
        assert res.converged
        assert res.extras["recovery"]["final_nprocs"] == 3
        assert float(np.max(np.abs(res.x - ref.x))) <= 1e-10

    def test_abft_fused_matches_classic(self):
        A, b = _problem(40)
        be = SimulatedBackend()
        out = {}
        for fused in (False, True):
            prog = ResilientCGProgram(A, b, criterion=CRIT, abft=True,
                                      fused=fused)
            run = run_with_recovery(be, prog, 2)
            x = np.concatenate([r[0] for r in run.results])
            assert run.results[0][2]
            out[fused] = x
        assert float(np.max(np.abs(out[True] - out[False]))) <= 1e-10

    def test_abft_fused_detects_packed_corruption(self):
        """Duplicate-sum slots inside the packed message still catch
        in-flight bit flips: corrupt a message payload and the fused
        decode must raise, not silently converge."""
        A, b = _problem(40)
        plan = FaultPlan(
            seed=5,
            rules=[FaultRule(kind="corrupt", tag=3, nth=10)],
        )
        prog = ResilientCGProgram(A, b, criterion=CRIT, abft=True, fused=True,
                                  max_restarts=0)
        with pytest.raises(AbftChecksumError):
            SimulatedBackend().run(FaultInjectingProgram(prog, plan), 2)
