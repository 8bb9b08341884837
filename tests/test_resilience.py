"""Tests for solver-level fault tolerance (checkpoint / audit / rollback)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.backend import SimulatedBackend, backend_solve
from repro.baselines import spmd_cg
from repro.core import (
    JacobiPreconditioner,
    RecoveryExhaustedError,
    ResilienceConfig,
    SSORPreconditioner,
    StoppingCriterion,
    hpf_cg,
    hpf_pcg,
    make_strategy,
)
from repro.core.resilience import latest_complete_checkpoint
from repro.hpcg import hpcg_solve
from repro.machine import (
    FaultPlan,
    Machine,
    RankCrash,
    RankSlowdown,
    StateCorruption,
)
from repro.sparse import poisson1d, poisson2d, structural_truss

CRIT = StoppingCriterion(rtol=1e-8, maxiter=300)


def _problem(n=64, seed=0):
    A = poisson1d(n)
    b = np.random.default_rng(seed).standard_normal(n)
    return A, b


def _strategy(A):
    return make_strategy("csr_forall_aligned", Machine(nprocs=4), A)


class TestConfigAndHelpers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            ResilienceConfig(sanity_interval=0)
        with pytest.raises(ValueError):
            ResilienceConfig(sanity_rtol=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_restarts=-1)
        # one guard, one config: every fault-tolerant solve reads these five
        assert [f.name for f in fields(ResilienceConfig)] == [
            "checkpoint_interval", "sanity_interval", "sanity_rtol",
            "max_restarts", "reliable"]

    def test_latest_complete_checkpoint(self):
        store = {10: {0: "a", 1: "b"}, 20: {0: "c"}, 5: {0: "d", 1: "e"}}
        k, snap = latest_complete_checkpoint(store, size=2)
        assert k == 10 and snap == {0: "a", 1: "b"}  # 20 is partial
        assert latest_complete_checkpoint({3: {0: "x"}}, size=2) is None
        assert latest_complete_checkpoint({}, size=4) is None


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestHpfRecovery:
    """The HPF solvers' fault mode runs the row-block rank program under
    the one guard: its ``x`` is bitwise the fault-free rank-program run's
    and within 1e-8 of the fault-free HPF solve's."""

    def test_guarded_fault_free_run_is_identical(self):
        A, b = _problem()
        ref = hpf_cg(_strategy(A), b, criterion=CRIT)
        twin = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT)
        res = hpf_cg(_strategy(A), b, criterion=CRIT,
                     resilience=ResilienceConfig())
        assert np.array_equal(res.x, twin.x)
        assert _rel(res.x, ref.x) <= 1e-8
        assert res.iterations == ref.iterations
        assert res.extras["resilience"]["rollbacks"] == 0
        assert res.extras["resilience"]["refreshes"] == 0
        assert res.extras["resilience"]["audits"] > 0

    @pytest.mark.parametrize("target", ["x", "r"])
    def test_invariant_breaking_corruption_rolls_back(self, target):
        A, b = _problem()
        ref = hpf_cg(_strategy(A), b, criterion=CRIT)
        twin = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target=target)],
        )
        res = hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan)
        assert res.converged
        assert res.extras["resilience"]["rollbacks"] == 1
        assert res.extras["resilience"]["fault_stats"]["state_corruptions"] == 1
        assert np.array_equal(res.x, twin.x)
        assert _rel(res.x, ref.x) <= 1e-8

    @pytest.mark.parametrize("solver", ["cg", "pcg"])
    @pytest.mark.parametrize("scenario", ["drop", "crash"])
    def test_drops_and_crashes_are_survived(self, solver, scenario):
        # the HPF guard used to ignore both; the rank program masks drops
        # with its ARQ and restarts a crash from a coordinated checkpoint
        A, b = _problem()
        m_ref = Machine(nprocs=4)
        twin = spmd_cg(m_ref, A, b, criterion=CRIT)
        plan = (FaultPlan(seed=11, drop_prob=0.05) if scenario == "drop" else
                FaultPlan(crashes=[RankCrash(rank=2,
                                             at_time=0.4 * m_ref.elapsed())]))
        if solver == "cg":
            ref = hpf_cg(_strategy(A), b, criterion=CRIT)
            twin_x = twin.x
            res = hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan)
        else:
            pre = JacobiPreconditioner(A)
            ref = hpf_pcg(_strategy(A), b, pre, criterion=CRIT)
            twin_x = backend_solve("pcg", A, b, nprocs=4, criterion=CRIT).x
            res = hpf_pcg(_strategy(A), b, pre, criterion=CRIT, faults=plan)
        assert res.converged
        assert np.array_equal(res.x, twin_x)
        assert _rel(res.x, ref.x) <= 1e-8
        if scenario == "drop":
            assert res.extras["injected_faults"]["dropped"] > 0
        else:
            assert res.extras["recovery"]["crashes_recovered"] == [2]

    def test_exhausted_restarts_raise(self):
        A, b = _problem()
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target="x")],
        )
        with pytest.raises(RecoveryExhaustedError):
            hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan,
                   resilience=ResilienceConfig(max_restarts=0))

    def test_recovery_overhead_is_charged(self):
        A, b = _problem()
        strat_ref, strat = _strategy(A), _strategy(A)
        hpf_cg(strat_ref, b, criterion=CRIT, resilience=ResilienceConfig())
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target="x")],
        )
        res = hpf_cg(strat, b, criterion=CRIT, faults=plan)
        # the replayed iterations and the restore are paid on the clock
        assert res.extras["resilience"]["rollbacks"] == 1
        assert strat.machine.elapsed() > strat_ref.machine.elapsed()

    def test_pcg_corruption_recovery(self):
        A, b = _problem()
        m_ref, m = Machine(nprocs=4), Machine(nprocs=4)
        ref = hpf_pcg(
            make_strategy("csr_forall_aligned", m_ref, A), b,
            JacobiPreconditioner(A), criterion=CRIT,
        )
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=6, target="r")],
        )
        res = hpf_pcg(
            make_strategy("csr_forall_aligned", m, A), b,
            JacobiPreconditioner(A), criterion=CRIT, faults=plan,
        )
        assert res.converged
        assert res.extras["resilience"]["rollbacks"] == 1
        assert res.extras["preconditioner"] == "jacobi"
        assert _rel(res.x, ref.x) <= 1e-8

    def test_pcg_guarded_fault_free_identical(self):
        A, b = _problem()
        m_ref, m = Machine(nprocs=4), Machine(nprocs=4)
        ref = hpf_pcg(
            make_strategy("csr_forall_aligned", m_ref, A), b,
            JacobiPreconditioner(A), criterion=CRIT,
        )
        twin = backend_solve("pcg", A, b, nprocs=4, criterion=CRIT)
        res = hpf_pcg(
            make_strategy("csr_forall_aligned", m, A), b,
            JacobiPreconditioner(A), criterion=CRIT,
            resilience=ResilienceConfig(),
        )
        assert np.array_equal(res.x, twin.x)
        assert _rel(res.x, ref.x) <= 1e-8
        assert res.iterations == ref.iterations

    def test_pcg_non_constant_diagonal_bitwise(self):
        # poisson's constant diagonal hides a misplaced Jacobi apply; a
        # truss does not.  The crash restart and the rollback both resume
        # the preconditioned recurrence from a consistent checkpoint.
        A = structural_truss(40, seed=1)
        b = np.random.default_rng(5).standard_normal(A.nrows)
        pre = JacobiPreconditioner(A)
        twin = backend_solve("pcg", A, b, nprocs=4, criterion=CRIT)
        m_ref = Machine(nprocs=4)
        backend_solve("pcg", A, b, nprocs=4, criterion=CRIT,
                      backend=SimulatedBackend(machine=m_ref))
        for plan in (
            FaultPlan(crashes=[RankCrash(rank=1,
                                         at_time=0.5 * m_ref.elapsed())]),
            FaultPlan(seed=3, state_corruptions=[
                StateCorruption(iteration=12, target="x", rank=3)]),
        ):
            res = hpf_pcg(_strategy(A), b, pre, criterion=CRIT, faults=plan)
            assert res.converged
            assert np.array_equal(res.x, twin.x)

    @pytest.mark.parametrize("name", ["csc_private", "csr_halo"])
    def test_strategy_without_rank_program_twin_raises(self, name):
        A, b = _problem()
        strategy = make_strategy(name, Machine(nprocs=4), A)
        with pytest.raises(ValueError, match=name):
            hpf_cg(strategy, b, criterion=CRIT,
                   resilience=ResilienceConfig())

    def test_non_jacobi_preconditioner_raises(self):
        A, b = _problem()
        with pytest.raises(ValueError, match="ssor"):
            hpf_pcg(_strategy(A), b, SSORPreconditioner(A), criterion=CRIT,
                    resilience=ResilienceConfig())


def _p_corruption():
    return FaultPlan(
        seed=3, state_corruptions=[StateCorruption(iteration=7, target="p")])


class TestDirectionCorruption:
    """A corrupted search direction keeps ``r = b - A x``, so no audit sees
    it.  The classic recurrence stagnates until the guard refreshes ``p``;
    the fused one carries ``s = A p``, so there the audit rolls back and
    the answer is the fault-free one bit for bit."""

    def _cases(self, launch):
        A, b = _problem()
        if launch == "spmd_cg":
            run = lambda plan: spmd_cg(Machine(nprocs=4), A, b,
                                       criterion=CRIT, faults=plan)
        elif launch in ("backend_cg", "backend_cg_fused"):
            run = lambda plan: backend_solve(
                "cg", A, b, nprocs=4, criterion=CRIT, faults=plan,
                fused=launch == "backend_cg_fused")
        elif launch in ("hpcg_none", "hpcg_jacobi"):
            run = lambda plan: hpcg_solve(
                8, nprocs=4, precond=launch.split("_")[1], criterion=CRIT,
                faults=plan)
        elif launch == "hpf_cg":
            run = lambda plan: hpf_cg(_strategy(A), b, criterion=CRIT,
                                      faults=plan)
        else:
            run = lambda plan: hpf_pcg(_strategy(A), b,
                                       JacobiPreconditioner(A),
                                       criterion=CRIT, faults=plan)
        # the fault-free run is the same call with an empty plan
        return run(FaultPlan()), run(_p_corruption())

    @pytest.mark.parametrize("launch", [
        "spmd_cg", "backend_cg", "backend_cg_fused", "hpcg_none",
        "hpcg_jacobi", "hpf_cg", "hpf_pcg"])
    def test_direction_corruption_recovers(self, launch):
        ref, res = self._cases(launch)
        assert res.converged
        assert _rel(res.x, ref.x) <= 1e-6
        guard = res.extras["resilience"]
        assert guard["fault_stats"]["state_corruptions"] == 1
        if launch in ("backend_cg_fused", "hpcg_none", "hpcg_jacobi"):
            assert guard["rollbacks"] >= 1
            assert np.array_equal(res.x, ref.x)
        else:
            assert guard["refreshes"] >= 1


class TestFaultRanks:
    """A crash, slowdown or corruption aimed at a rank the solve does not
    have used to be dropped silently; the launch now refuses it."""

    @pytest.mark.parametrize("plan", [
        FaultPlan(state_corruptions=[StateCorruption(iteration=3, rank=7)]),
        FaultPlan(crashes=[RankCrash(rank=7, at_time=1e-4)]),
        FaultPlan(slowdowns=[RankSlowdown(rank=4, factor=2.0)]),
    ], ids=["corruption", "crash", "slowdown"])
    def test_out_of_range_rank_raises(self, plan):
        A, b = _problem()
        with pytest.raises(ValueError, match="4 ranks"):
            spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT,
                    faults=plan.clone())
        with pytest.raises(ValueError, match="4 ranks"):
            backend_solve("cg", A, b, nprocs=4, criterion=CRIT,
                          faults=plan.clone())
        with pytest.raises(ValueError, match="4 ranks"):
            hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan.clone())


class TestSpmdRecovery:
    """``spmd_cg``'s fault mode is ``ResilientCGProgram`` under the one
    recovery driver: every scenario lands on the fault-free ``x`` bit for
    bit, and its extras follow the ``backend_solve`` schema."""

    def _reference(self, A, b):
        return spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT)

    def test_guarded_fault_free_matches_unguarded(self):
        A, b = _problem()
        ref = self._reference(A, b)
        res = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT,
                      resilience=ResilienceConfig())
        assert res.converged
        assert np.array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations
        assert res.extras["recovery"]["attempts"] == 1
        assert res.extras["recovery"]["crashes_recovered"] == []
        # no message faults: the plain collectives run, no ARQ telemetry
        assert res.extras["resilience"]["telemetry"] == {}

    def test_message_loss_recovered_and_charged(self):
        A, b = _problem()
        ref = self._reference(A, b)
        plan = FaultPlan(seed=11, drop_prob=0.05)
        m = Machine(nprocs=4)
        res = spmd_cg(m, A, b, criterion=CRIT, faults=plan)
        assert res.converged
        assert np.array_equal(res.x, ref.x)
        telemetry = res.extras["resilience"]["telemetry"]
        assert telemetry["retransmissions"] > 0
        assert telemetry["retransmitted_words"] > 0
        assert res.extras["injected_faults"]["dropped"] > 0
        # retransmissions show up in the machine's accounting
        ref_m = Machine(nprocs=4)
        spmd_cg(ref_m, A, b, criterion=CRIT)
        assert m.stats.total_words > ref_m.stats.total_words

    def test_mid_solve_crash_restarts_from_checkpoint(self):
        A, b = _problem()
        ref_m = Machine(nprocs=4)
        ref = spmd_cg(ref_m, A, b, criterion=CRIT)
        plan = FaultPlan(
            crashes=[RankCrash(rank=2, at_time=0.4 * ref_m.elapsed())]
        )
        res = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT, faults=plan)
        assert res.converged
        assert np.array_equal(res.x, ref.x)
        recovery = res.extras["recovery"]
        assert recovery["crashes_recovered"] == [2]
        assert recovery["restart_iterations"][0] > 0
        assert (res.extras["resilience"]["restarted_from"]
                == recovery["restart_iterations"][0])

    def test_spmd_state_corruption_rolls_back(self):
        A, b = _problem()
        ref = self._reference(A, b)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=8, target="x", rank=1)],
        )
        res = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT, faults=plan)
        assert res.converged
        assert np.array_equal(res.x, ref.x)
        assert res.extras["resilience"]["rollbacks"] == 1

    def test_loss_and_crash_combined(self):
        A, b = _problem()
        ref_m = Machine(nprocs=4)
        ref = spmd_cg(ref_m, A, b, criterion=CRIT)
        plan = FaultPlan(
            seed=21, drop_prob=0.02,
            crashes=[RankCrash(rank=1, at_time=0.5 * ref_m.elapsed())],
        )
        res = spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT, faults=plan)
        assert res.converged
        assert np.array_equal(res.x, ref.x)
        assert res.extras["recovery"]["crashes_recovered"] == [1]

    def test_crash_exhaustion_raises(self):
        A, b = _problem()
        plan = FaultPlan(crashes=[RankCrash(rank=2, at_time=1e-4)])
        with pytest.raises(RecoveryExhaustedError):
            spmd_cg(Machine(nprocs=4), A, b, criterion=CRIT, faults=plan,
                    resilience=ResilienceConfig(max_restarts=0))

    def test_bit_identical_repeats_under_faults(self):
        A, b = _problem()

        def run(plan):
            m = Machine(nprocs=4)
            res = spmd_cg(m, A, b, criterion=CRIT, faults=plan.clone())
            return res.x.tobytes(), m.elapsed(), m.stats.total_words

        for plan in (FaultPlan(seed=11, drop_prob=0.05),
                     FaultPlan(crashes=[RankCrash(rank=0, at_time=5e-3)])):
            assert run(plan) == run(plan)


class TestRankProgramTelemetry:
    def test_arq_telemetry_summed_over_ranks(self):
        # every injected drop is retransmitted by *some* rank's endpoint,
        # so the whole-run count can only be compared with whole-run sums
        A = poisson2d(8, 8)
        b = np.random.default_rng(19).standard_normal(A.nrows)
        res = backend_solve(
            "cg", A, b, backend="simulated", nprocs=4,
            criterion=StoppingCriterion(rtol=1e-8, maxiter=500),
            faults=FaultPlan(seed=19, drop_prob=0.01),
        )
        assert res.converged
        dropped = res.extras["injected_faults"]["dropped"]
        assert dropped > 0
        telemetry = res.extras["resilience"]["telemetry"]
        assert telemetry["retransmissions"] >= dropped
