"""Tests for solver-level fault tolerance (checkpoint / audit / rollback)."""

import numpy as np
import pytest

from repro.backend import backend_solve
from repro.baselines import spmd_cg
from repro.core import (
    JacobiPreconditioner,
    RecoveryExhaustedError,
    ResilienceConfig,
    StoppingCriterion,
    hpf_cg,
    hpf_pcg,
    make_strategy,
)
from repro.core.resilience import latest_complete_checkpoint
from repro.machine import FaultPlan, Machine, RankCrash, StateCorruption
from repro.sparse import poisson1d, poisson2d

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
        with pytest.raises(ValueError):
            ResilienceConfig(restart_time=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(stagnation_factor=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(stagnation_patience=0)

    def test_latest_complete_checkpoint(self):
        store = {10: {0: "a", 1: "b"}, 20: {0: "c"}, 5: {0: "d", 1: "e"}}
        k, snap = latest_complete_checkpoint(store, size=2)
        assert k == 10 and snap == {0: "a", 1: "b"}  # 20 is partial
        assert latest_complete_checkpoint({3: {0: "x"}}, size=2) is None
        assert latest_complete_checkpoint({}, size=4) is None


class TestHpfRecovery:
    def test_guarded_fault_free_run_is_identical(self):
        A, b = _problem()
        ref = hpf_cg(_strategy(A), b, criterion=CRIT)
        res = hpf_cg(_strategy(A), b, criterion=CRIT,
                     resilience=ResilienceConfig())
        assert np.array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations
        assert res.extras["resilience"]["restarts"] == 0
        assert res.extras["resilience"]["refreshes"] == 0
        assert res.extras["resilience"]["audits"] > 0

    @pytest.mark.parametrize("target", ["x", "r"])
    def test_invariant_breaking_corruption_rolls_back(self, target):
        A, b = _problem()
        ref = hpf_cg(_strategy(A), b, criterion=CRIT)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target=target)],
        )
        res = hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan)
        assert res.converged
        assert res.extras["resilience"]["restarts"] == 1
        assert res.extras["resilience"]["corruptions_detected"] == 1
        assert np.linalg.norm(res.x - ref.x) <= 1e-6 * np.linalg.norm(ref.x)

    def test_direction_corruption_triggers_refresh(self):
        A, b = _problem()
        ref = hpf_cg(_strategy(A), b, criterion=CRIT)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target="p")],
        )
        res = hpf_cg(_strategy(A), b, criterion=CRIT, faults=plan)
        assert res.converged
        assert res.extras["resilience"]["refreshes"] >= 1
        assert np.linalg.norm(res.x - ref.x) <= 1e-6 * np.linalg.norm(ref.x)

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
        hpf_cg(strat_ref, b, criterion=CRIT)
        plan = FaultPlan(
            seed=3,
            state_corruptions=[StateCorruption(iteration=7, target="x")],
        )
        hpf_cg(strat, b, criterion=CRIT, faults=plan)
        assert strat.machine.elapsed() > strat_ref.machine.elapsed()
        restart = [
            r for r in strat.machine.stats.comm_records if r.op == "restart"
        ]
        assert len(restart) == 1

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
        assert res.extras["resilience"]["restarts"] == 1
        assert np.linalg.norm(res.x - ref.x) <= 1e-6 * np.linalg.norm(ref.x)

    def test_pcg_guarded_fault_free_identical(self):
        A, b = _problem()
        m_ref, m = Machine(nprocs=4), Machine(nprocs=4)
        ref = hpf_pcg(
            make_strategy("csr_forall_aligned", m_ref, A), b,
            JacobiPreconditioner(A), criterion=CRIT,
        )
        res = hpf_pcg(
            make_strategy("csr_forall_aligned", m, A), b,
            JacobiPreconditioner(A), criterion=CRIT,
            resilience=ResilienceConfig(),
        )
        assert np.array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations


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
