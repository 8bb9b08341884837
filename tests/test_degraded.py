"""Degraded-mode execution: shrink, rebalance and straggler detection.

DESIGN.md §9 / the ISSUE acceptance story: a 4-rank CG loses one rank
mid-solve (fail-stop SIGKILL or a deadline-stale straggler), the
supervisor shrinks onto the 3 survivors via an online REDISTRIBUTE of
every operand, restores from the newest complete checkpoint re-sliced to
the new layout, and converges to the fault-free answer.  ``rebalance``
instead keeps the slow rank and re-cuts the row space around it -- and on
the process backend (where lateness is per-op, not per-row) a repeat
offender escalates to shrink.
"""

import numpy as np
import pytest

from repro.backend import (
    ProcessBackend,
    RecoveryPolicy,
    ResilientCGProgram,
    SimulatedBackend,
    WorkerCrashedError,
    backend_solve,
    crash_injection_support,
    process_backend_support,
    reslice_snapshots,
    run_with_recovery,
)
from repro.core.resilience import RecoveryExhaustedError, ResilienceConfig
from repro.core.stopping import StoppingCriterion
from repro.extensions import capacity_scaled_partitioner, cg_balanced_partitioner_1
from repro.hpf import Block
from repro.machine.events import Compute, Recv
from repro.machine.faults import (
    FaultPlan,
    RankCrash,
    RankSlowdown,
    RecvTimeoutError,
    StragglerDetectedError,
)
from repro.sparse.generators import poisson1d, rhs_for_solution

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)
_KOK, _KDETAIL = crash_injection_support()
needs_crash = pytest.mark.skipif(
    not _KOK, reason=f"crash injection unavailable: {_KDETAIL}"
)


def _problem(n=40):
    A = poisson1d(n)
    b = rhs_for_solution(A, np.linspace(1.0, 2.0, n))
    return A, b, StoppingCriterion(rtol=1e-10, atol=0.0)


def _reference(A, b, crit, nprocs=4):
    return backend_solve("cg", A, b, backend="simulated", nprocs=nprocs,
                         criterion=crit)


# a single dilated matvec segment (~60 flops at 1e-9 s/flop) must exceed
# the virtual deadline on its own: CG's halo exchanges drag the peers'
# clocks up to the victim every iteration, so lag never accumulates
_SIM_FACTOR = 1.0e5
_SIM_DEADLINE = 1.0e-3


class TestShrinkSimulated:
    def test_crash_shrink_converges_on_survivors(self):
        # the ISSUE acceptance criterion: kill 1 of 4 mid-solve, shrink,
        # finish on 3 survivors, match the fault-free answer
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        plan = FaultPlan(seed=0, crashes=[RankCrash(rank=2, at_time=0.01)])
        res = backend_solve(
            "cg", A, b, backend="simulated", nprocs=4, criterion=crit,
            faults=plan, resilience=ResilienceConfig(checkpoint_interval=5),
            policy="shrink",
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["policy"] == "shrink"
        assert rec["final_nprocs"] == 3
        assert rec["crashes_recovered"] == [2]
        assert len(rec["shrinks"]) == 1
        shrink = rec["shrinks"][0]
        assert shrink["victim"] == 2 and not shrink["straggler"]
        # 4 -> 3 on a hypercube cannot stay a hypercube
        assert shrink["topology_fallback"] == "hypercube"
        assert len(rec["redistributions"]) == 1
        redist = rec["redistributions"][0]
        assert redist["messages"] > 0
        assert redist["modelled_time"] > 0.0
        assert redist["lost_words"] > 0.0  # the victim's share moved

    def test_straggler_shrink_converges(self):
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=1, at_time=0.0, factor=_SIM_FACTOR)
        ])
        res = backend_solve(
            "cg", A, b, backend="simulated", nprocs=4, criterion=crit,
            faults=plan, policy="shrink", straggler_deadline=_SIM_DEADLINE,
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["stragglers_detected"] == [1]
        assert rec["final_nprocs"] == 3
        assert rec["shrinks"][0]["straggler"] is True

    def test_straggler_error_is_typed(self):
        A, b, crit = _problem()
        prog = ResilientCGProgram(A, b, criterion=crit)
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=1, at_time=0.0, factor=_SIM_FACTOR)
        ])
        be = SimulatedBackend(faults=plan, straggler_deadline=_SIM_DEADLINE)
        with pytest.raises(StragglerDetectedError) as err:
            be.run(prog, 4)
        assert err.value.rank == 1
        assert err.value.lag is not None and err.value.lag > _SIM_DEADLINE

    def test_min_ranks_stops_the_shrink(self):
        A, b, crit = _problem()
        prog = ResilientCGProgram(A, b, criterion=crit, checkpoint_interval=5)
        plan = FaultPlan(seed=0, crashes=[RankCrash(rank=2, at_time=0.01)])
        with pytest.raises(RecoveryExhaustedError):
            run_with_recovery(
                SimulatedBackend(faults=plan), prog, 4,
                policy="shrink", min_ranks=4,
            )

    def test_unknown_policy_rejected(self):
        A, b, crit = _problem()
        assert RecoveryPolicy == ("respawn", "shrink", "rebalance")
        with pytest.raises(ValueError):
            backend_solve("cg", A, b, backend="simulated", nprocs=2,
                          criterion=crit, policy="abandon")


class TestRebalanceSimulated:
    def test_rebalance_keeps_all_ranks(self):
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=1, at_time=0.0, factor=_SIM_FACTOR)
        ])
        res = backend_solve(
            "cg", A, b, backend="simulated", nprocs=4, criterion=crit,
            faults=plan, policy="rebalance",
            straggler_deadline=_SIM_DEADLINE,
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["stragglers_detected"] == [1]
        assert rec["final_nprocs"] == 4  # nobody dropped
        assert len(rec["rebalances"]) == 1
        assert rec["shrinks"] == []
        # the straggler's capacity share must have shrunk its chunk
        reb = rec["rebalances"][0]
        assert reb["victim"] == 1
        assert 0.0 < reb["capacity"] < 1.0


class TestShrinkProcess:
    @needs_crash
    def test_sigkill_shrink_converges_on_survivors(self):
        # the ISSUE acceptance criterion on real processes
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        be = ProcessBackend(timeout=60.0, crash_on_checkpoint={2: 10})
        res = backend_solve(
            "cg", A, b, backend=be, nprocs=4, criterion=crit,
            resilience=ResilienceConfig(checkpoint_interval=5),
            policy="shrink",
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["crashes_recovered"] == [2]
        assert rec["final_nprocs"] == 3
        assert len(rec["shrinks"]) == 1
        assert rec["redistributions"][0]["modelled_time"] > 0.0

    @needs_process
    def test_straggler_detected_and_shrunk(self):
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=1, at_time=0.0, op_delay=1.5)
        ])
        res = backend_solve(
            "cg", A, b, backend="process", nprocs=4, criterion=crit,
            faults=plan, policy="shrink",
            straggler_deadline=1.0, heartbeat_interval=0.2,
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["stragglers_detected"] == [1]
        assert rec["final_nprocs"] == 3

    @needs_process
    def test_rebalance_escalates_to_shrink(self):
        # per-op lateness does not scale with the row count, so giving the
        # straggler fewer rows cannot help; the second detection of the
        # same rank must escalate to a shrink (deliberate design point,
        # DESIGN.md §9)
        A, b, crit = _problem()
        ref = _reference(A, b, crit)
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=1, at_time=0.0, op_delay=1.5)
        ])
        res = backend_solve(
            "cg", A, b, backend="process", nprocs=4, criterion=crit,
            faults=plan, policy="rebalance",
            straggler_deadline=1.0, heartbeat_interval=0.2,
        )
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, rtol=0.0, atol=1e-12)
        rec = res.extras["recovery"]
        assert rec["stragglers_detected"] == [1, 1]
        assert len(rec["rebalances"]) == 1
        assert len(rec["shrinks"]) == 1
        assert rec["final_nprocs"] == 3


class TestFaultPlanRemap:
    def test_remap_renumbers_and_drops_the_victim(self):
        plan = FaultPlan(
            seed=0,
            crashes=[RankCrash(rank=1, at_time=1.0),
                     RankCrash(rank=3, at_time=2.0)],
            slowdowns=[RankSlowdown(rank=2, at_time=0.0, factor=10.0)],
        )
        plan.remap_ranks([0, 2, 3])  # rank 1 died
        assert [c.rank for c in plan.crash_schedule()] == [2]  # old 3 -> new 2
        assert [s.rank for s in plan.slowdown_schedule()] == [1]  # old 2 -> new 1

    def test_drop_slowdown_consumes(self):
        plan = FaultPlan(seed=0, slowdowns=[
            RankSlowdown(rank=2, at_time=0.0, factor=10.0)
        ])
        assert plan.slowdown_for(2) is not None
        plan.drop_slowdown(2)
        assert plan.slowdown_for(2) is None


class TestCapacityScaledPartitioner:
    def test_equal_capacities_reduce_to_balanced(self):
        rng = np.random.default_rng(7)
        weights = rng.integers(1, 9, size=60).astype(float)
        cuts = capacity_scaled_partitioner(weights, np.ones(4))
        expect = cg_balanced_partitioner_1(weights, 4)
        assert np.array_equal(cuts, expect)

    def test_straggler_gets_proportionally_less(self):
        weights = np.ones(90)
        cuts = capacity_scaled_partitioner(weights, np.array([1.0, 0.25, 1.0]))
        sizes = np.diff(cuts)
        assert sizes[1] < sizes[0] and sizes[1] < sizes[2]
        # bottleneck *time* is balanced: chunk weight / capacity
        times = [sizes[0] / 1.0, sizes[1] / 0.25, sizes[2] / 1.0]
        assert max(times) / min(times) < 2.0


class TestResliceSnapshots:
    @staticmethod
    def _snaps(x, r, p, dist):
        out = {}
        for rank in range(dist.nprocs):
            idx = dist.local_indices(rank)
            out[rank] = {
                "k": 5, "x": x[idx], "r": r[idx], "p": p[idx],
                "rho": 0.5, "rho0": 2.0, "residuals": [1.0, 0.1],
                "iterations": 5, "bnorm": 3.0,
            }
        return out

    def test_reslice_preserves_global_state(self):
        n = 11
        x = np.arange(n, dtype=float)
        r = x + 100.0
        p = x - 50.0
        old, new = Block(n, 4), Block(n, 3)
        snaps = self._snaps(x, r, p, old)
        resliced = reslice_snapshots(snaps, old, new)
        assert set(resliced) == {0, 1, 2}
        for key, ref in (("x", x), ("r", r), ("p", p)):
            rebuilt = np.empty(n)
            for rank in range(new.nprocs):
                rebuilt[new.local_indices(rank)] = resliced[rank][key]
            assert np.array_equal(rebuilt, ref)
        for snap in resliced.values():
            assert snap["k"] == 5 and snap["rho"] == 0.5
            assert snap["residuals"] == [1.0, 0.1] and snap["bnorm"] == 3.0

    def test_incomplete_checkpoint_rejected(self):
        n = 8
        x = np.arange(n, dtype=float)
        old = Block(n, 4)
        snaps = self._snaps(x, x, x, old)
        del snaps[2]
        with pytest.raises(ValueError):
            reslice_snapshots(snaps, old, Block(n, 3))


def _untimed(recovery):
    """A recovery record without its wall-clock fields."""
    rec = dict(recovery, recovery_wall=None)
    rec["attempt_log"] = [dict(e, elapsed=None) for e in rec["attempt_log"]]
    return rec


class TestInstanceRunsLikeName:
    """A backend instance runs the same solve as the backend's name.

    Regression: given an instance, ``backend_solve`` / ``hpcg_solve``
    dropped the straggler deadline and the plan's substrate share, so a
    crash never fired and a straggler was never detected.
    """

    #: fault -> (plan, straggler deadline, the recovery list it lands in)
    FAULTS = {
        "straggler": (lambda: FaultPlan(seed=0, slowdowns=[
            RankSlowdown(1, at_time=0.0, factor=50.0)]),
            1e-4, "stragglers_detected"),
        "crash": (lambda: FaultPlan(seed=0, crashes=[RankCrash(2, 1e-3)]),
                  None, "crashes_recovered"),
    }

    @staticmethod
    def _solve(entry, backend, faults, deadline):
        from repro.backend.chaos import (
            CHAOS_CRITERION,
            CHAOS_RESILIENCE,
            _chaos_problem,
        )
        from repro.hpcg import hpcg_solve

        common = dict(nprocs=4, criterion=CHAOS_CRITERION, faults=faults,
                      resilience=CHAOS_RESILIENCE, policy="shrink")
        if entry == "cg":
            A, b = _chaos_problem(48)
            return backend_solve("cg", A, b, backend=backend,
                                 straggler_deadline=deadline, **common)
        if isinstance(backend, str):  # a constructor argument, by name
            common["straggler_deadline"] = deadline
        return hpcg_solve(6, backend=backend, precond="jacobi", **common)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("entry", ["cg", "hpcg"])
    def test_same_recovery_record(self, entry, fault):
        plan, deadline, landed = self.FAULTS[fault]
        by_name = self._solve(entry, "simulated", plan(), deadline)
        instance = SimulatedBackend(
            straggler_deadline=deadline if entry == "hpcg" else None)
        by_instance = self._solve(entry, instance, plan(), deadline)
        rec = by_name.extras["recovery"]
        assert rec[landed] and rec["final_nprocs"] < 4  # fired, shrank
        assert _untimed(by_instance.extras["recovery"]) == _untimed(rec)
        assert by_instance.x.tobytes() == by_name.x.tobytes()
        assert instance.faults is None  # the instance kept its own plan

    def test_hpcg_refuses_constructor_arguments_for_an_instance(self):
        from repro.hpcg import hpcg_solve

        with pytest.raises(TypeError, match="straggler_deadline"):
            hpcg_solve(4, backend=SimulatedBackend(), nprocs=2,
                       straggler_deadline=1e-4)


class _AlwaysCrashBackend:
    """Fake substrate: every run loses rank 0 immediately."""

    name = "fake"
    faults = None

    def __init__(self):
        self.calls = 0

    def run(self, program, nprocs, checkpoints=None, options=None):
        self.calls += 1
        raise WorkerCrashedError(0, "staged fail-stop")


class _RestartableProgram:
    restart = None
    n = 8


class TestAttemptAccounting:
    def test_exhaustion_counts_initial_run_plus_restarts(self):
        be = _AlwaysCrashBackend()
        with pytest.raises(RecoveryExhaustedError) as err:
            run_with_recovery(be, _RestartableProgram(), 2, max_restarts=3)
        assert be.calls == 4  # the first run + 3 recovery attempts
        assert "3 recovery attempts" in str(err.value)

    def test_zero_restarts_still_runs_once(self):
        be = _AlwaysCrashBackend()
        with pytest.raises(RecoveryExhaustedError):
            run_with_recovery(be, _RestartableProgram(), 2, max_restarts=0)
        assert be.calls == 1


class TestProcessBackendConfig:
    """Satellite: heartbeat/deadline knobs via constructor and environment."""

    def test_env_run_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DEADLINE", "7.5")
        assert ProcessBackend().timeout == 7.5

    def test_env_run_deadline_none_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DEADLINE", "none")
        assert ProcessBackend().timeout is None

    def test_env_heartbeat_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
        assert ProcessBackend().heartbeat_interval == 0.05

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DEADLINE", "7.5")
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
        be = ProcessBackend(timeout=3.0, heartbeat_interval=0.2)
        assert be.timeout == 3.0 and be.heartbeat_interval == 0.2

    def test_malformed_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DEADLINE", "fast")
        with pytest.raises(ValueError, match="REPRO_RUN_DEADLINE"):
            ProcessBackend()

    def test_nonpositive_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "-1")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT_INTERVAL"):
            ProcessBackend()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(timeout=0.0)
        with pytest.raises(ValueError):
            ProcessBackend(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ProcessBackend(straggler_deadline=-1.0)
        with pytest.raises(ValueError, match="must exceed"):
            ProcessBackend(straggler_deadline=0.1, heartbeat_interval=0.5)


class _TimeoutProbeProgram:
    """Rank 0 recvs from a peer that never sends; returns the error fields."""

    def __init__(self, timeout):
        self.timeout = timeout

    def __call__(self, rank, size):
        if rank == 0:
            try:
                yield Recv(source=1, tag=9, timeout=self.timeout)
            except RecvTimeoutError as e:
                return {"rank": e.rank, "peer": e.peer, "tag": e.tag,
                        "elapsed": e.elapsed}
            return "unexpected message"
        yield Compute(1.0)
        return None


class TestRecvTimeoutAttributes:
    """Satellite: the timeout error carries the same fields on both backends."""

    def test_simulated_attrs(self):
        run = SimulatedBackend().run(_TimeoutProbeProgram(0.05), 2)
        got = run.results[0]
        assert got == {"rank": 0, "peer": 1, "tag": 9, "elapsed": 0.05}

    @needs_process
    def test_process_attrs(self):
        run = ProcessBackend(timeout=30.0).run(_TimeoutProbeProgram(0.3), 2)
        got = run.results[0]
        assert got == {"rank": 0, "peer": 1, "tag": 9, "elapsed": 0.3}
