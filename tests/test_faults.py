"""Unit tests for deterministic fault injection (machine layer)."""

import numpy as np
import pytest

from repro.backend import FaultInjectingProgram, SimulatedBackend
from repro.machine import (
    ANY_SOURCE,
    Barrier,
    Compute,
    DeadlockError,
    FaultPlan,
    FaultRule,
    Machine,
    RankCrash,
    RankFailedError,
    Recv,
    RecvTimeoutError,
    Send,
    Scheduler,
    StateCorruption,
    run_spmd,
)


class TestFaultPlanValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_prob=-0.1)

    def test_probabilities_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=0.6, duplicate_prob=0.6)

    def test_one_crash_per_rank(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=[RankCrash(0, 1.0), RankCrash(0, 2.0)])

    def test_rule_kind_checked(self):
        with pytest.raises(ValueError):
            FaultRule(kind="explode")
        with pytest.raises(ValueError):
            FaultRule(kind="drop", nth=0)

    def test_corruption_target_checked(self):
        with pytest.raises(ValueError):
            StateCorruption(iteration=1, target="q")
        with pytest.raises(ValueError):
            StateCorruption(iteration=0)

    def test_none_plan_is_inert(self):
        plan = FaultPlan.none()
        assert not plan.enabled
        assert FaultPlan(drop_prob=0.1).enabled
        assert FaultPlan(crashes=[RankCrash(0, 1.0)]).enabled
        assert FaultPlan(
            state_corruptions=[StateCorruption(iteration=3)]
        ).enabled


class TestFaultPlanDraws:
    def test_clone_replays_identical_decisions(self):
        plan = FaultPlan(seed=9, drop_prob=0.3, corrupt_prob=0.2, delay_prob=0.1)
        a = [plan.next_action(0, 1, 0) for _ in range(200)]
        b_plan = plan.clone()
        b = [b_plan.next_action(0, 1, 0) for _ in range(200)]
        assert a == b
        assert any(x != "deliver" for x in a)

    def test_rule_overrides_probability(self):
        plan = FaultPlan(rules=[FaultRule(kind="drop", src=0, dst=1, nth=2)])
        assert plan.next_action(0, 1, 0) == "deliver"  # first match: not nth
        assert plan.next_action(0, 2, 0) == "deliver"  # different dst
        assert plan.next_action(0, 1, 0) == "drop"  # second match
        assert plan.next_action(0, 1, 0) == "deliver"  # nth consumed
        assert plan.stats.dropped == 1

    def test_corrupt_payload_preserves_structure(self):
        plan = FaultPlan(seed=1)
        arr = np.arange(8.0)
        out = plan.corrupt_payload(arr)
        assert out.shape == arr.shape
        assert np.sum(out != arr) == 1  # exactly one perturbed entry
        tup = (3, 4.0, np.ones(3))
        out_t = plan.corrupt_payload(tup)
        assert isinstance(out_t, tuple) and len(out_t) == 3

    def test_crash_schedule_consumed_once(self):
        plan = FaultPlan(crashes=[RankCrash(rank=1, at_time=0.5)])
        assert plan.has_scheduled_crash(1)
        assert not plan.crash_due(1, 0.4)
        assert plan.crash_due(1, 0.5)
        assert plan.fire_crash(1) == 0.5
        assert not plan.has_scheduled_crash(1)
        assert plan.stats.crashed_ranks == [1]

    def test_state_corruption_rank_filter_and_consumption(self):
        plan = FaultPlan(
            state_corruptions=[StateCorruption(iteration=4, target="r", rank=2)]
        )
        assert plan.take_state_corruption(4, rank=0) is None
        got = plan.take_state_corruption(4, rank=2)
        assert got is not None and got.target == "r"
        assert plan.take_state_corruption(4, rank=2) is None  # consumed


def _pingpong(rank, size):
    if rank == 0:
        yield Send(dest=1, payload=np.arange(4.0), tag=7)
        return (yield Recv(source=1, tag=8))
    data = yield Recv(source=0, tag=7)
    yield Send(dest=0, payload=float(np.sum(data)), tag=8)
    return data


class TestSchedulerInjection:
    """Message faults enter at the Comm boundary: each program below runs
    wrapped in ``FaultInjectingProgram`` on a fault-free scheduler."""

    def test_scheduler_and_backend_refuse_message_fault_plans(self):
        plan = FaultPlan(rules=[FaultRule(kind="drop", src=0, dst=1, tag=7)])
        with pytest.raises(ValueError, match="FaultInjectingProgram"):
            Scheduler(Machine(nprocs=2), faults=plan)
        with pytest.raises(ValueError, match="FaultInjectingProgram"):
            SimulatedBackend(faults=FaultPlan(drop_prob=0.1)).run(_pingpong, 2)
        # the substrate share (crashes, slowdowns) is still accepted
        crash = FaultPlan(drop_prob=0.1, crashes=[RankCrash(1, 1.0)])
        Scheduler(Machine(nprocs=2), faults=crash.substrate_plan())

    def test_targeted_drop_stalls_unprotected_program(self):
        m = Machine(nprocs=2)
        plan = FaultPlan(rules=[FaultRule(kind="drop", src=0, dst=1, tag=7)])
        with pytest.raises(DeadlockError):
            run_spmd(m, FaultInjectingProgram(_pingpong, plan))
        # a NIC-level drop never enters the network: nothing is charged
        assert m.stats.total_messages == 0

    def test_duplicate_delivers_twice(self):
        def prog(rank, size):
            if rank == 0:
                yield Send(dest=1, payload=5)
                return None
            first = yield Recv(source=0)
            second = yield Recv(source=0)
            return (first, second)

        plan = FaultPlan(rules=[FaultRule(kind="duplicate", src=0, dst=1)])
        results = run_spmd(Machine(nprocs=2), FaultInjectingProgram(prog, plan))
        assert results[1] == (5, 5)

    def test_corruption_perturbs_payload_in_flight(self):
        plan = FaultPlan(seed=2, rules=[FaultRule(kind="corrupt", src=0, dst=1)])
        results = run_spmd(Machine(nprocs=2),
                           FaultInjectingProgram(_pingpong, plan))
        assert np.sum(results[1] != np.arange(4.0)) == 1

    def test_delay_adds_latency(self):
        # a delayed send leaves at the sender's next blocking op (here:
        # program end), so the receiver sees it after the sender's compute
        def prog(rank, size):
            if rank == 0:
                yield Send(dest=1, payload=1.0, tag=7)
                yield Compute(2.5e8)
                return None
            return (yield Recv(source=0, tag=7))

        m_ref, m_del = Machine(nprocs=2), Machine(nprocs=2)
        run_spmd(m_ref, prog)
        plan = FaultPlan(seed=3, rules=[FaultRule(kind="delay", src=0, dst=1)])
        assert run_spmd(m_del, FaultInjectingProgram(prog, plan))[1] == 1.0
        assert m_del.clock[1] > m_ref.clock[1] + 0.1

    def test_self_message_exempt_from_injection(self):
        def prog(rank, size):
            yield Send(dest=rank, payload=rank * 10)
            return (yield Recv(source=rank))

        plan = FaultPlan(drop_prob=1.0)
        assert run_spmd(Machine(nprocs=2),
                        FaultInjectingProgram(prog, plan)) == [0, 10]

    def test_control_messages_exempt_from_injection(self):
        def prog(rank, size):
            if rank == 0:
                yield Send(dest=1, payload=1, control=True)
                return None
            return (yield Recv(source=0))

        plan = FaultPlan(drop_prob=1.0)
        assert run_spmd(Machine(nprocs=2),
                        FaultInjectingProgram(prog, plan)) == [None, 1]

    def test_inert_plan_identical_to_no_plan(self):
        m_a, m_b = Machine(nprocs=2), Machine(nprocs=2)
        run_spmd(m_a, _pingpong)
        run_spmd(m_b, FaultInjectingProgram(_pingpong, FaultPlan.none()),
                 faults=FaultPlan.none())
        assert m_a.elapsed() == m_b.elapsed()
        assert m_a.stats.total_words == m_b.stats.total_words


class TestCrashes:
    def test_crash_raises_rank_failed(self):
        def prog(rank, size):
            for _ in range(10):
                yield Compute(1e6)
            return rank

        plan = FaultPlan(crashes=[RankCrash(rank=1, at_time=2e-3)])
        with pytest.raises(RankFailedError, match=r"\[1\]"):
            run_spmd(Machine(nprocs=2), prog, faults=plan)

    def test_crash_of_awaited_peer_surfaces_as_rank_failed(self):
        def prog(rank, size):
            if rank == 0:
                return (yield Recv(source=1))
            yield Compute(1e9)  # crashes mid-compute, never sends
            yield Send(dest=0, payload=1)
            return None

        plan = FaultPlan(crashes=[RankCrash(rank=1, at_time=1e-4)])
        with pytest.raises(RankFailedError):
            run_spmd(Machine(nprocs=2), prog, faults=plan)

    def test_barrier_with_crashed_rank_raises_rank_failed(self):
        def prog(rank, size):
            yield Compute(1e6 * (rank + 1))
            yield Barrier()
            return rank

        plan = FaultPlan(crashes=[RankCrash(rank=2, at_time=1e-4)])
        with pytest.raises(RankFailedError, match="barrier"):
            run_spmd(Machine(nprocs=4), prog, faults=plan)

    def test_messages_to_dead_rank_are_lost(self):
        def prog(rank, size):
            if rank == 0:
                yield Compute(1e6)  # crash hits during this
                return None
            yield Compute(2e6)  # outlive the crash before sending
            yield Send(dest=0, payload=np.ones(3))
            return rank

        plan = FaultPlan(crashes=[RankCrash(rank=0, at_time=1e-5)])
        with pytest.raises(RankFailedError):
            run_spmd(Machine(nprocs=2), prog, faults=plan)
        assert plan.stats.lost_to_dead_rank == 1
        assert plan.stats.crashed_ranks == [0]


class TestRecvTimeout:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            Recv(source=0, timeout=0.0)
        with pytest.raises(ValueError):
            Recv(source=0, timeout=-1.0)

    def test_timeout_fires_when_no_sender(self):
        caught = []

        def prog(rank, size):
            if rank == 0:
                try:
                    yield Recv(source=1, timeout=0.5)
                except RecvTimeoutError as e:
                    caught.append(str(e))
                return "gave up"
            return None  # never sends

        m = Machine(nprocs=2)
        results = run_spmd(m, prog)
        assert results[0] == "gave up"
        assert caught and "timed out" in caught[0]
        assert m.clock[0] == pytest.approx(0.5)  # clock advanced to deadline

    def test_timeout_does_not_fire_when_message_arrives(self):
        def prog(rank, size):
            if rank == 0:
                return (yield Recv(source=1, timeout=1.0))
            yield Compute(1e6)  # slow, but well inside the deadline
            yield Send(dest=0, payload=99)
            return None

        assert run_spmd(Machine(nprocs=2), prog)[0] == 99

    def test_earliest_deadline_fires_first(self):
        order = []

        def prog(rank, size):
            if rank == 3:
                return None
            try:
                yield Recv(source=3, timeout=0.1 * (rank + 1))
            except RecvTimeoutError:
                order.append(rank)
            return None

        run_spmd(Machine(nprocs=4), prog)
        assert order == [0, 1, 2]

    def test_timeout_beats_simultaneous_later_crash(self):
        """A retry deadline due before a crash must fire before it."""
        def prog(rank, size):
            if rank == 0:
                try:
                    yield Recv(source=1, timeout=0.01)
                except RecvTimeoutError:
                    return "retried"
                return "got data"
            yield Recv(source=0)  # blocks forever; crash scheduled far out
            return None

        plan = FaultPlan(crashes=[RankCrash(rank=1, at_time=100.0)])
        with pytest.raises(RankFailedError):
            # rank 0 times out first (returns "retried"), then the stall
            # remains and rank 1's crash fires -> run fails overall
            run_spmd(Machine(nprocs=2), prog, faults=plan)


class TestDiagnostics:
    def test_invalid_recv_source_is_immediate_value_error(self):
        def prog(rank, size):
            yield Recv(source=7)

        with pytest.raises(ValueError, match="invalid rank 7"):
            run_spmd(Machine(nprocs=2), prog)

    def test_deadlock_message_lists_pending_sends(self):
        def prog(rank, size):
            if rank == 0:
                yield Send(dest=1, payload=np.zeros(6), tag=3)
                return None
            return (yield Recv(source=0, tag=4))  # mismatched tag

        with pytest.raises(DeadlockError, match=r"0 -> 1 \(tag=3, words=6\)"):
            run_spmd(Machine(nprocs=2), prog)
