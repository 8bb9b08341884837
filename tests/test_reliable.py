"""Tests for the stop-and-wait reliable messaging layer.

Message faults are injected where every backend injects them, at the Comm
boundary: the programs run wrapped in ``FaultInjectingProgram`` on a
fault-free scheduler (crash plans still go to the scheduler itself).
"""

import numpy as np
import pytest

from repro.backend import FaultInjectingProgram
from repro.machine import (
    Compute,
    FaultPlan,
    FaultRule,
    Machine,
    RankCrash,
    RankFailedError,
    ReliableConfig,
    ReliableEndpoint,
    Scheduler,
)
from repro.machine import reliable as rel
from repro.machine.reliable import checksum


class TestChecksum:
    def test_detects_single_entry_perturbation(self):
        a = np.arange(32.0)
        b = a.copy()
        b[17] += 1e-6
        assert checksum(a) != checksum(b)

    def test_order_sensitive(self):
        assert checksum(np.array([1.0, 2.0])) != checksum(np.array([2.0, 1.0]))
        assert checksum((1.0, 2.0)) != checksum((2.0, 1.0))

    def test_handles_scalars_and_containers(self):
        for payload in (None, 3, 2.5, (1, np.ones(2)), {"a": 1.0}, np.empty(0)):
            checksum(payload)  # must not raise
        assert checksum(5) != checksum(6)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ReliableConfig(base_timeout=0.0)
        with pytest.raises(ValueError):
            ReliableConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliableConfig(max_retries=-1)


def _p2p_program(telemetry, cfg):
    def prog(rank, size):
        ep = ReliableEndpoint(rank, cfg, telemetry=telemetry)
        if rank == 0:
            yield from ep.send(1, np.arange(16.0), tag=4)
            yield from ep.send(1, np.arange(4.0) + 100.0, tag=4)
            return None
        a = yield from ep.recv(0, tag=4)
        b = yield from ep.recv(0, tag=4)
        return float(a.sum()), float(b.sum())

    return prog


class TestPointToPoint:
    def test_retransmits_through_a_dropped_message(self):
        telemetry = {}
        cfg = ReliableConfig(base_timeout=1e-3)
        # drop the first data transmission on tag 4
        plan = FaultPlan(rules=[FaultRule(kind="drop", src=0, dst=1, tag=4, nth=1)])
        m = Machine(nprocs=2)
        results = Scheduler(m).run(FaultInjectingProgram(
            _p2p_program(telemetry, cfg), plan, return_log=True))
        assert results[1]["result"] == (sum(range(16)), 100 + 101 + 102 + 103)
        assert telemetry["retransmissions"] == 1
        assert telemetry["retransmitted_words"] > 0
        assert results[0]["fault_stats"]["dropped"] == 1

    def test_duplicate_discarded_not_redelivered(self):
        telemetry = {}
        plan = FaultPlan(rules=[FaultRule(kind="duplicate", src=0, dst=1, tag=4)])
        m = Machine(nprocs=2)
        results = Scheduler(m).run(FaultInjectingProgram(
            _p2p_program(telemetry, ReliableConfig(base_timeout=1e-3)), plan
        ))
        assert results[1] == (sum(range(16)), 100 + 101 + 102 + 103)

    def test_corrupted_packet_discarded_and_resent(self):
        telemetry = {}
        plan = FaultPlan(
            seed=5, rules=[FaultRule(kind="corrupt", src=0, dst=1, tag=4, nth=1)]
        )
        m = Machine(nprocs=2)
        results = Scheduler(m).run(FaultInjectingProgram(
            _p2p_program(telemetry, ReliableConfig(base_timeout=1e-3)), plan
        ))
        assert results[1] == (sum(range(16)), 100 + 101 + 102 + 103)
        assert telemetry["corrupt_discarded"] >= 1
        assert telemetry["retransmissions"] >= 1

    def test_sender_gives_up_on_dead_peer(self):
        def prog(rank, size):
            ep = ReliableEndpoint(rank, ReliableConfig(base_timeout=1e-4, max_retries=2))
            if rank == 0:
                yield from ep.send(1, 42, tag=1)
                return None
            yield Compute(1e12)  # never receives
            return None

        plan = FaultPlan(drop_prob=1.0)
        with pytest.raises(RankFailedError, match="no ack"):
            Scheduler(Machine(nprocs=2)).run(FaultInjectingProgram(prog, plan))


def _collective_program(telemetry):
    def prog(rank, size):
        ep = ReliableEndpoint(
            rank, ReliableConfig(base_timeout=1e-3), telemetry=telemetry
        )
        total = yield from rel.allreduce_sum(ep, rank, size, float(rank + 1))
        blocks = yield from rel.allgather(ep, rank, size, np.full(3, float(rank)))
        root_sum = yield from rel.reduce_to_root(ep, rank, size, float(rank))
        top = yield from rel.bcast(ep, rank, size, rank * 11, root=2)
        return total, float(np.concatenate(blocks).sum()), root_sum, top

    return prog


class TestReliableCollectives:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_collectives_survive_mixed_faults(self, seed):
        telemetry = {}
        plan = FaultPlan(
            seed=seed, drop_prob=0.15, duplicate_prob=0.1,
            corrupt_prob=0.1, delay_prob=0.05,
        )
        m = Machine(nprocs=4)
        runs = Scheduler(m).run(FaultInjectingProgram(
            _collective_program(telemetry), plan, return_log=True))
        for rank, run in enumerate(runs):
            total, gathered, root_sum, top = run["result"]
            assert total == 10.0
            assert gathered == 18.0
            assert root_sum == (6.0 if rank == 0 else None)
            assert top == 22
        # the run was actually exercised
        assert sum(run["fault_stats"]["dropped"] for run in runs) > 0

    def test_fault_free_collectives_have_no_retransmissions(self):
        telemetry = {}
        m = Machine(nprocs=4)
        results = Scheduler(m).run(_collective_program(telemetry))
        assert all(r[0] == 10.0 for r in results)
        assert telemetry["retransmissions"] == 0

    def test_crash_in_collective_raises_rank_failed(self):
        def prog(rank, size):
            ep = ReliableEndpoint(rank, ReliableConfig(base_timeout=1e-4, max_retries=3))
            yield Compute(1e6 * rank)
            return (yield from rel.allreduce_sum(ep, rank, size, 1.0))

        plan = FaultPlan(crashes=[RankCrash(rank=0, at_time=1e-5)])
        with pytest.raises(RankFailedError):
            Scheduler(Machine(nprocs=4), faults=plan).run(prog)

    def test_bit_identical_repeats(self):
        def run():
            telemetry = {}
            plan = FaultPlan(seed=5, drop_prob=0.2, duplicate_prob=0.1)
            m = Machine(nprocs=4)
            res = Scheduler(m).run(
                FaultInjectingProgram(_collective_program(telemetry), plan))
            return res, m.elapsed(), m.stats.total_words, dict(telemetry)

        assert run() == run()


class TestReliableEdgeCases:
    """ISSUE-mandated edge cases: exhaustion, duplicate acks, charged costs."""

    def test_exhaustion_raises_typed_error_with_bounded_attempts(self):
        telemetry = {}

        def prog(rank, size):
            ep = ReliableEndpoint(
                rank, ReliableConfig(base_timeout=1e-4, max_retries=3),
                telemetry=telemetry,
            )
            if rank == 0:
                yield from ep.send(1, np.arange(8.0), tag=2)
            else:
                yield Compute(1e12)  # never posts the receive
            return None

        plan = FaultPlan(drop_prob=1.0)
        with pytest.raises(RankFailedError, match="after 3 retries") as err:
            Scheduler(Machine(nprocs=2)).run(FaultInjectingProgram(prog, plan))
        assert err.value.rank == 1  # the peer that never acked
        assert telemetry["retransmissions"] == 3  # bounded, no hang

    def test_stale_and_duplicate_acks_are_idempotent_at_sender(self):
        # drive the send generator by hand: a stale ack for an already
        # completed sequence number must be skipped, not treated as the
        # ack of the in-flight message -- even when delivered twice
        ep = ReliableEndpoint(0, ReliableConfig(base_timeout=1.0))
        gen = ep.send(1, 7.0, tag=3)
        next(gen)              # the data Send (seq 0)
        gen.send(None)         # now waiting on the ack Recv
        with pytest.raises(StopIteration):
            gen.send(0)        # matching ack completes the send

        gen = ep.send(1, 8.0, tag=3)  # seq 1
        next(gen)
        op = gen.send(None)
        assert op.tag > 1 << 19       # the ack Recv
        op = gen.send(0)              # stale ack for seq 0: keep listening
        assert op.tag > 1 << 19
        op = gen.send(0)              # duplicated stale ack: still listening
        assert op.tag > 1 << 19
        with pytest.raises(StopIteration):
            gen.send(1)               # the real ack

    def test_duplicate_data_packet_reacked_and_discarded(self):
        telemetry = {}
        plan = FaultPlan(rules=[FaultRule(kind="duplicate", src=0, dst=1, tag=4)])
        m = Machine(nprocs=2)
        results = Scheduler(m).run(FaultInjectingProgram(
            _p2p_program(telemetry, ReliableConfig(base_timeout=1e-3)), plan
        ))
        assert results[1] == (sum(range(16)), 100 + 101 + 102 + 103)
        assert telemetry["duplicates_discarded"] >= 1
        # every duplicate is re-acked so a retransmitting sender can stop
        assert telemetry["acks"] >= 2 + telemetry["duplicates_discarded"]

    def test_retransmission_costs_charged_to_machine_stats(self):
        def run(plan):
            telemetry = {}
            m = Machine(nprocs=2)
            Scheduler(m).run(FaultInjectingProgram(
                _p2p_program(telemetry, ReliableConfig(base_timeout=1e-3)),
                plan,
            ))
            return m, telemetry

        clean_m, _ = run(FaultPlan.none())
        faulty_m, telemetry = run(
            FaultPlan(rules=[FaultRule(kind="drop", src=0, dst=1, tag=4, nth=1)])
        )
        assert telemetry["retransmissions"] == 1
        # the dropped copy never reached the wire (a NIC-level drop is not
        # charged); the retransmission is, and so is the ack timeout
        assert faulty_m.stats.total_words == clean_m.stats.total_words
        assert faulty_m.elapsed() >= clean_m.elapsed() + 1e-3
