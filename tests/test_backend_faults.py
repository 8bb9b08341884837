"""Comm-level fault injection, ABFT checks, and cross-backend parity.

The injector is the piece that makes one seeded plan mean the same thing
on both backends; these tests pin its per-op semantics by driving the
wrapper generator by hand, then assert the headline property end to end:
identical FaultPlan seeds produce the identical injected-fault sequence
on the simulated and the process backend.
"""

import numpy as np
import pytest

from repro.backend import (
    CGRankProgram,
    FaultInjectingProgram,
    FaultInjector,
    SimulatedBackend,
    fault_sequence_parity,
    process_backend_support,
)
from repro.backend.abft import (
    AbftChecksumError,
    check_matvec,
    column_checksums,
    decode_dot,
    encode_dot,
)
from repro.backend.kernel import Collectives
from repro.machine.events import Barrier, Compute, Recv, Send
from repro.machine.faults import FaultPlan, FaultRule
from repro.sparse.generators import poisson1d, rhs_for_solution

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)


def _drain(gen, feed=None):
    """Collect every op a wrapped generator yields, resuming with ``feed``."""
    ops, value = [], None
    try:
        op = next(gen)
        while True:
            ops.append(op)
            value = feed.pop(0) if feed else None
            op = gen.send(value)
    except StopIteration as stop:
        return ops, stop.value


def _rule_plan(kind, tag, nth=None):
    return FaultPlan(seed=1, rules=[FaultRule(kind=kind, tag=tag, nth=nth)])


class TestFaultInjector:
    def test_drop_swallows_the_send(self):
        def prog():
            yield Send(dest=1, payload=1.0, tag=5)
            yield Compute(1.0)
            return "done"

        inj = FaultInjector(_rule_plan("drop", tag=5), rank=0)
        ops, result = _drain(inj.wrap(prog()))
        assert [type(o).__name__ for o in ops] == ["Compute"]
        assert result == "done"
        assert inj.log == [(1, "drop", 1, 5)]

    def test_duplicate_yields_twice(self):
        def prog():
            yield Send(dest=1, payload=2.0, tag=5)

        inj = FaultInjector(_rule_plan("duplicate", tag=5), rank=0)
        ops, _ = _drain(inj.wrap(prog()))
        assert [o.payload for o in ops if isinstance(o, Send)] == [2.0, 2.0]

    def test_corrupt_perturbs_payload(self):
        def prog():
            yield Send(dest=1, payload=np.arange(8.0), tag=5)

        inj = FaultInjector(_rule_plan("corrupt", tag=5), rank=0)
        ops, _ = _drain(inj.wrap(prog()))
        assert len(ops) == 1
        assert not np.array_equal(ops[0].payload, np.arange(8.0))

    def test_delay_defers_until_next_blocking_op(self):
        def prog():
            yield Send(dest=1, payload="early", tag=5)
            yield Send(dest=1, payload="late", tag=6)
            got = yield Recv(source=1, tag=7)
            return got

        inj = FaultInjector(_rule_plan("delay", tag=5), rank=0)
        ops, result = _drain(inj.wrap(prog()), feed=[None, None, "reply"])
        kinds = [
            (type(o).__name__, getattr(o, "payload", None)) for o in ops
        ]
        # the delayed tag-5 send is reordered behind tag 6, but flushed
        # before the Recv blocks
        assert kinds == [
            ("Send", "late"), ("Send", "early"), ("Recv", None)
        ]
        assert result == "reply"

    def test_delay_flushes_at_program_end(self):
        def prog():
            yield Send(dest=1, payload="only", tag=5)

        inj = FaultInjector(_rule_plan("delay", tag=5), rank=0)
        ops, _ = _drain(inj.wrap(prog()))
        assert [o.payload for o in ops] == ["only"]

    def test_control_and_self_sends_exempt(self):
        def prog():
            yield Send(dest=1, payload="ack", tag=5, control=True)
            yield Send(dest=0, payload="self", tag=5)

        inj = FaultInjector(_rule_plan("drop", tag=5), rank=0)
        ops, _ = _drain(inj.wrap(prog()))
        assert [o.payload for o in ops] == ["ack", "self"]
        assert inj.log == []

    def test_recv_timeout_forwarded_into_program(self):
        from repro.backend import RecvTimeoutError

        def prog():
            try:
                yield Recv(source=1, tag=5, timeout=1e-3)
            except RecvTimeoutError:
                return "timed out"
            return "delivered"

        inj = FaultInjector(FaultPlan(seed=0), rank=0)
        gen = inj.wrap(prog())
        next(gen)
        with pytest.raises(StopIteration) as stop:
            gen.throw(RecvTimeoutError("boom"))
        assert stop.value.value == "timed out"

    def test_fault_free_plan_is_transparent(self):
        def program(rank, size):
            comm = Collectives(rank, size)
            total = yield from comm.allreduce_vec(np.array([rank + 1.0]))
            blocks = yield from comm.allgather(np.full(2, float(rank)))
            return float(total[0]), float(np.concatenate(blocks).sum())

        run = SimulatedBackend().run(
            FaultInjectingProgram(program, FaultPlan(seed=3)), 4)
        assert all(r == (10.0, 12.0) for r in run.results)

    def test_rank_local_plans_are_independent(self):
        plan = FaultPlan(seed=9, drop_prob=0.5)
        a, b = plan.for_rank(0), plan.for_rank(1)
        assert a.seed != b.seed

        def sends():
            for i in range(32):
                yield Send(dest=2, payload=float(i), tag=5)

        logs = []
        for rank, local in ((0, a), (1, b)):
            inj = FaultInjector(local, rank)
            _drain(inj.wrap(sends()))
            logs.append([entry[0] for entry in inj.log])
        # each sender draws its own stream: same op sequence, other drops
        assert logs[0] and logs[1] and logs[0] != logs[1]


class RingProgram:
    """Each rank passes a value right and returns what it got from the left."""

    def __call__(self, rank, size):
        yield Send(dest=(rank + 1) % size, payload=float(rank), tag=1)
        got = yield Recv(source=(rank - 1) % size, tag=1)
        yield Barrier("done")
        return float(got)


class TestAbft:
    def test_dot_roundtrip(self):
        pair = encode_dot(3.25)
        assert decode_dot(pair) == 3.25

    def test_dot_detects_single_slot_corruption(self):
        pair = encode_dot(3.25)
        pair[1] += 1e-9
        with pytest.raises(AbftChecksumError):
            decode_dot(pair)

    @staticmethod
    def _csr_product(n=16):
        A = poisson1d(n)
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        colsum, abs_colsum = column_checksums(n, A.indices, A.data)
        p = np.linspace(0.5, 2.0, n)
        q = np.zeros(n)
        np.add.at(q, rows, A.data * p[A.indices])
        return q, colsum, abs_colsum, p

    def test_matvec_checksum_accepts_true_product(self):
        q, colsum, abs_colsum, p = self._csr_product()
        check_matvec(float(q.sum()), colsum, abs_colsum, p)  # must not raise

    def test_matvec_checksum_rejects_corruption(self):
        q, colsum, abs_colsum, p = self._csr_product()
        with pytest.raises(AbftChecksumError):
            check_matvec(float(q.sum()) + 1.0, colsum, abs_colsum, p)


class TestFaultSequenceParity:
    # Corrupted/reordered payloads can desynchronize a *convergence-driven*
    # stopping decision across ranks of the plain (non-fault-tolerant) CG
    # and deadlock it, so parity runs cap the iteration count: control flow
    # -- and hence each rank's send sequence -- is fixed regardless of what
    # the faults do to the values.
    @staticmethod
    def _fixed_length_cg():
        A = poisson1d(24)
        b = rhs_for_solution(A, np.linspace(1.0, 2.0, 24))
        from repro.core.stopping import StoppingCriterion

        return CGRankProgram(
            A, b, criterion=StoppingCriterion(rtol=1e-300, maxiter=8)
        )

    def test_same_seed_same_sequence_simulated_twice(self):
        # determinism of the injector alone, no process backend needed
        plan = FaultPlan(
            seed=17, corrupt_prob=0.05, duplicate_prob=0.05, delay_prob=0.05
        )
        prog_factory = self._fixed_length_cg()

        def run():
            prog = FaultInjectingProgram(
                prog_factory, plan.clone(), return_log=True
            )
            return [
                r["fault_log"] for r in SimulatedBackend().run(prog, 2).results
            ]

        first, second = run(), run()
        assert first == second
        assert any(first)  # faults were actually injected

    @needs_process
    def test_cross_backend_parity_cg(self):
        # drop-free plan: a non-retransmitting program + drops would hang,
        # and retransmission counts are timing-dependent anyway
        plan = FaultPlan(
            seed=23, corrupt_prob=0.04, duplicate_prob=0.04, delay_prob=0.04
        )
        report = fault_sequence_parity(
            self._fixed_length_cg(), plan, nprocs=2
        )
        assert report.sequences_equal
        assert any(report.logs_simulated)
