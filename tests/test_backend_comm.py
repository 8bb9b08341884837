"""Unit tests for the communication primitives rank programs yield.

Rank programs talk to a backend through the raw GenOp events of
``repro.machine.events`` and the binomial-tree collectives of
``repro.machine.spmd`` (bound per rank by ``kernel.Collectives``).  These
tests drive them on the simulated backend and check (a) the semantics of
every primitive and collective and (b) that ``Collectives`` reduces in
exactly the same order as calling ``spmd.*`` directly -- the property the
cross-backend bitwise parity rests on.
"""

import numpy as np
import pytest

from repro.backend import SimulatedBackend
from repro.backend.kernel import Collectives
from repro.machine import spmd
from repro.machine.events import Barrier, Compute, Recv, Send


def _run(program, nprocs):
    # "complete" accepts any rank count (hypercube wants powers of two)
    return SimulatedBackend(topology="complete").run(program, nprocs)


def test_send_recv_roundtrip():
    def program(rank, size):
        if rank == 0:
            yield Send(dest=1, payload={"x": 42}, tag=4)
            reply = yield Recv(source=1, tag=5)
            return reply
        payload = yield Recv(source=0, tag=4)
        yield Send(dest=0, payload=payload["x"] + 1, tag=5)
        return payload

    run = _run(program, 2)
    assert run.results[0] == 43
    assert run.results[1] == {"x": 42}
    assert run.stats.total_messages == 2


def test_compute_charges_declared_flops():
    def program(rank, size):
        yield Compute(100.0 * (rank + 1))
        return rank

    run = _run(program, 3)
    assert run.stats.flops_per_rank.tolist() == [100.0, 200.0, 300.0]
    assert run.per_rank[2]["flops"] == 300.0


def test_barrier_aligns_clocks():
    def program(rank, size):
        yield Compute(1000.0 * rank)  # deliberately unbalanced
        yield Barrier("sync")
        return rank

    run = _run(program, 4)
    assert run.results == [0, 1, 2, 3]
    # after the barrier every rank has waited up to the slowest one
    assert run.elapsed >= 3000.0 * 1e-9  # 3000 flops at default t_flop


@pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
def test_collectives_semantics(nprocs):
    root = min(1, nprocs - 1)

    def program(rank, size):
        rooted = yield from spmd.bcast(
            rank, size, 10 if rank == root else None, root=root)
        total = yield from spmd.allreduce_sum(rank, size, float(rank + 1))
        red = yield from spmd.reduce_to_root(rank, size, float(rank + 1))
        gat = yield from spmd.gather_to_root(rank, size, rank)
        allg = yield from spmd.allgather(rank, size, rank * 2)
        scat = yield from spmd.scatter_from_root(
            rank, size,
            [f"item{i}" for i in range(size)] if rank == 0 else None,
        )
        return rooted, total, red, gat, allg, scat

    run = _run(program, nprocs)
    expected_sum = float(nprocs * (nprocs + 1) / 2)
    for rank, (rooted, total, red, gat, allg, scat) in enumerate(run.results):
        assert rooted == 10
        assert total == expected_sum
        assert allg == [r * 2 for r in range(nprocs)]
        assert scat == f"item{rank}"
        if rank == 0:
            assert red == expected_sum
            assert gat == list(range(nprocs))
        else:
            assert gat is None


def test_comm_collectives_match_raw_spmd_bitwise():
    """Same reduction order => bitwise-identical float results."""
    rng = np.random.default_rng(7)
    values = [float(v) for v in rng.standard_normal(4)]

    def via_collectives(rank, size):
        comm = Collectives(rank, size)
        result = yield from comm.allreduce_vec(np.array([values[rank]]),
                                               tag=3)
        return float(result[0])

    def via_spmd(rank, size):
        result = yield from spmd.allreduce_sum(rank, size, values[rank], tag=3)
        return result

    a = _run(via_collectives, 4)
    b = _run(via_spmd, 4)
    assert a.results == b.results  # exact equality, not allclose
    # a 1-slot vector is the scalar tree: same messages, words and tags
    assert a.stats.total_messages == b.stats.total_messages
    assert a.stats.total_words == b.stats.total_words
    # and the tree order differs from naive left-to-right summation
    assert a.results[0] == pytest.approx(sum(values))


def test_comm_send_nwords_override():
    def program(rank, size):
        if rank == 0:
            yield Send(dest=1, payload=None, tag=1, nwords=512)
        else:
            yield Recv(source=0, tag=1)
        return rank

    run = _run(program, 2)
    assert run.stats.total_words == 512
