"""Process-backend mechanics: platform probing, timeouts, failure paths.

The numerical behaviour is covered by the parity suite; this file tests
everything around it -- the support probe, the hard timeout actually
killing stray workers, worker exceptions surfacing as errors instead of
hangs, the stats mirror, the measured Chrome trace, and the spawn start
method (which requires picklable programs, hence the module-level
classes below).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.backend import (
    BackendError,
    BackendTimeoutError,
    ProcessBackend,
    WorkerFailedError,
    default_start_method,
    process_backend_support,
)
from repro.machine import Machine, RecvTimeoutError, Tracer
from repro.machine.events import Barrier, Compute, Recv, Send

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)


# ------------------------------------------------------------------ #
# module-level (picklable) programs, as the spawn start method requires
# ------------------------------------------------------------------ #
class EchoProgram:
    """Rank 0 sends its payload around the ring; everyone returns theirs."""

    def __call__(self, rank, size):
        yield Compute(10.0)
        right = (rank + 1) % size
        left = (rank - 1) % size
        yield Send(dest=right, payload=np.float64(rank), tag=1)
        got = yield Recv(source=left, tag=1)
        yield Barrier("done")
        return float(got)


class HangingRecvProgram:
    """Rank 1 posts a receive nobody will ever satisfy."""

    def __call__(self, rank, size):
        if rank == 1:
            got = yield Recv(source=0, tag=99)
            return got
        yield Compute(1.0)
        return rank


class SleepProgram:
    """Hangs in user code (not in a Recv), so only the parent can notice."""

    def __call__(self, rank, size):
        if rank == 1:
            time.sleep(3600.0)
        yield Compute(1.0)
        return rank


class RaisingProgram:
    def __call__(self, rank, size):
        yield Compute(1.0)
        if rank == 1:
            raise RuntimeError("deliberate rank failure")
        return rank


class SoftTimeoutProgram:
    """Per-op Recv timeout raises RecvTimeoutError *inside* the program."""

    def __call__(self, rank, size):
        try:
            got = yield Recv(source=(rank + 1) % size, tag=7, timeout=0.1)
            return got
        except RecvTimeoutError:
            return "timed out"


def test_support_probe_shape():
    ok, detail = process_backend_support()
    assert isinstance(ok, bool) and isinstance(detail, str) and detail
    assert default_start_method() in ("fork", "spawn")
    ok2, detail2 = process_backend_support("no-such-method")
    assert not ok2 and "no-such-method" in detail2


def test_support_probe_refuses_non_posix_host(monkeypatch):
    """The transport is pipes + select.poll + an unlinked shared mapping:
    the probe must say no up front instead of failing inside Fabric."""
    import select

    # patches are undone before asserting: pytest's own failure report
    # builds pathlib paths, which a patched os.name would break
    with monkeypatch.context() as patched:
        patched.setattr(os, "name", "nt")
        ok, detail = process_backend_support()
    assert not ok and "POSIX" in detail
    with monkeypatch.context() as patched:
        patched.delattr(select, "poll")
        ok, detail = process_backend_support()
    assert not ok and "select.poll" in detail


@needs_process
def test_echo_ring_and_stats_mirror():
    run = ProcessBackend(timeout=30.0).run(EchoProgram(), nprocs=4)
    # each rank receives its left neighbour's rank
    assert run.results == [3.0, 0.0, 1.0, 2.0]
    assert run.stats.total_messages == 4
    assert run.stats.total_words == 4.0  # one float64 word per message
    assert run.stats.total_flops == 40.0
    assert run.elapsed > 0.0
    assert len(run.per_rank) == 4
    for rep in run.per_rank:
        assert rep["wall"] >= 0.0 and rep["messages"] == 1.0
    ops = run.stats.by_op()
    assert "p2p" in ops and "barrier" in ops


@needs_process
def test_hard_timeout_kills_hanging_recv():
    backend = ProcessBackend(timeout=1.5)
    t0 = time.monotonic()
    with pytest.raises(BackendError) as excinfo:
        backend.run(HangingRecvProgram(), nprocs=2)
    # the worker's own deadline fires first and reports the stuck receive
    assert "timeout" in str(excinfo.value).lower()
    assert time.monotonic() - t0 < 30.0  # bounded, no grace-period pile-up


@needs_process
def test_parent_timeout_kills_sleeping_worker(monkeypatch):
    # the parent's deadline is timeout + grace; a short grace keeps the
    # test from waiting out the production 5 s
    monkeypatch.setattr("repro.backend.process._PARENT_GRACE", 0.2)
    with pytest.raises(BackendTimeoutError) as excinfo:
        ProcessBackend(timeout=1.0).run(SleepProgram(), nprocs=2)
    assert "ranks missing" in str(excinfo.value)
    # no stray repro-rank children left behind
    import multiprocessing as mp

    assert all(not c.name.startswith("repro-rank")
               for c in mp.active_children())


@needs_process
def test_worker_exception_surfaces():
    with pytest.raises(WorkerFailedError) as excinfo:
        ProcessBackend(timeout=30.0).run(RaisingProgram(), nprocs=2)
    assert "deliberate rank failure" in str(excinfo.value)


@needs_process
def test_soft_recv_timeout_is_catchable():
    run = ProcessBackend(timeout=30.0).run(SoftTimeoutProgram(), nprocs=2)
    assert run.results == ["timed out", "timed out"]


@needs_process
def test_measured_chrome_trace(tmp_path):
    run = ProcessBackend(timeout=30.0, trace=True).run(EchoProgram(), nprocs=2)
    assert run.trace is not None
    doc = run.trace.to_chrome_trace(process_name="echo")
    events = doc["traceEvents"]
    kinds = {e["ph"] for e in events}
    assert kinds == {"M", "X"}
    xs = [e for e in events if e["ph"] == "X"]
    assert xs and all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
    assert {e["tid"] for e in xs} == {0, 1}
    path = run.trace.write_chrome_trace(tmp_path / "trace.json")
    assert json.loads(path.read_text())["traceEvents"]


def test_simulated_chrome_trace(tmp_path):
    """The exporter also works on a machine-attached tracer (gantt --json)."""
    from repro import make_strategy
    from repro.sparse import poisson2d

    A = poisson2d(4, 4)
    machine = Machine(nprocs=2)
    tracer = Tracer.attach(machine)
    strategy = make_strategy("csc_private", machine, A)
    p = strategy.make_vector("p", np.linspace(0, 1, A.nrows))
    q = strategy.make_vector("q")
    strategy.apply(p, q)
    doc = tracer.to_chrome_trace()
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs and all(e["cat"] in ("compute", "comm") for e in xs)
    out = tracer.write_chrome_trace(tmp_path / "sim.json")
    assert out.exists() and json.loads(out.read_text())["traceEvents"]


@needs_process
@pytest.mark.skipif("spawn" not in __import__("multiprocessing").get_all_start_methods(),
                    reason="spawn start method unavailable")
def test_spawn_start_method_with_picklable_program():
    ok, detail = process_backend_support("spawn")
    if not ok:
        pytest.skip(f"spawn context unavailable: {detail}")
    run = ProcessBackend(start_method="spawn", timeout=60.0).run(
        EchoProgram(), nprocs=2
    )
    assert run.results == [1.0, 0.0]


@needs_process
def test_invalid_nprocs_and_dest():
    with pytest.raises(ValueError):
        ProcessBackend().run(EchoProgram(), nprocs=0)

    with pytest.raises(WorkerFailedError):
        ProcessBackend(timeout=10.0).run(BadDestProgram(), nprocs=2)


class BadDestProgram:
    def __call__(self, rank, size):
        yield Send(dest=5, payload=1.0, tag=0)
        return rank


# ------------------------------------------------------------------ #
# kernel handles are derived data: they never ride a pickle
# ------------------------------------------------------------------ #
def test_kernel_handles_never_leak_into_a_pickle():
    import pickle

    from repro.backend import CGRankProgram, SimulatedBackend
    from repro.backend.kernel import Collectives
    from repro.backend.programs import RowBlockOperator
    from repro.hpf.distribution import Block
    from repro.sparse import nas_cg_style

    A = nas_cg_style(96, seed=2)
    b = np.ones(A.nrows)
    program = CGRankProgram(A, b)
    size_A, size_program = len(pickle.dumps(A)), len(pickle.dumps(program))

    state = set(vars(A))
    A.matvec(b)  # the matrix's handle lives for one product, then is gone
    A.rmatvec(b)
    assert set(vars(A)) == state
    assert len(pickle.dumps(A)) == size_A
    assert len(pickle.dumps(CGRankProgram(A, b))) == size_program
    clone = pickle.loads(pickle.dumps(A))
    assert clone.matvec(b).tobytes() == A.matvec(b).tobytes()

    # a program pickled after the call still solves bitwise-equal
    before = SimulatedBackend(Machine(nprocs=2)).run(program, nprocs=2)
    shipped = pickle.loads(pickle.dumps(CGRankProgram(A, b)))
    after = SimulatedBackend(Machine(nprocs=2)).run(shipped, nprocs=2)
    for (x0, res0, *_), (x1, res1, *_) in zip(before.results, after.results):
        assert x0.tobytes() == x1.tobytes() and res0 == res1

    # the per-rank handle holds views of the program's arrays, not copies
    op = RowBlockOperator(program, Block(A.nrows, 2), 1, Collectives(1, 2))
    assert np.shares_memory(op.block.data, A.data)
    assert np.shares_memory(op.block.indices, A.indices)
