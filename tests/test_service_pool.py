"""Warm pool mechanics: reuse, condemnation, healing, crash handling.

Everything here runs real OS processes; the numerical path through the
pool is identical to the one-shot backend (same ``_drive``), so these
tests focus on generation lifecycle -- the part that is new.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.backend import (
    BackendTimeoutError,
    WorkerFailedError,
    process_backend_support,
)
from repro.backend.base import WorkerCrashedError
from repro.backend.process import ProcessBackend, crash_injection_support
from repro.machine.events import Barrier, Compute, Recv, Send
from repro.service import WarmPool, leaked_pool_workers

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)
_KILL_OK, _KILL_DETAIL = crash_injection_support()
needs_kill = pytest.mark.skipif(
    not _KILL_OK, reason=f"crash injection unavailable: {_KILL_DETAIL}"
)


# ------------------------------------------------------------------ #
# module-level (picklable) programs
# ------------------------------------------------------------------ #
class RingProgram:
    """Every rank passes its id right and returns what arrived from left."""

    def __call__(self, rank, size):
        yield Compute(10.0)
        yield Send(dest=(rank + 1) % size, payload=np.float64(rank), tag=1)
        got = yield Recv(source=(rank - 1) % size, tag=1)
        yield Barrier("done")
        return float(got)


class FailOnceMarkerProgram:
    """Rank 1 raises; used to condemn a generation on demand."""

    def __call__(self, rank, size):
        yield Compute(1.0)
        if rank == 1:
            raise RuntimeError("deliberate pool-job failure")
        return rank


class BlockingRecvProgram:
    """Rank 0 posts a receive nobody satisfies (deadline fodder)."""

    def __call__(self, rank, size):
        if rank == 0:
            got = yield Recv(source=1, tag=99)
            return got
        yield Compute(1.0)
        return rank


def _expected_ring(size):
    return [float((r - 1) % size) for r in range(size)]


@pytest.fixture
def pool():
    p = WarmPool(2, timeout=30.0)
    yield p
    p.shutdown()
    # the reaper uses bounded joins; give the OS a beat, then assert
    deadline = time.monotonic() + 5.0
    while leaked_pool_workers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert leaked_pool_workers() == []


@needs_process
class TestWarmReuse:
    def test_workers_survive_across_jobs(self, pool):
        r1 = pool.run(RingProgram(), 2)
        pids = sorted(w.pid for w in pool._gen.workers)
        r2 = pool.run(RingProgram(), 2)
        r3 = pool.run(RingProgram(), 2)
        assert r1.results == r2.results == r3.results == _expected_ring(2)
        assert sorted(w.pid for w in pool._gen.workers) == pids
        assert pool.rebuilds == 1  # one generation served all three
        assert pool.jobs_served == 3
        assert pool.healthy()

    def test_stats_and_per_rank_reports_intact(self, pool):
        run = pool.run(RingProgram(), 2)
        assert run.stats.total_messages == 2
        assert run.stats.total_flops == 20.0
        assert len(run.per_rank) == 2
        assert all(rep["wall"] >= 0.0 for rep in run.per_rank)

    def test_size_change_rebuilds(self, pool):
        pool.run(RingProgram(), 2)
        run = pool.run(RingProgram(), 1)  # shrink request
        assert run.results == [0.0]
        assert pool.generation_size == 1
        assert pool.rebuilds == 2

    def test_context_manager_shuts_down(self):
        with WarmPool(2, timeout=30.0) as p:
            p.run(RingProgram(), 2)
        time.sleep(0.2)
        assert leaked_pool_workers() == []


@needs_process
class TestCondemnation:
    def test_worker_error_condemns_and_next_run_rebuilds(self, pool):
        pool.run(RingProgram(), 2)
        first_rebuilds = pool.rebuilds
        with pytest.raises(WorkerFailedError) as err:
            pool.run(FailOnceMarkerProgram(), 2)
        assert "deliberate pool-job failure" in str(err.value)
        assert pool.generation_size == 0  # condemned immediately
        run = pool.run(RingProgram(), 2)  # transparently rebuilt
        assert run.results == _expected_ring(2)
        assert pool.rebuilds == first_rebuilds + 1

    def test_deadline_condemns(self, pool):
        pool.timeout = 1.0
        # the worker-side hard deadline usually fires first and surfaces
        # as a WorkerFailedError embedding the BackendTimeoutError (same
        # as the one-shot backend; classify_failure maps both to
        # "timeout"); the parent-side deadline raises the typed error
        with pytest.raises((BackendTimeoutError, WorkerFailedError)) as err:
            pool.run(BlockingRecvProgram(), 2)
        assert "BackendTimeoutError" in f"{type(err.value).__name__}" \
            or "BackendTimeoutError" in str(err.value)
        assert pool.generation_size == 0
        time.sleep(0.2)
        assert leaked_pool_workers() == []  # condemned = fully reaped
        pool.timeout = 30.0
        assert pool.run(RingProgram(), 2).results == _expected_ring(2)

    @needs_kill
    def test_external_sigkill_is_failstop_crash(self, pool):
        pool.run(RingProgram(), 2)
        rebuilds_before = pool.rebuilds
        victim = pool._gen.workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        # the kill races the next dispatch: usually the job is in flight
        # when the death is noticed and surfaces as a typed fail-stop
        # crash; if _ensure_generation sees the corpse first it rebuilds
        # up front and the job succeeds (the idle-death path below).
        # Either way the generation is condemned, rebuilt exactly once,
        # and never produces a wrong answer.
        try:
            run = pool.run(RingProgram(), 2)
        except (WorkerCrashedError, WorkerFailedError):
            pass
        else:
            assert run.results == _expected_ring(2)
        # rebuilt generation serves normally
        assert pool.run(RingProgram(), 2).results == _expected_ring(2)
        assert pool.rebuilds == rebuilds_before + 1

    def test_idle_worker_death_detected_on_next_run(self, pool):
        pool.run(RingProgram(), 2)
        if not _KILL_OK:
            pytest.skip(_KILL_DETAIL)
        os.kill(pool._gen.workers[0].pid, signal.SIGKILL)
        time.sleep(0.2)
        # _ensure_generation sees the dead worker and rebuilds up front,
        # so the job itself still succeeds
        run = pool.run(RingProgram(), 2)
        assert run.results == _expected_ring(2)
        assert pool.rebuilds == 2


@needs_process
class TestHeal:
    def test_heal_regrows_to_target(self, pool):
        pool.run(RingProgram(), 1)
        assert pool.generation_size == 1
        assert pool.heal() == 2  # back to target_nprocs
        assert pool.run(RingProgram(), 2).results == _expected_ring(2)

    def test_heal_is_cheap_when_healthy(self, pool):
        pool.run(RingProgram(), 2)
        pids = sorted(w.pid for w in pool._gen.workers)
        assert pool.heal() == 2
        assert sorted(w.pid for w in pool._gen.workers) == pids
        assert pool.rebuilds == 1  # no-op, not a rebuild

    def test_heal_on_cold_pool_builds(self):
        with WarmPool(2, timeout=30.0) as p:
            assert p.generation_size == 0
            assert p.heal() == 2
            assert p.healthy()


@needs_process
class TestShutdown:
    def test_shutdown_idempotent_and_leakfree(self):
        p = WarmPool(2, timeout=30.0)
        p.run(RingProgram(), 2)
        p.shutdown()
        p.shutdown()  # second call is a no-op
        time.sleep(0.2)
        assert leaked_pool_workers() == []
        assert p.generation_size == 0

    def test_shutdown_unstarted_pool(self):
        WarmPool(2).shutdown()  # nothing to do, nothing to raise


def test_broken_barrier_report_does_not_mask_the_peers_root_cause():
    """A rank can still be leaving the start barrier when a failing peer
    aborts it; its BrokenBarrierError may reach the parent first."""
    import queue
    from types import SimpleNamespace

    workers = [SimpleNamespace(exitcode=None, pid=None, name=f"w{r}")
               for r in range(2)]
    q = queue.Queue()
    q.put((0, "err", 0, "BrokenBarrierError: \nTraceback ..."))
    q.put((0, "err", 1, "RuntimeError: the root cause\nTraceback ..."))
    with pytest.raises(WorkerFailedError, match="rank 1 failed.*\n.*root cause"):
        ProcessBackend(timeout=5.0)._collect(workers, q, None)
    # nobody else to blame: the broken barrier itself is reported
    q.put((0, "err", 0, "BrokenBarrierError: \nTraceback ..."))
    q.put((0, "ok", 1, ("result", {})))
    with pytest.raises(WorkerFailedError, match="rank 0 failed.*\nBrokenBarrier"):
        ProcessBackend(timeout=5.0)._collect(workers, q, None)
