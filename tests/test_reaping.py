"""Regression: no ProcessBackend failure path may leak worker processes.

A long-lived service runs thousands of one-shot and pooled executions;
a single unreaped child per failed run would exhaust the process/fd
table within hours.  Each test drives one failure exit path (deadline,
worker exception, external SIGKILL, KeyboardInterrupt-style interrupt)
and asserts the parent comes back with **zero** live children -- and no
zombies either, since ``_reap`` ends with a bounded ``join`` on every
worker.  The last class holds the warm pool's shared-memory arena and
pipes to the same standard: nothing under ``/dev/shm`` and not one more
open descriptor after ``shutdown()``, ``condemn()`` or a rank killed
mid-job.
"""

import gc
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.backend import (
    BackendError,
    ProcessBackend,
    process_backend_support,
)
from repro.backend.process import crash_injection_support
from repro.machine.events import Compute, Recv, Send
from repro.service import WarmPool

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)
_KILL_OK, _KILL_DETAIL = crash_injection_support()
needs_kill = pytest.mark.skipif(
    not _KILL_OK, reason=f"crash injection unavailable: {_KILL_DETAIL}"
)


# ------------------------------------------------------------------ #
# picklable programs
# ------------------------------------------------------------------ #
class HangEveryoneProgram:
    """Every rank blocks on a receive nobody satisfies."""

    def __call__(self, rank, size):
        got = yield Recv(source=(rank + 1) % size, tag=404)
        return got


class RankRaisesProgram:
    def __call__(self, rank, size):
        yield Compute(1.0)
        if rank == 0:
            raise RuntimeError("deliberate failure for reaping test")
        # peers hang so reaping must kill them, not wait them out
        got = yield Recv(source=0, tag=404)
        return got


class SleepForeverProgram:
    """Hangs in user code: SIGTERM-able but never exits by itself."""

    def __call__(self, rank, size):
        time.sleep(3600.0)
        yield Compute(1.0)
        return rank


def _live_children():
    """Live multiprocessing children (also collects finished ones)."""
    return [p for p in mp.active_children() if p.is_alive()]


def _assert_no_children(grace=5.0):
    deadline = time.monotonic() + grace
    while _live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leftovers = _live_children()
    assert leftovers == [], f"leaked workers: {[p.name for p in leftovers]}"
    # and no zombies: every active_children entry must have been joined
    assert mp.active_children() == []


@pytest.fixture(autouse=True)
def _clean_slate():
    _assert_no_children()
    yield
    _assert_no_children()


@needs_process
class TestReapingOnFailure:
    def test_deadline_reaps_all_hanging_ranks(self):
        with pytest.raises(BackendError):
            ProcessBackend(timeout=1.0).run(HangEveryoneProgram(), nprocs=3)

    def test_worker_error_reaps_hanging_peers(self):
        with pytest.raises(BackendError):
            ProcessBackend(timeout=30.0).run(RankRaisesProgram(), nprocs=3)

    def test_sleeping_rank_is_killed_not_waited_for(self, monkeypatch):
        # the parent's deadline is timeout + grace; a short grace keeps
        # the test from waiting out the production 5 s
        monkeypatch.setattr("repro.backend.process._PARENT_GRACE", 0.2)
        t0 = time.monotonic()
        with pytest.raises(BackendError):
            ProcessBackend(timeout=1.0).run(SleepForeverProgram(), nprocs=2)
        # the reaper must escalate to SIGKILL, not ride out the sleep
        assert time.monotonic() - t0 < 30.0

    @needs_kill
    def test_external_crash_reaps_survivors(self):
        # SIGKILL one worker mid-run from a side thread; the remaining
        # hanging ranks must be reaped when the crash is detected
        backend = ProcessBackend(timeout=30.0)
        orig_run = backend.run

        def killer():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                kids = _live_children()
                if kids:
                    os.kill(kids[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.01)

        t = threading.Thread(target=killer)
        t.start()
        try:
            with pytest.raises(BackendError):
                orig_run(HangEveryoneProgram(), nprocs=3)
        finally:
            t.join()

    def test_success_path_also_leaves_nothing(self):
        run = ProcessBackend(timeout=30.0).run(ComputeOnlyProgram(), nprocs=2)
        assert run.results == [0, 1]


class ComputeOnlyProgram:
    def __call__(self, rank, size):
        yield Compute(1.0)
        return rank


# ------------------------------------------------------------------ #
# the shared-memory arena and the pipes die with their generation
# ------------------------------------------------------------------ #
def _footprint():
    """(names under /dev/shm, open descriptors) of this process."""
    gc.collect()  # unreferenced queue pipes close on collection
    shm = sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []
    return shm, len(os.listdir("/proc/self/fd"))


class BigOperatorRing:
    """Holds an array the dispatch ring carries; ranks swap ring-sized blocks."""

    def __init__(self, hang=False):
        self.operator = np.ones(1 << 16)
        self.hang = hang

    def __call__(self, rank, size):
        yield Send(dest=(rank + 1) % size, payload=self.operator * rank, tag=1)
        got = yield Recv(source=(rank - 1) % size, tag=1)
        if self.hang:
            yield Recv(source=rank, tag=404)
        return float(got[0])


@needs_process
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
class TestPoolLeavesNoSharedMemoryBehind:
    @pytest.fixture
    def baseline(self):
        # one full pool life first: whatever the interpreter sets up
        # lazily (and keeps) must not be charged to the pool under test
        with WarmPool(2, timeout=30.0) as warm:
            warm.run(BigOperatorRing(), 2)
        return _footprint()

    def test_after_shutdown(self, baseline):
        pool = WarmPool(2, timeout=30.0)
        assert pool.run(BigOperatorRing(), 2).results == [1.0, 0.0]
        assert _footprint()[1] > baseline[1]  # the pool does hold pipes
        pool.shutdown()
        assert _footprint() == baseline

    def test_after_condemn(self, baseline):
        pool = WarmPool(2, timeout=30.0)
        pool.run(BigOperatorRing(), 2)
        pool.condemn()
        assert _footprint() == baseline

    @needs_kill
    def test_after_a_rank_is_killed_mid_job(self, baseline):
        pool = WarmPool(2, timeout=30.0)
        pool.heal()
        victim = pool._gen.workers[1].pid
        killer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
        killer.start()
        try:
            with pytest.raises(BackendError):
                pool.run(BigOperatorRing(hang=True), 2)
        finally:
            killer.join()
        assert pool.generation_size == 0  # condemned by the failed job
        pool.shutdown()
        assert _footprint() == baseline
