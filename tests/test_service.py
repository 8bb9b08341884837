"""Service end-to-end on the simulated backend: fast and deterministic.

The dispatcher, queue, retry ladder, breaker and telemetry are all
substrate-agnostic; running them over :class:`SimulatedBackend` (and a
deliberately flaky wrapper around it) exercises every service-level path
in milliseconds.  Warm-pool-specific behaviour lives in
``test_service_pool.py``/``test_service_soak.py``.
"""

import numpy as np
import pytest

from repro.backend.base import ExecutionBackend, WorkerCrashedError
from repro.backend.chaos import _chaos_problem
from repro.backend.process import ProcessBackend
from repro.backend.simulated import SimulatedBackend
from repro.core.resilience import ResilienceConfig
from repro.core.stopping import StoppingCriterion
from repro.machine.faults import FaultPlan, RankCrash
from repro.service import (
    CircuitBreaker,
    JobSpec,
    JobStatus,
    RetryPolicy,
    ServiceOverloadedError,
    SolverService,
    TenantFairQueue,
)
from repro.service.service import CIRCUIT_OPEN


def _spec(tenant="t0", nprocs=4, **kw):
    A, b = _chaos_problem(48)
    return JobSpec(matrix=A, b=b, tenant=tenant, nprocs=nprocs,
                   criterion=StoppingCriterion(rtol=1e-10, atol=0.0), **kw)


class FlakyBackend(ExecutionBackend):
    """Delegates to the simulator after failing the first ``fail_first``
    runs with an (retryable) infrastructure error."""

    name = "flaky"

    def __init__(self, fail_first=0):
        self.fail_first = fail_first
        self.runs = 0
        self.inner = SimulatedBackend()

    def run(self, program, nprocs, *, checkpoints=None, options=None):
        self.runs += 1
        if self.runs <= self.fail_first:
            raise WorkerCrashedError(0, "injected flaky-backend crash")
        return self.inner.run(program, nprocs, checkpoints=checkpoints,
                              options=options)


#: retry policy with no real sleeping (tests must not wait out backoff)
def _fast_retry(**kw):
    kw.setdefault("max_attempts", 3)
    kw.setdefault("base_delay", 0.001)
    kw.setdefault("max_delay", 0.002)
    return RetryPolicy(**kw)


class TestHappyPath:
    def test_submit_result_roundtrip(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            res = svc.solve(_spec(), timeout=30.0)
        assert res.status == JobStatus.OK and res.ok
        assert res.iterations > 0
        assert res.nprocs_final == 4
        assert len(res.attempts) == 1
        assert res.attempts[0].outcome == "ok"
        assert res.attempts[0].backoff_before == 0.0
        assert res.queued >= 0.0 and res.elapsed > 0.0

    def test_solution_matches_direct_solve(self):
        from repro.backend.solve import backend_solve

        spec = _spec()
        ref = backend_solve("cg", spec.matrix, spec.b, backend="simulated",
                            nprocs=4, criterion=spec.criterion).x
        with SolverService(backend=SimulatedBackend()) as svc:
            res = svc.solve(spec, timeout=30.0)
        assert np.array_equal(res.x, ref)  # same program, same backend

    def test_many_tenants_all_served(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            handles = [svc.submit(_spec(tenant=f"t{i % 3}"))
                       for i in range(9)]
            results = [h.result(timeout=60.0) for h in handles]
        assert all(r.ok for r in results)
        assert sorted(r.job_id for r in results) == list(range(9))
        assert svc.counters.completed == 9

    def test_status_snapshot(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            svc.solve(_spec(), timeout=30.0)
            st = svc.status()
        assert st["counters"]["submitted"] == 1
        assert st["counters"]["completed"] == 1
        assert st["breaker"]["state"] == "closed"
        assert st["pool"] is None  # not a warm pool


class TestAdmission:
    def test_overload_raises_typed_backpressure(self):
        # a queue of depth 1 with an unstarted... rather: fill the queue
        # faster than the dispatcher can drain by bounding depth at 1 and
        # submitting before start() -- submit requires a started service,
        # so instead use a closed-over slow path: depth 1 and burst
        svc = SolverService(backend=SimulatedBackend(),
                            queue=TenantFairQueue(max_depth=1))
        svc.start()
        try:
            seen_reject = False
            handles = []
            for _ in range(30):
                try:
                    handles.append(svc.submit(_spec()))
                except ServiceOverloadedError as exc:
                    seen_reject = True
                    assert exc.limit == 1
                    break
            assert seen_reject, "30 rapid submits never hit a depth-1 bound"
            assert svc.counters.rejected == 1
            for h in handles:
                assert h.result(timeout=30.0).ok  # accepted jobs complete
        finally:
            svc.shutdown()

    def test_submit_before_start_is_an_error(self):
        svc = SolverService(backend=SimulatedBackend())
        with pytest.raises(RuntimeError):
            svc.submit(_spec())


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        be = FlakyBackend(fail_first=2)
        with SolverService(backend=be, retry=_fast_retry()) as svc:
            res = svc.solve(_spec(), timeout=30.0)
        assert res.ok
        assert len(res.attempts) == 3
        assert [a.outcome for a in res.attempts] == [
            "worker_crashed", "worker_crashed", "ok"
        ]
        # backoff delays recorded and growing per the ladder
        assert res.attempts[0].backoff_before == 0.0
        assert res.attempts[1].backoff_before > 0.0
        assert res.attempts[2].backoff_before > 0.0
        assert svc.counters.retries == 2

    def test_exhausted_retries_fail_classified(self):
        be = FlakyBackend(fail_first=99)
        with SolverService(backend=be, retry=_fast_retry()) as svc:
            res = svc.solve(_spec(), timeout=30.0)
        assert res.status == JobStatus.FAILED and not res.ok
        assert res.classification == "worker_crashed"
        assert len(res.attempts) == 3  # the full budget, no more
        assert be.runs == 3
        assert "injected flaky-backend crash" in res.error

    def test_non_retryable_fails_on_first_attempt(self):
        with SolverService(backend=SimulatedBackend(),
                           retry=_fast_retry()) as svc:
            res = svc.solve(_spec(solver="nope"), timeout=30.0)
        assert res.status == JobStatus.FAILED
        assert len(res.attempts) == 1  # ValueError: no retry


class TestBreaker:
    def test_consecutive_failures_trip_and_fast_fail(self):
        be = FlakyBackend(fail_first=10 ** 6)
        with SolverService(
            backend=be,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=2, reset_timeout=60.0),
        ) as svc:
            r1 = svc.solve(_spec(), timeout=30.0)
            r2 = svc.solve(_spec(), timeout=30.0)
            r3 = svc.solve(_spec(), timeout=30.0)  # breaker now open
        assert r1.classification == "worker_crashed"
        assert r2.classification == "worker_crashed"
        assert r3.classification == CIRCUIT_OPEN
        assert r3.attempts == []  # fast-fail: the substrate was not touched
        assert be.runs == 2
        assert svc.counters.breaker_trips == 1
        assert svc.counters.breaker_fast_fails == 1

    def test_probe_recovers_the_stream(self):
        be = FlakyBackend(fail_first=2)
        with SolverService(
            backend=be,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=2,
                                   reset_timeout=0.05),
        ) as svc:
            assert not svc.solve(_spec(), timeout=30.0).ok
            assert not svc.solve(_spec(), timeout=30.0).ok  # trips
            import time

            time.sleep(0.1)  # reset window elapses; next job is the probe
            res = svc.solve(_spec(), timeout=30.0)
        assert res.ok  # probe succeeded and the stream is healthy again
        assert svc.breaker.state == "closed"


class _RecordingProcessBackend(ProcessBackend):
    """A process backend whose runs execute on the simulator.

    It records every run's effective options and refuses any attribute
    write once built, so a job can only reach its run through the run's
    options.  No process is spawned.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.seen = []
        self._built = True

    def __setattr__(self, name, value):
        if getattr(self, "_built", False):
            raise AssertionError(f"backend.{name} written during a job")
        super().__setattr__(name, value)

    def run(self, program, nprocs, *, checkpoints=None, options=None):
        self.seen.append(self.run_options(options))
        return SimulatedBackend().run(program, nprocs,
                                      checkpoints=checkpoints)


def _every_knob(**kw):
    return _spec(deadline=5.0, heartbeat_interval=0.01,
                 straggler_deadline=1.0, crash_on_checkpoint={0: 2},
                 faults=FaultPlan(seed=3, crashes=[RankCrash(1, 10.0)]),
                 **kw)


class TestPerJobKnobIsolation:
    """A job's knobs reach its runs and never the shared backend.

    Regression: per-job SLA knobs used to be set on the shared backend
    around each attempt, so a job with a deadline poisoned every later job
    that did not set its own.  They now travel in the run's options.
    """

    @staticmethod
    def _knobs(opts):
        return (opts.timeout, opts.heartbeat_interval,
                opts.straggler_deadline, opts.crash_on_checkpoint)

    def test_deadline_does_not_leak_between_jobs(self):
        be = _RecordingProcessBackend(timeout=300.0, heartbeat_interval=0.5)
        with SolverService(backend=be, target_nprocs=4) as svc:
            assert svc.solve(_every_knob(), timeout=30.0).ok
            assert svc.solve(_spec(), timeout=30.0).ok
        # job 1 ran under its own knobs...
        assert self._knobs(be.seen[0]) == (5.0, 0.01, 1.0, {0: 2})
        assert be.seen[0].faults.crash_schedule() == (RankCrash(1, 10.0),)
        # ...job 2 under the backend's own defaults, not job 1's leftovers
        assert self._knobs(be.seen[-1]) == (300.0, 0.5, None, {})
        assert be.seen[-1].faults is None

    def test_knobs_never_written_to_the_backend(self):
        be = _RecordingProcessBackend(timeout=300.0, heartbeat_interval=0.5)
        before = {k: v for k, v in vars(be).items() if k != "seen"}
        with SolverService(backend=be, target_nprocs=4) as svc:
            assert svc.solve(_every_knob(resilience=ResilienceConfig()),
                             timeout=30.0).ok
        after = {k: v for k, v in vars(be).items() if k != "seen"}
        assert after == before
        assert be.crash_on_checkpoint == {} and be.faults is None

    def test_simulated_fault_plan_never_written(self):
        default = FaultPlan(seed=9)
        be = SimulatedBackend(faults=default)
        with SolverService(backend=be, target_nprocs=4) as svc:
            res = svc.solve(
                _spec(straggler_deadline=0.25, resilience=ResilienceConfig(),
                      faults=FaultPlan(seed=1, crashes=[RankCrash(2, 1e-3)])),
                timeout=30.0)
        assert res.ok
        # the job's own crash fired on the shared instance...
        log = res.attempts[-1].recovery_log
        assert [(e["outcome"], e["rank"]) for e in log] == [("crash", 2)]
        # ...and the instance kept its own plan and deadline
        assert be.faults is default and not default.stats.crashed_ranks
        assert be.straggler_deadline is None


class TestShutdown:
    def test_drain_completes_queued_work(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            handles = [svc.submit(_spec()) for _ in range(4)]
            assert svc.drain(timeout=60.0)
            results = [h.result(timeout=1.0) for h in handles]
        assert all(r.ok for r in results)

    def test_shutdown_without_drain_cancels_queued(self):
        # a backend slow enough that jobs are still queued at shutdown
        class SlowBackend(ExecutionBackend):
            name = "slow"

            def __init__(self):
                self.inner = SimulatedBackend()

            def run(self, program, nprocs, *, checkpoints=None, options=None):
                import time

                time.sleep(0.2)
                return self.inner.run(program, nprocs,
                                      checkpoints=checkpoints,
                                      options=options)

        svc = SolverService(backend=SlowBackend())
        svc.start()
        handles = [svc.submit(_spec()) for _ in range(6)]
        svc.shutdown(drain=False)
        results = [h.result(timeout=5.0) for h in handles]
        cancelled = [r for r in results if r.status == JobStatus.CANCELLED]
        finished = [r for r in results if r.status == JobStatus.OK]
        assert cancelled, "no job was cancelled despite drain=False"
        assert len(cancelled) + len(finished) == 6
