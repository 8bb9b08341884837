"""The persistent resilient solver service.

Composition of the pieces in this package, in the order a job meets
them::

    submit() -- admission control ----------------- TenantFairQueue
        |        (ServiceOverloadedError at the door)
    dispatcher thread -- fast-fail gate ----------- CircuitBreaker
        |
    attempt loop -- backoff between attempts ------ RetryPolicy
        |
    solve(spec) + run_with_recovery --------------- WarmPool
        |        (respawn / shrink / rebalance *inside* one attempt)
    JobResult -- full attempt telemetry ----------- AttemptRecord

Two nested resilience loops, deliberately different in kind:

* the **inner** loop (``run_with_recovery``) rolls a *single job* back to
  its newest complete checkpoint after a crash or straggler verdict --
  possibly shrinking onto survivors -- and its attempt log rides along in
  each :class:`~repro.service.telemetry.AttemptRecord`;
* the **outer** loop (this module) re-executes the *whole job* when even
  the inner loop gave up, with exponential backoff, and trips the
  circuit breaker when consecutive jobs keep dying -- the signature of a
  sick substrate rather than an unlucky job.

Degraded mode is stream-aware: when a job shrinks the pool, the pool
*stays* shrunk while the queue is busy (survivors keep serving), and the
service heals it back to ``target_nprocs`` at the next idle moment.

A service on a :class:`~repro.backend.simulated.SimulatedBackend` is the
same code path minus process management -- the unit tests exercise queue
fairness, retries, and breaker logic there in milliseconds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..backend.base import ExecutionBackend
from ..backend.chaos import classify_failure
# JobSpec stays importable from here: journals pickle it by this path.
# The one entry is bound as ``backend_solve``, the module attribute the
# layered benchmark's traced mode wraps to time each job's solve.
from ..backend.job import JobSpec
from ..backend.job import solve as backend_solve
from ..core.resilience import RecoveryExhaustedError
from .breaker import CircuitBreaker, CircuitOpenError
from .journal import (
    QUARANTINED,
    JobJournal,
    JobQuarantinedError,
    new_idempotency_key,
)
from .pool import WarmPool
from .queue import ServiceOverloadedError, TenantFairQueue
from .retry import RetryPolicy
from .telemetry import AttemptRecord, JobStatus, ServiceCounters

__all__ = ["JobSpec", "JobResult", "JobHandle", "SolverService"]

#: classification label for breaker fast-fails (not a chaos label: the
#: job never touched the substrate)
CIRCUIT_OPEN = "circuit_open"
#: classification for jobs whose deadline expired while still queued
DEADLINE_EXPIRED = "deadline_expired"
#: classification for quarantined poison jobs
QUARANTINE = "quarantined"


# ---------------------------------------------------------------------- #
@dataclass
class JobResult:
    """Terminal verdict of one submitted job, with full attempt history."""

    job_id: int
    tenant: str
    status: str                       #: a :class:`JobStatus` value
    x: Optional[np.ndarray] = None
    iterations: int = 0
    nprocs_requested: int = 0
    nprocs_final: int = 0
    classification: str = ""          #: chaos-style failure label when failed
    error: str = ""
    attempts: List[AttemptRecord] = field(default_factory=list)
    elapsed: float = 0.0              #: execution wall time (sum of attempts)
    queued: float = 0.0               #: seconds spent waiting in the queue

    @property
    def ok(self) -> bool:
        return self.status in (JobStatus.OK, JobStatus.DEGRADED)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "iterations": self.iterations,
            "nprocs_requested": self.nprocs_requested,
            "nprocs_final": self.nprocs_final,
            "classification": self.classification,
            "error": self.error,
            "attempts": [a.as_dict() for a in self.attempts],
            "elapsed": self.elapsed,
            "queued": self.queued,
        }


class JobHandle:
    """Caller-side future for a submitted job."""

    def __init__(self, job_id: int, tenant: str,
                 key: Optional[str] = None):
        self.job_id = job_id
        self.tenant = tenant
        self.key = key  #: idempotency key (set on journaled services)
        self._event = threading.Event()
        self._result: Optional[JobResult] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block until the job completes; raises ``TimeoutError`` if not."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout}s"
            )
        assert self._result is not None
        return self._result

    def _fulfil(self, result: JobResult) -> None:
        self._result = result
        self._event.set()


# ---------------------------------------------------------------------- #
class SolverService:
    """Long-lived solver service over a warm pool (or any backend).

    Parameters
    ----------
    backend:
        The execution substrate.  Default: a :class:`WarmPool` sized
        ``target_nprocs``.  A :class:`SimulatedBackend` works too (fast
        deterministic tests); pool-specific behaviours (heal, shutdown)
        degrade to no-ops on non-pool backends.
    target_nprocs:
        Home rank count; :meth:`SolverService.submit` defaults jobs to it
        and idle healing grows a shrunken pool back to it.
    queue:
        Admission-controlled job queue (default: ``TenantFairQueue()``).
    retry:
        Outer retry schedule (default: ``RetryPolicy()`` -- 3 attempts).
    breaker:
        Per-pool circuit breaker (default: trip after 3 consecutive
        infrastructure failures, 5 s reset).
    heal_between_jobs:
        Re-grow a shrunken/dead pool to ``target_nprocs`` whenever the
        queue goes idle (the degraded-mode contract: survivors keep
        serving a busy queue; healing happens between jobs).
    journal_dir:
        Directory for the write-ahead :class:`~repro.service.journal.JobJournal`.
        ``None`` (default) keeps service state in memory, as before.
        With a directory, every accepted job is journaled before it is
        queued, and :meth:`start` replays the journal: ACCEPTED jobs are
        re-enqueued in original tenant/FIFO order, the DISPATCHED job is
        re-run (resuming from its ``checkpoint_dir`` when it has one),
        terminal jobs answer resubmissions by idempotency key, and
        poison jobs are quarantined.
    journal_fsync:
        Fsync policy for journal records (same trade as the checkpoint
        store: ``True`` survives power loss, ``False`` survives kill).
    quarantine_after:
        Condemnation-evidence bound before a job is quarantined.  The
        default 2 means a job that crashed the pool or driver twice is
        never allowed to condemn a third generation.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        target_nprocs: int = 4,
        queue: Optional[TenantFairQueue] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        heal_between_jobs: bool = True,
        journal_dir: Optional[str] = None,
        journal_fsync: bool = True,
        quarantine_after: int = 2,
    ):
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.target_nprocs = target_nprocs
        self._backend = (
            WarmPool(target_nprocs) if backend is None else backend
        )
        self.queue = queue if queue is not None else TenantFairQueue()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.heal_between_jobs = heal_between_jobs
        self.quarantine_after = quarantine_after
        self.journal = (
            JobJournal(journal_dir, fsync=journal_fsync)
            if journal_dir else None
        )
        self.counters = ServiceCounters()
        self._next_job_id = 0
        self._id_lock = threading.Lock()
        #: live + recorded handles by idempotency key (journaled services)
        self._by_key: Dict[str, JobHandle] = {}
        self._key_lock = threading.Lock()
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._started = False

    # -------------------------------------------------------------- #
    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def pool(self) -> Optional[WarmPool]:
        """The warm pool, when the backend is one (else ``None``)."""
        return self._backend if isinstance(self._backend, WarmPool) else None

    def start(self) -> "SolverService":
        if not self._started:
            self._started = True
            if self.journal is not None:
                self._replay_journal()
            self._dispatcher.start()
        return self

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -------------------------------------------------------------- #
    def _new_job_id(self) -> int:
        with self._id_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        return job_id

    def _replay_journal(self) -> None:
        """Re-enqueue the dead driver's accepted work, in accept order.

        Runs before the dispatcher thread exists, so no lock ordering to
        worry about.  Terminal jobs become recorded handles (dedupe
        targets); poison jobs are quarantined on the spot; everything
        else goes back on the queue exactly as the original ``submit``
        ordered it — the DISPATCHED job resumes from its
        ``checkpoint_dir``'s newest complete checkpoint when it has one.
        """
        for state in self.journal.states():
            key = state.key
            if state.terminal is not None:
                job_id = getattr(state.result, "job_id", None)
                if job_id is None:
                    job_id = self._new_job_id()
                handle = JobHandle(job_id, state.tenant, key=key)
                if state.result is not None:
                    handle._fulfil(state.result)
                else:
                    # terminal record without a recorded result (e.g. a
                    # torn/garbled result field): synthesize one so a
                    # deduped resubmission resolves instead of blocking
                    # on a handle nobody will ever fulfil.  A lost
                    # COMPLETED payload cannot honestly claim ``ok``
                    # (there is no solution vector to hand back), so
                    # everything but quarantine degrades to FAILED.
                    handle._fulfil(JobResult(
                        job_id=job_id, tenant=state.tenant,
                        status=(
                            JobStatus.QUARANTINED
                            if state.terminal == QUARANTINED
                            else JobStatus.FAILED
                        ),
                        classification="journal_result_missing",
                        error=(
                            f"journal records terminal state "
                            f"{state.terminal!r} but no result payload"
                        ),
                    ))
                self._by_key[key] = handle
                continue
            if not state.replayable:
                continue
            spec = state.spec
            job_id = self._new_job_id()
            handle = JobHandle(job_id, spec.tenant, key=key)
            self._by_key[key] = handle
            if state.condemnations >= self.quarantine_after:
                result = self._quarantine_result(
                    job_id, spec, state.condemnations
                )
                self.journal.quarantined(key, result)
                self.counters.quarantined += 1
                handle._fulfil(result)
                continue
            try:
                self.queue.put(spec.tenant, (spec, handle, time.monotonic()))
            except ServiceOverloadedError:
                # Queue smaller than the journal backlog: leave the job
                # ACCEPTED (non-terminal) so the *next* restart replays
                # it, and keep no handle so a live resubmission with the
                # same key re-attempts rather than seeing a rejection.
                self._by_key.pop(key, None)
                self.counters.rejected += 1
                continue
            self.counters.replayed += 1
            self._idle.clear()

    def _quarantine_result(self, job_id: int, spec: JobSpec,
                           condemnations: int) -> JobResult:
        err = JobQuarantinedError(
            spec.idempotency_key or "<auto>", condemnations,
            self.quarantine_after,
        )
        return JobResult(
            job_id=job_id, tenant=spec.tenant,
            status=JobStatus.QUARANTINED,
            nprocs_requested=spec.nprocs,
            classification=QUARANTINE,
            error=f"{type(err).__name__}: {err}",
        )

    # -------------------------------------------------------------- #
    def handle_for(self, key: str) -> Optional[JobHandle]:
        """The live or recorded handle for an idempotency key."""
        with self._key_lock:
            return self._by_key.get(key)

    def submit(self, spec: JobSpec) -> JobHandle:
        """Enqueue a job; raises :class:`ServiceOverloadedError` when full.

        On a journaled service the spec is journaled (write-ahead)
        before it is queued, and a resubmission whose
        ``idempotency_key`` is already known returns the existing
        handle — fulfilled with the recorded terminal result for
        finished jobs, live for queued/running ones — instead of
        running the job twice.
        """
        if not self._started:
            raise RuntimeError("service not started (call start())")
        key = spec.idempotency_key
        if self.journal is not None:
            with self._key_lock:
                if key is not None and key in self._by_key:
                    self.counters.deduped += 1
                    return self._by_key[key]
                if key is None:
                    key = new_idempotency_key()
                job_id = self._new_job_id()
                handle = JobHandle(job_id, spec.tenant, key=key)
                self._by_key[key] = handle
            # WAL: on disk as ACCEPTED before the queue (and hence the
            # dispatcher) can see it -- a crash after this line replays
            self.journal.accepted(key, spec)
        else:
            job_id = self._new_job_id()
            handle = JobHandle(job_id, spec.tenant, key=key)
        try:
            self.queue.put(spec.tenant, (spec, handle, time.monotonic()))
        except ServiceOverloadedError as exc:
            self.counters.rejected += 1
            if self.journal is not None:
                # A rejection is *not* terminal for idempotency: drop the
                # live handle so a later resubmission with the same key
                # re-attempts instead of deduping to a stale rejection.
                # The ACCEPTED record stays non-terminal on purpose --
                # like a parked job, a restart on this journal_dir will
                # replay it, so a submit racing graceful drain's
                # queue.close() is deferred, not lost.
                with self._key_lock:
                    self._by_key.pop(handle.key, None)
                handle._fulfil(JobResult(
                    job_id=handle.job_id, tenant=spec.tenant,
                    status=JobStatus.REJECTED,
                    nprocs_requested=spec.nprocs,
                    classification="overloaded",
                    error=f"{type(exc).__name__}: {exc}",
                ))
            raise
        self.counters.submitted += 1
        self._idle.clear()
        return handle

    def solve(self, spec: JobSpec,
              timeout: Optional[float] = None) -> JobResult:
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(spec).result(timeout)

    # -------------------------------------------------------------- #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish everything queued.  True when drained."""
        self.queue.close()
        return self._idle.wait(timeout)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service; optionally finish queued work first.

        With ``drain=False`` queued jobs are cancelled (their handles
        resolve with :data:`JobStatus.CANCELLED`).  Always leaves zero
        live pool workers.
        """
        self.queue.close()
        if drain and self._started:
            self._idle.wait(timeout)
        for spec, handle, t_in in self.queue.drain_remaining():
            handle._fulfil(JobResult(
                job_id=handle.job_id, tenant=spec.tenant,
                status=JobStatus.CANCELLED,
                nprocs_requested=spec.nprocs,
                queued=time.monotonic() - t_in,
            ))
        self._stop.set()
        if self._started:
            self._dispatcher.join(timeout=10.0)
        pool = self.pool
        if pool is not None:
            pool.shutdown()

    def graceful_drain(self, timeout: Optional[float] = None
                       ) -> Dict[str, Any]:
        """SIGTERM path: stop admitting, settle in-flight work, stop.

        The queue closes immediately (new submits are refused), the job
        the dispatcher already holds runs to completion, and every job
        still queued is **parked**: on a journaled service its handle
        resolves :data:`JobStatus.PARKED` and its journal entry stays
        ``accepted``, so a service restarted on the same ``journal_dir``
        replays it; without a journal parked degrades to cancelled.
        Returns a summary dict (``parked``/``cancelled``/``drained``)
        the CLI prints before exiting 0.
        """
        self.queue.close()
        parked = cancelled = 0
        for spec, handle, t_in in self.queue.drain_remaining():
            if self.journal is not None:
                # no terminal record on purpose: the job stays ACCEPTED
                # in the journal, which is exactly what replay re-runs
                self.counters.parked += 1
                parked += 1
                status, classification = JobStatus.PARKED, "parked"
                error = "graceful drain: journaled for replay on restart"
            else:
                cancelled += 1
                status, classification = JobStatus.CANCELLED, ""
                error = "graceful drain without a journal: job dropped"
            handle._fulfil(JobResult(
                job_id=handle.job_id, tenant=spec.tenant, status=status,
                nprocs_requested=spec.nprocs,
                classification=classification, error=error,
                queued=time.monotonic() - t_in,
            ))
        drained = self._idle.wait(timeout) if self._started else True
        self._stop.set()
        if self._started:
            self._dispatcher.join(timeout=10.0)
        pool = self.pool
        if pool is not None:
            pool.shutdown()
        return {
            "parked": parked,
            "cancelled": cancelled,
            "drained": bool(drained),
            "journal": None if self.journal is None else self.journal.path,
        }

    def status(self) -> Dict[str, Any]:
        """One observability snapshot: counters, queue, breaker, pool."""
        pool = self.pool
        return {
            "counters": self.counters.as_dict(),
            "queue_depth": len(self.queue),
            "queue_by_tenant": self.queue.depths(),
            "journal": None if self.journal is None else {
                "path": self.journal.path,
                "records": len(self.journal),
                "jobs": len(self.journal.states()),
                "skipped_records": len(self.journal.skipped_records),
            },
            "breaker": {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
                "retry_after": round(self.breaker.retry_after(), 3),
            },
            "pool": None if pool is None else {
                "generation_size": pool.generation_size,
                "target_nprocs": pool.target_nprocs,
                "rebuilds": pool.rebuilds,
                "jobs_served": pool.jobs_served,
                "healthy": pool.healthy(),
            },
        }

    # -------------------------------------------------------------- #
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            item = self.queue.get(timeout=0.05)
            if item is None:
                if len(self.queue) == 0:
                    self._maybe_heal()
                    self._idle.set()
                    if self.queue._closed:  # drained after close: done
                        break
                continue
            spec, handle, t_in = item
            queued = time.monotonic() - t_in
            key = handle.key if self.journal is not None else None
            # deadline-aware admission: a job that already spent its
            # whole deadline in the queue fast-fails without ever
            # touching the pool (no generation burned on a lost cause)
            if spec.deadline is not None and queued > spec.deadline:
                result = JobResult(
                    job_id=handle.job_id, tenant=spec.tenant,
                    status=JobStatus.EXPIRED,
                    nprocs_requested=spec.nprocs,
                    classification=DEADLINE_EXPIRED,
                    error=(
                        f"deadline {spec.deadline:.3f}s already spent in "
                        f"the queue ({queued:.3f}s); pool untouched"
                    ),
                    queued=queued,
                )
                self.counters.expired += 1
                self.counters.failed += 1
                if key is not None:
                    self.journal.failed(key, result)
                handle._fulfil(result)
                continue
            # quarantine gate: poison jobs never get another generation
            if key is not None:
                evidence = self.journal.condemnations(key)
                if evidence >= self.quarantine_after:
                    result = self._quarantine_result(
                        handle.job_id, spec, evidence
                    )
                    result.queued = queued
                    self.counters.quarantined += 1
                    self.counters.failed += 1
                    self.journal.quarantined(key, result)
                    handle._fulfil(result)
                    continue
                self.journal.dispatched(key)
            t0 = time.monotonic()
            try:
                result = self._execute(spec, handle.job_id, key=key)
            except BaseException as exc:  # noqa: BLE001 - never kill the loop
                result = JobResult(
                    job_id=handle.job_id, tenant=spec.tenant,
                    status=JobStatus.FAILED,
                    nprocs_requested=spec.nprocs,
                    classification=classify_failure(exc) or "internal_error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            result.queued = queued
            self.counters.busy_time += time.monotonic() - t0
            if result.status == JobStatus.OK:
                self.counters.completed += 1
            elif result.status == JobStatus.DEGRADED:
                self.counters.completed += 1
                self.counters.degraded += 1
            elif result.status == JobStatus.QUARANTINED:
                self.counters.quarantined += 1
                self.counters.failed += 1
            else:
                self.counters.failed += 1
            if key is not None:
                if result.ok:
                    self.journal.completed(key, result)
                elif result.status == JobStatus.QUARANTINED:
                    self.journal.quarantined(key, result)
                else:
                    self.journal.failed(key, result)
            handle._fulfil(result)
        self._idle.set()

    def _maybe_heal(self) -> None:
        """Idle-time pool healing: re-grow to target between jobs."""
        pool = self.pool
        if (
            self.heal_between_jobs
            and pool is not None
            and pool.generation_size > 0
            and (pool.generation_size != pool.target_nprocs
                 or not pool.healthy())
        ):
            pool.heal()
            self.counters.heals += 1

    # -------------------------------------------------------------- #
    def _execute(self, spec: JobSpec, job_id: int,
                 key: Optional[str] = None) -> JobResult:
        """Run one job through breaker, retry ladder, and recovery.

        On a journaled service (``key`` set), each *failed* attempt is
        journaled with a ``condemned`` flag (did it burn a warm-pool
        generation?); once the job's condemnation evidence reaches
        ``quarantine_after`` the retry ladder stops and the job is
        quarantined rather than offered a fresh generation.
        """
        result = JobResult(
            job_id=job_id, tenant=spec.tenant, status=JobStatus.FAILED,
            nprocs_requested=spec.nprocs,
        )
        trips_before = self.breaker.trips
        if not self.breaker.allow():
            self.counters.breaker_fast_fails += 1
            ra = self.breaker.retry_after()
            result.classification = CIRCUIT_OPEN
            result.error = (
                f"CircuitOpenError: breaker open; next probe in {ra:.2f}s"
            )
            return result

        attempt = 0
        while True:
            attempt += 1
            backoff = 0.0
            if attempt > 1:
                self.counters.retries += 1
                backoff = self.retry.backoff(attempt)
            rec = AttemptRecord(
                attempt=attempt, outcome="ok", nprocs=spec.nprocs,
                elapsed=0.0, backoff_before=backoff,
            )
            t0 = time.monotonic()
            pool = self.pool
            rebuilds_before = pool.rebuilds if pool is not None else 0
            try:
                solve = backend_solve(spec, self._backend)
            except Exception as exc:  # noqa: BLE001 - classified below
                rec.elapsed = time.monotonic() - t0
                rec.outcome = classify_failure(exc) or "internal_error"
                rec.error = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, RecoveryExhaustedError):
                    rec.recovery_log = list(exc.attempts)
                result.attempts.append(rec)
                result.elapsed += rec.elapsed
                self.breaker.record_failure()
                self.counters.breaker_trips += (
                    self.breaker.trips - trips_before
                )
                trips_before = self.breaker.trips
                if key is not None:
                    # only failed attempts hit the journal (the happy
                    # path stays at 3 records/job); condemned = this
                    # attempt cost the pool a generation
                    condemned = (
                        pool is not None
                        and pool.rebuilds > rebuilds_before
                    )
                    self.journal.attempt(
                        key, attempt, rec.outcome, condemned
                    )
                    evidence = self.journal.condemnations(key)
                    if evidence >= self.quarantine_after:
                        self._account_rebuilds(rebuilds_before)
                        quarantined = self._quarantine_result(
                            job_id, spec, evidence
                        )
                        quarantined.attempts = result.attempts
                        quarantined.elapsed = result.elapsed
                        return quarantined
                if self.retry.should_retry(attempt, exc):
                    self._account_rebuilds(rebuilds_before)
                    continue
                result.status = JobStatus.FAILED
                result.classification = rec.outcome
                result.error = rec.error
                self._account_rebuilds(rebuilds_before)
                return result
            rec.elapsed = time.monotonic() - t0
            recov = (solve.extras or {}).get("recovery") or {}
            rec.recovery_log = list(recov.get("attempt_log", []))
            result.attempts.append(rec)
            result.elapsed += rec.elapsed
            result.x = solve.x
            result.iterations = int(solve.iterations)
            result.nprocs_final = int(
                recov.get("final_nprocs", spec.nprocs)
            )
            result.status = (
                JobStatus.DEGRADED
                if result.nprocs_final < spec.nprocs
                else JobStatus.OK
            )
            self.breaker.record_success()
            self._account_rebuilds(rebuilds_before)
            return result

    def _account_rebuilds(self, rebuilds_before: int) -> None:
        pool = self.pool
        if pool is not None:
            self.counters.pool_rebuilds += pool.rebuilds - rebuilds_before
