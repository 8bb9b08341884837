"""Chaos-driven service soak: a seeded multi-tenant job stream under fire.

Each job's faults are drawn by :func:`~repro.backend.chaos.chaos_plan`,
expressed for the substrate by :func:`~repro.backend.chaos.spec_faults`,
and each converged answer is held to its reference by
:func:`~repro.backend.chaos.judge` -- the chaos harness's contract, one
copy.  What this module adds is about *streams*:

* every job converges to the contract or resolves to a **classified**
  failure -- never an unclassified exception, never a hang; a job parked
  by a graceful drain is journaled for replay, not lost;
* after a shrink the queue *keeps serving* on the survivors (jobs
  complete while the pool is below target) and the pool heals back
  between jobs;
* at drain, **zero** pool workers remain alive.

Fault draws are seeded per job, so a soak is exactly reproducible from
``(seed, jobs, nprocs, n)`` -- the CI job pins these and archives the
report.  Faults are crashes (checkpoint-triggered SIGKILL on the process
pool, virtual-time kills on the simulator) and stragglers (per-op
delays / compute dilation); message-level faults and state corruptions
are drawn with probability zero here because they live below the service
layer and already have their own harness (``repro chaos``).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..backend.chaos import (
    CHAOS_CRITERION,
    CHAOS_RESILIENCE,
    _chaos_problem,
    chaos_plan,
    chaos_reference,
    judge,
    spec_faults,
)
from ..backend.simulated import SimulatedBackend
from .breaker import CircuitBreaker
from .journal import JobJournal
from .pool import WarmPool
from .queue import TenantFairQueue
from .retry import RetryPolicy
from .service import JobSpec, JobStatus, SolverService

__all__ = ["SoakJobVerdict", "SoakReport", "soak_run"]

POOL_NAME_PREFIX = "repro-pool-"


def leaked_pool_workers() -> List[str]:
    """Names of still-live pool worker processes (must be [] after drain)."""
    return sorted(
        p.name
        for p in mp.active_children()
        if p.name.startswith(POOL_NAME_PREFIX)
    )


@dataclass
class SoakJobVerdict:
    """Contract evaluation of one soak job."""

    job_id: int
    tenant: str
    seed: int
    status: str
    classification: str
    fault: str  #: "none" | "crash" | "straggler" | "crash+straggler"
    attempts: int
    nprocs_final: int
    bitwise: bool                   #: exact match to the reference
    max_abs_err: float
    elapsed: float
    contract_ok: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class SoakReport:
    """Whole-stream verdict: per-job outcomes plus service accounting."""

    seed: int
    backend: str
    jobs: int
    nprocs: int
    n: int
    policy: str
    elapsed: float
    verdicts: List[SoakJobVerdict] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)
    final_status: Dict[str, Any] = field(default_factory=dict)
    leaked_workers: List[str] = field(default_factory=list)
    served_while_shrunk: int = 0    #: jobs completed on a below-target pool

    @property
    def contract_held(self) -> bool:
        return (
            all(v.contract_ok for v in self.verdicts)
            and not self.leaked_workers
        )

    @property
    def ok_jobs(self) -> int:
        return sum(
            1 for v in self.verdicts
            if v.status in (JobStatus.OK, JobStatus.DEGRADED)
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "backend": self.backend,
            "jobs": self.jobs,
            "nprocs": self.nprocs,
            "n": self.n,
            "policy": self.policy,
            "elapsed": round(self.elapsed, 3),
            "contract_held": self.contract_held,
            "ok_jobs": self.ok_jobs,
            "served_while_shrunk": self.served_while_shrunk,
            "leaked_workers": self.leaked_workers,
            "counters": self.counters,
            "final_status": self.final_status,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def summary(self) -> str:
        by_class: Dict[str, int] = {}
        for v in self.verdicts:
            key = v.status if v.status != JobStatus.FAILED else (
                f"failed:{v.classification}"
            )
            by_class[key] = by_class.get(key, 0) + 1
        mix = ", ".join(f"{k}={n}" for k, n in sorted(by_class.items()))
        return (
            f"soak seed={self.seed} backend={self.backend}: "
            f"{self.ok_jobs}/{self.jobs} jobs converged ({mix}); "
            f"served_while_shrunk={self.served_while_shrunk}; "
            f"leaked={len(self.leaked_workers)}; "
            f"contract {'HELD' if self.contract_held else 'BROKEN'}"
        )


def soak_run(
    jobs: int = 32,
    seed: int = 0,
    backend: str = "process",
    nprocs: int = 4,
    n: int = 48,
    tenants: int = 4,
    crash_prob: float = 0.3,
    straggler_prob: float = 0.2,
    policy: str = "shrink",
    deadline: float = 60.0,
    straggler_deadline: float = 1.0,
    rtol: float = 1.0e-8,
    retry: Optional[RetryPolicy] = None,
    service: Optional[SolverService] = None,
    journal_dir: Optional[str] = None,
    on_service: Optional[Any] = None,
) -> SoakReport:
    """Run a seeded soak stream through a fresh (or provided) service.

    ``policy="shrink"`` is the interesting default: a crash mid-solve
    drops the victim and the stream then runs on the survivors until the
    idle heal -- exercising exactly the degraded-mode path the service
    exists for.

    ``journal_dir`` constructs the soak's own service with a write-ahead
    job journal (ignored when ``service`` is supplied); ``on_service``
    is called with the started service before jobs are submitted -- the
    hook crash-replay drivers use to expose the service they are about
    to kill.
    """
    if backend not in ("process", "simulated"):
        raise ValueError("backend must be 'process' or 'simulated'")
    A, b = _chaos_problem(n)
    reference_x = chaos_reference(nprocs, n)

    own_service = service is None
    if own_service:
        # size admission for the submitted stream *plus* the journal's
        # replay backlog: a rerun on a parked journal must re-enqueue
        # every non-terminal job in one go, not dribble them out over
        # several restarts because the queue was sized for --jobs alone
        backlog = 0
        if journal_dir is not None:
            backlog = len(JobJournal(journal_dir).replayable())
        service = SolverService(
            backend=(
                WarmPool(nprocs, timeout=deadline)
                if backend == "process"
                else SimulatedBackend()
            ),
            target_nprocs=nprocs,
            queue=TenantFairQueue(max_depth=jobs + backlog + 8),
            retry=retry or RetryPolicy(max_attempts=2, base_delay=0.01,
                                       max_delay=0.1, seed=seed),
            breaker=CircuitBreaker(failure_threshold=5, reset_timeout=0.5),
            journal_dir=journal_dir,
        )
    service.start()
    if on_service is not None:
        on_service(service)

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    submitted = []
    for j in range(jobs):
        job_seed = int(rng.integers(2 ** 31))
        drawn = chaos_plan(
            job_seed, nprocs, message_prob=0.0, corruption_prob=0.0,
            crash_prob=crash_prob, straggler_prob=straggler_prob,
        )
        planned = drawn["planned"]
        fault = "+".join(
            kind for kind in ("crash", "straggler") if planned[kind]
        ) or "none"
        spec = JobSpec(
            matrix=A, b=b,
            tenant=f"tenant-{j % tenants}",
            nprocs=nprocs,
            criterion=CHAOS_CRITERION,
            resilience=CHAOS_RESILIENCE,
            policy=policy,
            deadline=deadline if backend == "process" else None,
            **spec_faults(
                drawn, backend,
                straggler_deadline if planned["straggler"] else None),
        )
        handle = service.submit(spec)
        submitted.append((handle, job_seed, fault))

    report = SoakReport(
        seed=seed, backend=backend, jobs=jobs, nprocs=nprocs, n=n,
        policy=policy, elapsed=0.0,
    )
    pool = service.pool
    for handle, job_seed, fault in submitted:
        res = handle.result(timeout=max(4 * deadline, 120.0))
        if (
            res.ok
            and pool is not None
            and 0 < pool.generation_size < nprocs
        ):
            # completed while the pool was still running degraded
            report.served_while_shrunk += 1
        report.verdicts.append(
            _verdict(res, fault, job_seed, reference_x, rtol)
        )

    service.drain(timeout=60.0)
    report.final_status = service.status()
    if own_service:
        service.shutdown()
        time.sleep(0.2)  # give reaped children a beat to be collected
        report.leaked_workers = leaked_pool_workers()
    report.counters = dict(service.counters.as_dict())
    report.elapsed = time.perf_counter() - t0
    return report


def _verdict(res, fault, job_seed, reference_x, rtol):
    """Hold one job's result to the chaos contract."""
    ok, max_err, detail = False, float("nan"), ""
    if res.status in (JobStatus.OK, JobStatus.DEGRADED):
        # x is the last attempt's; its recovery log says whether a shrink
        # or rebalance changed the layout on the way
        log = res.attempts[-1].recovery_log if res.attempts else []
        ok, max_err = judge(res.x, reference_x, log,
                            reproducible=False, rtol=rtol)
        if not ok:
            detail = f"result off-reference (max|err|={max_err:.2e})"
    elif res.status in (JobStatus.FAILED, JobStatus.EXPIRED,
                        JobStatus.QUARANTINED):
        ok = bool(res.classification)
        if not ok:
            detail = f"unclassified failure: {res.error}"
    elif res.status == JobStatus.PARKED:
        # graceful drain journaled it for replay: not a contract breach
        ok, detail = True, "parked at graceful drain (journaled for replay)"
    else:
        detail = f"unexpected terminal status {res.status!r}"
    return SoakJobVerdict(
        job_id=res.job_id, tenant=res.tenant, seed=job_seed,
        status=res.status, classification=res.classification, fault=fault,
        attempts=len(res.attempts), nprocs_final=res.nprocs_final,
        bitwise=max_err == 0.0, max_abs_err=max_err, elapsed=res.elapsed,
        contract_ok=ok, detail=detail,
    )
