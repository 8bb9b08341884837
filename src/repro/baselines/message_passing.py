"""Explicit message-passing SPMD conjugate gradient.

The comparator the paper holds HPF against: "If we used the
message-passing SPMD model, then each processor would have a private copy
of the vector q which would be used to gather the partial results locally,
and a merge operation would be employed at the end" -- and, for the CSC
loop, "an explicit message-passing program is able to do that
[parallelise]".

Each rank runs a generator program on the discrete-event
:class:`~repro.machine.scheduler.Scheduler`: it owns a block of matrix rows
and the matching vector blocks, exchanges data only through explicit
``Send``/``Recv``-based collectives (:mod:`~repro.machine.spmd`), and
charges its local flops.  Benchmark E15 compares the resulting
communication volume and simulated time against the HPF runtime's CG --
the paper's portability-vs-control trade-off, quantified.

When a :class:`~repro.machine.faults.FaultPlan` (or a
:class:`~repro.core.resilience.ResilienceConfig`) is supplied, the solver
switches to a fault-tolerant execution mode: collectives run over the
stop-and-wait ARQ transport of :mod:`repro.machine.reliable`, every rank
writes a coordinated checkpoint of ``(x, r, p, rho)`` every few
iterations, a periodic sanity audit recomputes ``||b - A x||`` to catch
silent state corruption, and a rank crash triggers a rollback-restart of
the whole program from the latest complete checkpoint.  Benchmark E19
measures what that protection costs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.programs import CGRankProgram
from ..hpf.distribution import Block
from ..machine import reliable as rel
from ..machine.events import Compute
from ..machine.faults import FaultPlan, RankFailedError
from ..machine.machine import Machine
from ..machine.reliable import ReliableConfig, ReliableEndpoint
from ..machine.scheduler import Scheduler
from ..sparse.convert import as_matrix
from ..sparse.kernels import CompressedBlock
from ..core.resilience import (
    RecoveryExhaustedError,
    ResilienceConfig,
    latest_complete_checkpoint,
)
from ..core.result import ConvergenceHistory, SolveResult
from ..core.stopping import StoppingCriterion

__all__ = ["spmd_cg"]


def spmd_cg(
    machine: Machine,
    matrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> SolveResult:
    """Row-block SPMD CG with hand-written message passing.

    Every rank holds ``ceil(n/P)`` rows of A (CSR), its blocks of the
    vectors, and performs per iteration: one allgather of ``p`` (the
    Scenario-1 broadcast), one local sparse mat-vec, two allreduce inner
    products and three local SAXPY-type updates -- the same pattern as the
    HPF ``csr_forall_aligned`` strategy, but built from explicit messages.

    ``faults`` injects message faults, crashes and state corruption;
    ``resilience`` tunes the recovery layer.  Either being set enables
    fault-tolerant execution; both ``None`` (the default) runs the
    original unprotected program.
    """
    A = as_matrix(matrix).to_csr()
    n = A.nrows
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    crit = criterion or StoppingCriterion()
    dist = Block(n, machine.nprocs)
    x_start = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
    maxiter = crit.cap(n)
    indptr, indices, data = A.indptr, A.indices, A.data
    history = ConvergenceHistory()

    clock_before = machine.elapsed()
    stats_before = machine.stats.snapshot()

    fault_mode = (faults is not None and faults.enabled) or resilience is not None
    if fault_mode:
        results, extras = _run_resilient(
            machine, dist, indptr, indices, data, b, x_start, crit, maxiter,
            faults, resilience or ResilienceConfig(),
        )
    else:
        extras = None
        # the same picklable rank program the execution backends run, so
        # the simulated baseline and a real-process run are the identical
        # program text (see repro.backend.validate)
        program = CGRankProgram(A, b, x0=x0, criterion=crit, maxiter=maxiter)
        results = Scheduler(machine, tag="spmd_cg").run(program)

    x = np.concatenate([res[0] for res in results])[:n]
    residuals, converged, iterations = results[0][1], results[0][2], results[0][3]
    for rn in residuals:
        history.append(rn)
    delta = stats_before.since(machine.stats)
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        history=history,
        solver="cg",
        strategy="spmd_message_passing",
        machine_elapsed=machine.elapsed() - clock_before,
        comm={
            "messages": delta.messages,
            "words": delta.words,
            "comm_time": delta.comm_time,
            "flops": delta.flops,
        },
        extras=extras or {},
    )


def _copy_snapshot(snap):
    x, r, p, rho, rho0, bnorm2 = snap
    return x.copy(), r.copy(), p.copy(), rho, rho0, bnorm2


def _run_resilient(
    machine, dist, indptr, indices, data, b, x_start, crit, maxiter,
    faults, cfg,
):
    """Fault-tolerant SPMD CG: reliable transport + checkpoint recovery.

    The checkpoint ``store`` is shared across attempts (in a real system:
    neighbour memory or stable storage) and keyed ``iteration -> {rank:
    snapshot}``; only checkpoints every rank finished writing are restore
    candidates, so a crash mid-checkpoint cannot mix iterations.
    """
    plan = faults if (faults is not None and faults.enabled) else None
    rcfg = cfg.reliable
    if rcfg is None:
        # first ack wait: generous multiple of one message round-trip
        rcfg = ReliableConfig(
            base_timeout=20.0 * machine.cost.t_startup
            + 8.0 * dist.n * machine.cost.t_comm
        )
    store = {}
    telemetry = {}
    counters = {
        "rollbacks": 0,
        "crash_restarts": 0,
        "checkpoints": 0,
        "audits": 0,
        "refreshes": 0,
        "steps": 0,
    }

    def program(rank: int, size: int):
        ep = ReliableEndpoint(rank, rcfg, telemetry=telemetry)
        lo, hi = dist.local_range(rank)
        matvec = CompressedBlock(indptr, indices, data, lo, hi).matvec
        local_nnz = int(indptr[hi] - indptr[lo])
        bb = b[lo:hi].copy()

        def fresh_state():
            x = x_start[lo:hi].copy()
            if np.any(x_start):
                blocks = yield from rel.allgather(ep, rank, size, x)
                ax = matvec(np.concatenate(blocks))
                yield Compute(2.0 * local_nnz)
                r = bb - ax
            else:
                r = bb.copy()
            p = r.copy()
            rho = yield from rel.allreduce_sum(ep, rank, size, float(r @ r))
            yield Compute(2.0 * r.size)
            return 0, x, r, p, rho, rho

        # probe for a checkpoint *before* reducing ||b||: a restart already
        # has bnorm2 in its snapshot, and replaying the reduction here used
        # to shift every message tag/count of the recovered run (tag 13/14
        # is reserved for this one-shot reduction so a counted run can pin
        # that it happens exactly once across any number of restarts)
        ck = latest_complete_checkpoint(store, size)
        if ck is None:
            bnorm2 = yield from rel.allreduce_sum(
                ep, rank, size, float(bb @ bb), tag=13
            )
            yield Compute(2.0 * bb.size)
            k, x, r, p, rho, rho0 = yield from fresh_state()
        else:
            k, snap = ck
            x, r, p, rho, rho0, bnorm2 = _copy_snapshot(snap[rank])
            yield Compute(3.0 * x.size)  # checkpoint read-back
        bnorm = float(np.sqrt(bnorm2))
        residuals = [float(np.sqrt(max(0.0, rho)))]
        if k == 0 and crit.satisfied(residuals[-1], bnorm):
            return x, residuals, True, 0

        converged = False
        iterations = k
        my_rollbacks = 0
        last_true = None
        stagnant_audits = 0
        refreshed = False
        while k < maxiter:
            k += 1
            if rank == 0:
                counters["steps"] += 1
            if k > 1 and not refreshed:
                beta = rho / rho0
                p = beta * p + r  # saypx
                yield Compute(2.0 * p.size)
            refreshed = False
            blocks = yield from rel.allgather(ep, rank, size, p)
            q = matvec(np.concatenate(blocks))
            yield Compute(2.0 * local_nnz)
            pq = yield from rel.allreduce_sum(ep, rank, size, float(p @ q))
            yield Compute(2.0 * p.size)
            if pq == 0.0:
                break
            alpha = rho / pq
            x += alpha * p
            r -= alpha * q
            yield Compute(4.0 * p.size)
            if plan is not None:
                corr = plan.take_state_corruption(k, rank)
                if corr is not None:
                    vec = {"x": x, "r": r, "p": p}[corr.target]
                    if vec.size:
                        i = plan.draw_index(vec.size)
                        vec[i] += (1.0 + abs(vec[i])) * corr.scale
            rho0 = rho
            rho = yield from rel.allreduce_sum(ep, rank, size, float(r @ r))
            yield Compute(2.0 * r.size)
            residuals.append(float(np.sqrt(max(0.0, rho))))
            iterations = k
            stopping = crit.satisfied(residuals[-1], bnorm)
            need_ckpt = k % cfg.checkpoint_interval == 0
            if stopping or need_ckpt or k % cfg.sanity_interval == 0:
                if rank == 0:
                    counters["audits"] += 1
                blocks = yield from rel.allgather(ep, rank, size, x)
                ax = matvec(np.concatenate(blocks))
                yield Compute(2.0 * local_nnz)
                part = float(((bb - ax) ** 2).sum())
                yield Compute(3.0 * bb.size)
                true2 = yield from rel.allreduce_sum(ep, rank, size, part)
                true_norm = float(np.sqrt(max(0.0, true2)))
                if abs(true_norm - residuals[-1]) > cfg.sanity_rtol * max(
                    bnorm, 1.0e-300
                ):
                    # every rank compares the same allreduced values, so the
                    # rollback decision is coordinated without extra messages
                    if my_rollbacks >= cfg.max_restarts:
                        raise RecoveryExhaustedError(
                            f"rank {rank}: sanity audit failed at iteration "
                            f"{k} (recurrence {residuals[-1]:.3e} vs true "
                            f"{true_norm:.3e}) after {my_rollbacks} rollbacks"
                        )
                    my_rollbacks += 1
                    if rank == 0:
                        counters["rollbacks"] += 1
                    ck = latest_complete_checkpoint(store, size)
                    if ck is None:
                        k, x, r, p, rho, rho0 = yield from fresh_state()
                    else:
                        k, snap = ck
                        x, r, p, rho, rho0, _ = _copy_snapshot(snap[rank])
                        yield Compute(3.0 * x.size)
                    iterations = k
                    last_true = None
                    stagnant_audits = 0
                    continue
                if (
                    not stopping
                    and last_true is not None
                    and true_norm > cfg.stagnation_factor * last_true
                ):
                    stagnant_audits += 1
                else:
                    stagnant_audits = 0
                last_true = true_norm
                if stagnant_audits >= cfg.stagnation_patience:
                    # invariant holds but no progress for several audits:
                    # a corrupted search direction is invisible to the
                    # audit -- flush it (plain CG restart)
                    stagnant_audits = 0
                    p = r.copy()
                    refreshed = True
                    if rank == 0:
                        counters["refreshes"] += 1
                if need_ckpt:
                    store.setdefault(k, {})[rank] = (
                        x.copy(), r.copy(), p.copy(), rho, rho0, bnorm2,
                    )
                    yield Compute(3.0 * x.size)  # checkpoint write
                    if len(store[k]) == size:
                        counters["checkpoints"] += 1
                        for old in [kk for kk in store if kk < k]:
                            del store[old]
            if stopping:
                converged = True
                break
        return x, residuals, converged, iterations

    attempts = 0
    while True:
        try:
            results = Scheduler(machine, tag="spmd_cg", faults=plan).run(program)
            break
        except RankFailedError:
            attempts += 1
            if attempts > cfg.max_restarts:
                raise
            counters["crash_restarts"] += 1
            # failover downtime: detect, reassign the rank, reload checkpoints
            machine.charge_comm_interval(
                "restart", 0, 0.0, cfg.restart_time, tag="resilience"
            )

    extras = {
        "resilience": dict(
            counters,
            extra_iterations=counters["steps"] - results[0][3],
        ),
        "reliable": dict(telemetry),
    }
    if plan is not None:
        extras["fault_stats"] = plan.stats.as_dict()
    return results, extras
