"""Warm worker pool: persistent rank processes reused across solves.

A one-shot :class:`~repro.backend.process.ProcessBackend` run pays, per
solve: fork/spawn of P processes, creation of P+1 queues and a barrier,
NumPy/module state warm-up, and a full reap.  For the ROADMAP's
"millions of users" stream that per-job tax dominates small solves.  The
:class:`WarmPool` keeps one **generation** of rank processes alive across
jobs: each worker blocks on its task link of the generation's
:class:`~repro.backend.transport.Fabric`, receives
``(job_id, program, timeout)``, runs the *exact same* ``_drive`` loop the
one-shot backend runs (same heartbeats, same checkpoint publishing, same
deadline semantics), then loops for the next job.  Partition and
distribution caches memoized inside each worker (PR 5) stay hot between
jobs that share a layout -- which is what benchmark E24 measures.

Failure semantics -- the part a *service* cares about:

* any job failure (worker error, fail-stop crash, straggler verdict,
  deadline) **condemns the generation**: every worker is reaped with
  bounded joins and every queue, pipe and the shared arena released,
  because a broken barrier or a half-drained ring must never leak into
  the next job;
* the next ``run()`` transparently builds a fresh generation -- at
  whatever rank count the caller asks for, so
  :func:`~repro.backend.solve.run_with_recovery` drives respawn *and*
  shrink against the pool unchanged (a shrunken request simply builds a
  smaller generation, which then serves the stream warm on the
  survivors);
* :meth:`heal` re-grows a shrunken or dead pool back to
  ``target_nprocs`` between jobs;
* :meth:`shutdown` is the graceful path: a ``stop`` message per worker,
  bounded joins, then the reaper for anything still alive.

Reports and rank-to-rank frames are tagged with the generation's job
id; a worker decodes a frame of an older job (which releases its ring
space) and drops it, so a stray message of one job cannot corrupt the
next.

Dispatch is stateless (DESIGN.md §11): ``run`` pickles the program once,
its large arrays land once in the generation's dispatch ring, and every
worker rebuilds the program over read-only views of it.

The pool *is* an :class:`~repro.backend.base.ExecutionBackend` (it
subclasses the one-shot backend for its supervision helpers), so
``backend_solve``/``run_with_recovery``/``cross_validate`` all accept it
wherever they accept a ``ProcessBackend``.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Dict, Optional

from ..backend.base import BackendError, BackendRun, ProgramFactory
from ..backend.process import (
    ProcessBackend,
    _run_rank,
    crash_injection_support,
    process_backend_support,
)
from ..backend.transport import Fabric

__all__ = ["WarmPool"]


def _pool_worker_main(rank, size, fabric, result_q, barrier, hb_interval):
    """Persistent worker: serve jobs until told to stop or a job breaks."""
    mailbox = fabric.endpoint(rank)
    try:
        while True:
            task = fabric.tasks[rank].get()
            if task[0] == "stop":
                break
            _, job_id, program, timeout, trace = task
            mailbox.begin(job_id)
            intact = _run_rank(rank, size, program, mailbox, result_q,
                               barrier, timeout, trace, hb_interval)
            # the program views the dispatch ring the next job overwrites
            del task, program
            if not intact:
                # the barrier is unusable; exit and let the parent reap
                break
    finally:
        try:
            result_q.close()
            result_q.join_thread()  # flush the last outcome
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class _Generation:
    """One cohort of persistent workers sharing a fabric and a barrier."""

    def __init__(self, ctx, nprocs: int, hb_interval: float):
        self.nprocs = nprocs
        self.fabric = Fabric(ctx, nprocs, dispatch=True)
        self.result_q = ctx.Queue()
        self.barrier = ctx.Barrier(nprocs)
        self.next_job_id = 0
        self.jobs_served = 0
        self.workers = [
            ctx.Process(
                target=_pool_worker_main,
                args=(rank, nprocs, self.fabric, self.result_q,
                      self.barrier, hb_interval),
                name=f"repro-pool-{rank}",
                daemon=True,
            )
            for rank in range(nprocs)
        ]

    def healthy(self) -> bool:
        return all(w.is_alive() for w in self.workers)


class WarmPool(ProcessBackend):
    """A :class:`ProcessBackend` whose workers survive between runs.

    Accepts every ``ProcessBackend`` knob (timeout, heartbeat interval,
    straggler deadline, fault plan, ``crash_on_checkpoint``) with the
    same semantics -- re-read at each ``run()``, so a service can set
    per-job deadlines on the shared instance.  ``target_nprocs`` is the
    pool's home size: :meth:`heal` restores it after a shrink.
    """

    name = "warm_pool"
    _WORKER, _WORKERS, _BACKEND = "pool worker", "pool worker(s)", "warm pool"

    def __init__(self, target_nprocs: int, **kwargs):
        if target_nprocs < 1:
            raise ValueError("target_nprocs must be >= 1")
        super().__init__(**kwargs)
        self.target_nprocs = target_nprocs
        self._gen: Optional[_Generation] = None
        self.rebuilds = 0  #: lifetime generation builds (1 = never rebuilt)

    # -------------------------------------------------------------- #
    @property
    def generation_size(self) -> int:
        """Rank count of the live generation (0 = no generation)."""
        return self._gen.nprocs if self._gen is not None else 0

    @property
    def jobs_served(self) -> int:
        return self._gen.jobs_served if self._gen is not None else 0

    def healthy(self) -> bool:
        """Every worker of the current generation is alive."""
        return self._gen is not None and self._gen.healthy()

    # -------------------------------------------------------------- #
    def _ensure_generation(self, nprocs: int) -> _Generation:
        ok, detail = process_backend_support(self.start_method)
        if not ok:
            raise BackendError(f"process backend unavailable: {detail}")
        gen = self._gen
        if gen is not None and (gen.nprocs != nprocs or not gen.healthy()):
            # size mismatch (shrink/heal) or a worker died idle: rebuild
            self.condemn()
            gen = None
        if gen is None:
            ctx = mp.get_context(detail)
            # owned before the first start: a failed start leaves a
            # generation the next call condemns, arena and pipes included
            gen = self._gen = _Generation(ctx, nprocs, self.heartbeat_interval)
            self.rebuilds += 1
            for w in gen.workers:
                w.start()
        return gen

    def condemn(self) -> None:
        """Reap the current generation; release its queue, pipes and arena.

        Idempotent.
        """
        gen, self._gen = self._gen, None
        if gen is None:
            return
        self._reap(gen.workers)
        self._close_queues([gen.result_q])
        gen.fabric.close()

    def heal(self, nprocs: Optional[int] = None) -> int:
        """Ensure a healthy generation at ``nprocs`` (default: target size).

        Returns the resulting generation size.  Cheap when the pool is
        already healthy at that size (the common between-jobs call).
        """
        want = self.target_nprocs if nprocs is None else nprocs
        self._ensure_generation(want)
        return self.generation_size

    def shutdown(self, grace: float = 2.0) -> None:
        """Graceful stop: ask workers to exit, then reap stragglers."""
        gen = self._gen
        if gen is None:
            return
        try:
            gen.fabric.dispatch(("stop",), "the stop message", grace,
                                gen.healthy)
            for w in gen.workers:
                if w.is_alive():
                    w.join(timeout=grace)
        finally:
            self.condemn()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -------------------------------------------------------------- #
    def run(
        self,
        program: ProgramFactory,
        nprocs: int,
        *,
        checkpoints: Optional[Dict[int, Dict[int, Any]]] = None,
    ) -> BackendRun:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self._wants_kills():
            ok_kill, why = crash_injection_support(self.start_method)
            if not ok_kill:
                raise BackendError(f"crash injection unavailable: {why}")
        gen = self._ensure_generation(nprocs)
        job_id = gen.next_job_id
        gen.next_job_id += 1
        # pickled once, here: an unpicklable program raises before any
        # worker has seen a byte, and the generation stays warm
        gen.fabric.dispatch(
            ("job", job_id, program, self.timeout, self.trace),
            f"program {program!r}", self.timeout, gen.healthy)
        try:
            reports = self._collect(gen.workers, gen.result_q, checkpoints,
                                    job_id)
        except BaseException:
            # deadline, crash, straggler, worker error, KeyboardInterrupt:
            # the generation's barrier/queues are unusable -- reap it all,
            # with bounded joins, before letting the error propagate
            self.condemn()
            raise
        gen.jobs_served += 1
        return self._assemble(nprocs, reports)
