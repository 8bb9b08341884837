"""The five pinned workloads of the layered benchmark.

Every workload offers the same three things to the measuring loop in
``measure.py``: a **set-up** that goes from nothing to ready-to-solve, a
**solve round** of verified operations through the public entry point,
and (traced run only) **probes** that explain the solve from the side.
Why each workload exists is recorded in ``BENCHMARK.json`` and the
README; the sizes below are the pinned ones and must not shrink (cut
repetitions, never problem sizes).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import shutil
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

import repro.backend.solve as backend_solve_mod
import repro.core.matvec as matvec_mod
import repro.hpcg.program as hpcg_program_mod
import repro.hpcg.solve as hpcg_solve_mod
import repro.service.service as service_mod
from repro import (
    Machine,
    MultigridPreconditioner,
    backend_solve,
    calibrate_host,
    cg_reference,
    hpcg_solve,
    hpf_cg,
    make_strategy,
    nas_cg_style,
    pcg_reference,
    poisson1d,
    rhs_for_solution,
    stencil27,
)
from repro.backend import make_solver_program
from repro.core import JacobiPreconditioner
from repro.hpcg import HPCGRankProgram
from repro.hpf import DistributedArray
from repro.service.soak import POOL_NAME_PREFIX
from repro.service import (
    JobJournal,
    JobResult,
    JobSpec,
    JobStatus,
    SolverService,
    WarmPool,
)

from spans import ROOT_LAYER, Span, SpanRecorder

__all__ = ["WORKLOADS", "FULL", "SMOKE", "Sample", "make_workload"]

#: stated tolerance of every solve (the solvers' default criterion)
RTOL = 1e-8
#: a solve fails when ``||x - x_true||_inf`` exceeds this
X_ATOL = 1e-4

FULL: Dict[str, Dict[str, Any]] = {
    "hpf_cg_sim": {"n": 32000, "solves_per_round": 1},
    "cg_rowblock_proc": {"n": 100000, "solves_per_round": 2},
    "hpcg_mg_proc": {"shape": 32, "solves_per_round": 1},
    "hpcg_halo_proc": {"shape": 40, "solves_per_round": 2},
    "service_stream": {"n": 64, "history_jobs": 1500, "window_jobs": 100,
                       "solves_per_round": 2, "p2_jobs": 30},
}
#: toy sizes for ``--smoke``: same code paths and checks, no bounds
SMOKE: Dict[str, Dict[str, Any]] = {
    "hpf_cg_sim": {"n": 2000, "solves_per_round": 1},
    "cg_rowblock_proc": {"n": 4000, "solves_per_round": 2},
    "hpcg_mg_proc": {"shape": 8, "solves_per_round": 1},
    "hpcg_halo_proc": {"shape": 12, "solves_per_round": 2},
    "service_stream": {"n": 64, "history_jobs": 60, "window_jobs": 20,
                       "solves_per_round": 2, "p2_jobs": 6},
}


class Sample(NamedTuple):
    seconds: float   #: wall seconds of one verified operation
    rate: float      #: verified operations per second


#: the cores this process may use, read before anything is pinned
ALLOWED_CORES = (sorted(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else [])


def pin_processes(nranks: int) -> bool:
    """Pin live pool workers round-robin (by rank) to the allowed cores.

    Unpinned, the scheduler migrates ranks and the same batch flips
    between two speeds.  The driver's threads (this thread and those it
    starts from now on) take the cores ``nranks`` ranks leave free, where
    there are any.  Returns False where the platform cannot pin.
    """
    cores = ALLOWED_CORES
    if not cores:
        return False
    try:
        os.sched_setaffinity(0, set(cores[nranks:]) or set(cores))
        for proc in mp.active_children():
            if (proc.name.startswith(POOL_NAME_PREFIX)
                    and proc.pid is not None):
                rank = int(proc.name[len(POOL_NAME_PREFIX):])
                os.sched_setaffinity(proc.pid, {cores[rank % len(cores)]})
    except (OSError, ValueError):
        return False
    return True


def new_pool(nprocs: int) -> WarmPool:
    # fork: no resource-tracker or forkserver helper that could outlive us
    return WarmPool(nprocs, start_method="fork", timeout=60.0)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def csr_matvec_probe(A) -> Dict[str, float]:
    """Serial SpMV baseline: seconds, flops and computed bytes moved."""
    x = np.ones(A.ncols)
    seconds = statistics.median(timed(A.matvec, x)[1] for _ in range(5))
    nbytes = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
              + 8 * A.ncols + 8 * A.nrows)
    return {
        "sparse.csr_matvec_s": seconds,
        "sparse.csr_matvec_flops": 2.0 * A.nnz,
        "sparse.csr_matvec_bytes": float(nbytes),
    }


# ---------------------------------------------------------------------- #
class Workload:
    """Base: failure accounting, exact-count checks, the solve round."""

    name = ""

    def __init__(self, seed: int, size: Dict[str, Any], rec,
                 scratch: str) -> None:
        self.seed = seed
        self.size = size
        self.rec = rec
        self.scratch = scratch  #: directory for what the workload writes
        self.solves_per_round = size["solves_per_round"]
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: counts that must repeat exactly across repetitions of a run
        self.exact: Dict[str, set] = defaultdict(set)
        #: figures the program returned, one entry per verified operation
        self.fields: Dict[str, List[float]] = defaultdict(list)
        self.pinned = True
        self._next_id = 0

    # -- accounting ------------------------------------------------- #
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def job_id(self) -> str:
        self._next_id += 1
        return f"{self.name}-{self._next_id}"

    def check_solution(self, A, b, x, x_true, converged) -> Optional[str]:
        if not converged:
            return "not converged"
        residual = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
        if not residual <= 10.0 * RTOL:
            return f"true relative residual {residual:.3e} > {10 * RTOL:g}"
        err = float(np.abs(x - x_true).max())
        if not err <= X_ATOL:
            return f"|x - x_true|_inf = {err:.3e} > {X_ATOL:g}"
        return None

    # -- the interface measure.py drives ---------------------------- #
    def prepare(self) -> None:
        """Untimed, once: the state of the world before any set-up."""

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` started."""

    def install(self, state) -> None:
        """Wrap this workload's layer boundaries with span recorders."""

    def solve_once(self, state):
        raise NotImplementedError

    def verify(self, state, result) -> Optional[str]:
        raise NotImplementedError

    def note(self, state, result) -> None:
        """Record exact counts and program-returned figures of one solve."""

    def probes(self, state) -> Dict[str, float]:
        return {}

    def solve_round(self, state, traced: bool) -> List[Sample]:
        """``solves_per_round`` samples; span wrappers live only this long."""
        if traced:
            self.install(state)
        try:
            samples = [self.sample(state, traced)
                       for _ in range(self.solves_per_round)]
        finally:
            if traced:
                self.rec.restore()
        return [s for s in samples if s is not None]

    def sample(self, state, traced: bool) -> Optional[Sample]:
        """One timed, verified solve; ``None`` (and a failure) otherwise."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                with self.rec.span("solve", ROOT_LAYER, job=self.job_id(),
                                   root=True):
                    result = self.solve_once(state)
            else:
                result = self.solve_once(state)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        error = self.verify(state, result)
        if error is not None:
            self.fail(error)
            return None
        self.note(state, result)
        return Sample(seconds, 1.0 / seconds)


# ---------------------------------------------------------------------- #
class HpfCgSim(Workload):
    """The paper's own path on the simulated 8-node hypercube."""

    name = "hpf_cg_sim"
    NPROCS = 8
    #: one public entry point under two names, so that the traced run can
    #: tell the HPF-1 solve from the HPF-2 one
    hpf_cg_csr_forall = hpf_cg_csc_private = staticmethod(hpf_cg)

    class State(NamedTuple):
        A: Any
        b: np.ndarray
        csr_forall: Any
        csc_private: Any

    def setup(self):
        rec = self.rec
        with rec.span("sparse.generate", "sparse"):
            A = nas_cg_style(self.size["n"], seed=self.seed)
            b = rhs_for_solution(A, np.ones(A.nrows))
        rec.wrap(matvec_mod, "cg_balanced_partitioner_1",
                 "extensions.partitioner_build", "extensions")
        try:
            with rec.span("core.strategy_build", "core"):
                csr = make_strategy(
                    "csr_forall", Machine(self.NPROCS, "hypercube"), A)
                csc = make_strategy(
                    "csc_private_balanced",
                    Machine(self.NPROCS, "hypercube"), A)
        finally:
            rec.restore()
        return self.State(A, b, csr, csc)

    def install(self, state) -> None:
        rec = self.rec
        rec.wrap(self, "hpf_cg_csr_forall", "core.hpf_cg_csr_forall", "core")
        rec.wrap(self, "hpf_cg_csc_private", "core.hpf_cg_csc_private", "core")
        for strategy in (state.csr_forall, state.csc_private):
            rec.wrap(strategy, "apply", "core.matvec_apply", "core")
        for op in ("dot", "axpy", "saypx", "assign"):
            rec.wrap(DistributedArray, op, "hpf.array_ops", "hpf")

    def solve_once(self, state):
        # zeroed clocks make the modelled time of every repetition exact
        state.csr_forall.machine.reset()
        state.csc_private.machine.reset()
        return (self.hpf_cg_csr_forall(state.csr_forall, state.b),
                self.hpf_cg_csc_private(state.csc_private, state.b))

    def verify(self, state, result) -> Optional[str]:
        ones = np.ones(state.A.nrows)
        for res in result:
            error = self.check_solution(
                state.A, state.b, res.x, ones, res.converged)
            if error is not None:
                return f"{res.strategy}: {error}"
        return None

    def note(self, state, result) -> None:
        messages = sum(r.comm["messages"] for r in result)
        words = sum(r.comm["words"] for r in result)
        modelled = sum(r.machine_elapsed for r in result)
        self.exact["core.iterations"].add(sum(r.iterations for r in result))
        self.exact["machine.messages"].add(messages)
        self.exact["machine.words"].add(words)
        self.exact["machine.modelled_elapsed_s"].add(modelled)

    def probes(self, state) -> Dict[str, float]:
        out = csr_matvec_probe(state.A)
        out["core.reference_cg_s"] = timed(cg_reference, state.A, state.b)[1]
        return out


# ---------------------------------------------------------------------- #
def rank_spans(rec: SpanRecorder, sp: Span, run) -> None:
    """Worker-side spans, synthesised from what the ranks returned.

    ``BackendRun.elapsed`` is the ranks' wall time and ``timings`` its
    mean compute/receive-wait split; HPCG programs also return rank 0's
    ``phase_seconds``, which lie inside the compute time.
    """
    start = max(sp.start, sp.end - run.elapsed)
    wall = rec.add("backend.rank_wall", "backend", start, sp.end, sp)
    compute = min(run.timings["compute"], run.elapsed)
    comm = min(run.timings["comm"], run.elapsed - compute)
    csp = rec.add("backend.compute", "backend", start, start + compute, wall)
    rec.add("backend.comm_wait", "backend", start + compute,
            start + compute + comm, wall)
    first = run.results[0]
    extras = first[4] if len(first) > 4 and isinstance(first[4], dict) else {}
    at = start
    for key, seconds in (extras.get("phase_seconds") or {}).items():
        dur = min(seconds, start + compute - at)
        if dur > 0.0:
            rec.add(f"hpcg.phase_{key}", "hpcg", at, at + dur, csp)
            at += dur


def wrap_pool_run(rec: SpanRecorder, pool: WarmPool) -> None:
    rec.wrap(pool, "run", "pool.run", "pool",
             after=lambda sp, run: rank_spans(rec, sp, run))


class ProcState(NamedTuple):
    A: Any
    b: np.ndarray
    pool: WarmPool


class ProcWorkload(Workload):
    """A two-rank solve on a pinned, long-lived ``WarmPool``.

    Rank count is fixed at 2 (never ``nproc``-dependent) and the start
    method is ``fork``, so no resource-tracker or forkserver helper can
    outlive the run.
    """

    NPROCS = 2
    entry_span = ("", "")

    def make_inputs(self):
        raise NotImplementedError

    def call(self, A, b, backend, nprocs):
        raise NotImplementedError

    def build_program(self, A, b):
        raise NotImplementedError

    def reference(self, A, b):
        raise NotImplementedError

    def setup(self) -> ProcState:
        with self.rec.span("sparse.generate", "sparse"):
            A, b = self.make_inputs()
        pool = new_pool(self.NPROCS)
        try:
            with self.rec.span("pool.heal", "pool"):
                pool.heal()
            self.pinned &= pin_processes(self.NPROCS)
        except BaseException:
            pool.shutdown()
            raise
        return ProcState(A, b, pool)

    def teardown(self, state: ProcState) -> None:
        self.exact["pool.rebuilds"].add(state.pool.rebuilds)
        with self.rec.span("pool.shutdown", "pool"):
            state.pool.shutdown()

    def install(self, state: ProcState) -> None:
        self.rec.wrap(self, "entry", *self.entry_span)
        wrap_pool_run(self.rec, state.pool)

    def solve_once(self, state: ProcState):
        return self.call(state.A, state.b, state.pool, self.NPROCS)

    def verify(self, state: ProcState, result) -> Optional[str]:
        return self.check_solution(state.A, state.b, result.x,
                                   np.ones(state.A.nrows), result.converged)

    def note(self, state: ProcState, result) -> None:
        self.exact["backend.iterations"].add(result.iterations)
        self.exact["backend.messages"].add(result.comm["messages"])
        self.exact["backend.words"].add(result.comm["words"])
        self.exact["backend.flops"].add(result.comm["flops"])

    def probes(self, state: ProcState) -> Dict[str, float]:
        A, b = state.A, state.b
        out = csr_matvec_probe(A)
        program = self.build_program(A, b)
        out["backend.program_pickle_bytes"] = float(len(pickle.dumps(
            program, protocol=pickle.HIGHEST_PROTOCOL)))
        out["backend.reference_s"] = timed(self.reference, A, b)[1]
        out["backend.simulated_host_s"] = timed(
            self.call, A, b, "simulated", self.NPROCS)[1]
        with new_pool(1) as single:
            single.heal()
            self.pinned &= pin_processes(1)
            self.call(A, b, single, 1)  # warm the rank's caches
            out["backend.p1_solve_s"] = timed(self.call, A, b, single, 1)[1]
        self.pinned &= pin_processes(self.NPROCS)
        fit = calibrate_host(repeats=3, flop_n=200_000, backend=state.pool)
        out["backend.t_startup_s"] = fit.t_startup
        out["backend.t_comm_s_per_word"] = fit.t_comm
        out["backend.t_flop_s"] = fit.t_flop
        return out

    def inherited_env_solve(self) -> float:
        """One solve on a one-shot, unpinned ``ProcessBackend``."""
        A, b = self.make_inputs()
        result, seconds = timed(self.call, A, b, "process", self.NPROCS)
        if not result.converged:
            raise RuntimeError("inherited-env solve did not converge")
        return seconds


class CgRowblockProc(ProcWorkload):
    """Irregular matrix: row-block allgather SpMV over pickled queues."""

    name = "cg_rowblock_proc"
    entry = staticmethod(backend_solve)
    entry_span = ("backend.backend_solve", "backend")

    def make_inputs(self):
        A = nas_cg_style(self.size["n"], seed=self.seed)
        return A, rhs_for_solution(A, np.ones(A.nrows))

    def call(self, A, b, backend, nprocs):
        return self.entry("cg", A, b, backend=backend, nprocs=nprocs)

    def build_program(self, A, b):
        return make_solver_program("cg", A, b)

    def reference(self, A, b):
        return cg_reference(A, b)

    def install(self, state: ProcState) -> None:
        super().install(state)
        install_backend_solve_spans(self.rec)


def install_backend_solve_spans(rec: SpanRecorder) -> None:
    rec.wrap(backend_solve_mod, "make_solver_program",
             "backend.program_build", "backend")
    rec.wrap(backend_solve_mod, "assemble_backend_result",
             "backend.assemble", "backend")


class HpcgProc(ProcWorkload):
    """27-point stencil through ``hpcg_solve``; ``precond`` picks the twin."""

    entry = staticmethod(hpcg_solve)
    entry_span = ("hpcg.hpcg_solve", "hpcg")
    precond = ""

    def make_inputs(self):
        s = self.size["shape"]
        A = stencil27(s, s, s)
        return A, rhs_for_solution(A, np.ones(A.nrows))

    def call(self, A, b, backend, nprocs):
        return self.entry(self.size["shape"], backend=backend, nprocs=nprocs,
                          precond=self.precond, matrix=A, b=b)

    def build_program(self, A, b):
        return HPCGRankProgram(A, b, (self.size["shape"],) * 3,
                               precond=self.precond)

    def install(self, state: ProcState) -> None:
        super().install(state)
        rec = self.rec
        rec.wrap(hpcg_solve_mod, "HPCGRankProgram",
                 "backend.program_build", "backend")
        rec.wrap(hpcg_program_mod, "MultigridPreconditioner",
                 "hpcg.mg_build", "hpcg")
        rec.wrap(hpcg_solve_mod, "assemble_hpcg_result",
                 "backend.assemble", "backend")

    def note(self, state: ProcState, result) -> None:
        super().note(state, result)
        halo = result.extras["hpcg"]["halo"]
        self.exact["hpcg.halo_words_per_exchange"].add(
            halo["words_per_exchange"])
        self.exact["hpcg.halo_neighbors"].add(halo["neighbors"])


class HpcgMgProc(HpcgProc):
    name = "hpcg_mg_proc"
    precond = "mg"

    def reference(self, A, b):
        mg = MultigridPreconditioner(A, (self.size["shape"],) * 3)
        return pcg_reference(A, b, mg)

    def probes(self, state: ProcState) -> Dict[str, float]:
        out = super().probes(state)
        mg = MultigridPreconditioner(state.A, (self.size["shape"],) * 3)
        out["hpcg.mg_apply_s"] = statistics.median(
            timed(mg.solve, state.b)[1] for _ in range(3))
        return out


class HpcgHaloProc(HpcgProc):
    name = "hpcg_halo_proc"
    precond = "jacobi"

    def reference(self, A, b):
        return pcg_reference(A, b, JacobiPreconditioner(A))


# ---------------------------------------------------------------------- #
class ServiceStream(Workload):
    """Closed-loop stream of tiny single-rank jobs through the service.

    Arithmetic is about a millisecond per job, so queue, journal writes,
    dispatch pickling and result hand-off are the whole latency.
    """

    name = "service_stream"
    CLIENTS = 2
    DRAWS = 64

    class State(NamedTuple):
        pool: WarmPool
        svc: SolverService

    def __init__(self, seed, size, rec, scratch) -> None:
        super().__init__(seed, size, rec, scratch)
        self.A = poisson1d(size["n"])
        rng = np.random.default_rng(seed)
        self.x_true = 1.0 + 0.5 * rng.uniform(-1.0, 1.0,
                                              (self.DRAWS, size["n"]))
        self.rhs = [rhs_for_solution(self.A, x) for x in self.x_true]
        self.draw = rng.integers(0, self.DRAWS, size=1 << 16)
        self.history = os.path.join(scratch, "history")
        self.journal_dir = os.path.join(scratch, "journal")
        self._jobs = 0
        self._long_lived = False

    def prepare(self) -> None:
        """Leave a dead driver's journal behind: a history of done jobs."""
        journal = JobJournal(self.history, fsync=False)
        for i in range(self.size["history_jobs"]):
            d = int(self.draw[-1 - i])
            key = f"history-{i}"
            spec = JobSpec(matrix=self.A, b=self.rhs[d], nprocs=1,
                           tenant=f"tenant-{i % self.CLIENTS}",
                           idempotency_key=key)
            journal.accepted(key, spec)
            journal.dispatched(key)
            journal.completed(key, JobResult(
                job_id=i, tenant=spec.tenant, status=JobStatus.OK,
                x=self.x_true[d], nprocs_requested=1, nprocs_final=1))
        shutil.copytree(self.history, self.journal_dir)

    def start_service(self, nprocs: int, journal_dir: Optional[str], rec):
        pool = new_pool(nprocs)
        try:
            with rec.span("pool.heal", "pool"):
                pool.heal()
            self.pinned &= pin_processes(nprocs)
            with rec.span("service.start", "service"):
                svc = SolverService(backend=pool, target_nprocs=nprocs,
                                    journal_dir=journal_dir).start()
        except BaseException:
            pool.shutdown()
            raise
        return self.State(pool, svc)

    def setup(self):
        """Pool + service start, replaying the journal history.

        The first set-up becomes the long-lived service and works on its
        own copy of the history; later repetitions replay the pristine
        history read-only (they accept no job, so they append nothing).
        """
        if not self._long_lived:
            self._long_lived = True
            return self.start_service(1, self.journal_dir, self.rec)
        return self.start_service(1, self.history, self.rec)

    def teardown(self, state) -> None:
        counters = state.svc.counters
        self.exact["service.retries"].add(counters.retries)
        self.exact["service.failed"].add(counters.failed)
        self.exact["pool.rebuilds"].add(state.pool.rebuilds)
        self.rec.wrap(state.pool, "shutdown", "pool.shutdown", "pool")
        try:
            state.svc.shutdown()
        finally:
            self.rec.restore()

    def install(self, state) -> None:
        rec = self.rec
        rec.wrap(state.svc, "submit", "service.submit", "service")
        for event in ("accepted", "dispatched", "completed"):
            if state.svc.journal is not None:
                rec.wrap(state.svc.journal, event, "service.journal_append",
                         "service", job_of=lambda key, *a, **k: key)
        rec.wrap(service_mod, "backend_solve", "backend.backend_solve",
                 "backend")
        install_backend_solve_spans(rec)
        wrap_pool_run(rec, state.pool)

    def _client(self, state, tenant: str, jobs: List[int], traced: bool,
                done: List[tuple]) -> None:
        rec = self.rec
        for j in jobs:
            d = int(self.draw[j])
            key = f"{self.name}-{self.seed}-{j}"
            spec = JobSpec(matrix=self.A, b=self.rhs[d],
                           nprocs=state.pool.target_nprocs,
                           tenant=tenant, idempotency_key=key)
            try:
                t0 = time.perf_counter()
                if traced:
                    with rec.span("solve", ROOT_LAYER, job=key,
                                  root=True) as root:
                        handle = state.svc.submit(spec)
                        submitted = time.perf_counter()
                        result = handle.result(timeout=30.0)
                    rec.add("service.queue_wait", "service", submitted,
                            min(submitted + result.queued, root.end), root)
                else:
                    result = state.svc.submit(spec).result(timeout=30.0)
                latency = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, reported
                done.append((d, None, 0.0, f"{type(exc).__name__}: {exc}"))
                continue
            done.append((d, result, latency, None))

    def window(self, state, traced: bool, jobs: int) -> Optional[Sample]:
        """``jobs`` closed-loop jobs from two clients on two tenants.

        The sample is the window's median submit-to-result latency and
        its completion rate; ``None`` when any job of the window failed.
        """
        fields = self.fields
        first = self._jobs
        self._jobs += jobs
        done: List[tuple] = []
        threads = [
            threading.Thread(
                target=self._client,
                args=(state, f"tenant-{c}",
                      list(range(first + c, first + jobs, self.CLIENTS)),
                      traced, done))
            for c in range(self.CLIENTS)
        ]
        journal = state.svc.journal
        records_before = len(journal) if journal is not None else 0
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        self.attempted += jobs
        latencies = []
        for d, result, latency, error in done:
            if error is None and not result.ok:
                error = (f"job {result.job_id} {result.status}: "
                         f"{result.classification} {result.error}")
            if error is None:
                error = self.check_solution(
                    self.A, self.rhs[d], result.x, self.x_true[d], True)
            if error is not None:
                self.fail(error)
                continue
            latencies.append(latency)
            fields["queued"].append(result.queued)
            fields["elapsed"].append(result.elapsed)
            fields["latency"].append(latency)
            fields["iterations"].append(result.iterations)
        if journal is not None:
            self.exact["service.journal_records_per_job"].add(
                (len(journal) - records_before) / jobs)
        if len(latencies) < jobs:
            return None
        return Sample(statistics.median(latencies), jobs / wall)

    def sample(self, state, traced: bool) -> Optional[Sample]:
        return self.window(state, traced, self.size["window_jobs"])

    def probes(self, state) -> Dict[str, float]:
        out = csr_matvec_probe(self.A)
        out["service.journal_replay_s"] = statistics.median(
            timed(JobJournal, self.history)[1] for _ in range(3))
        # Side passes run on a workload object of their own, so that their
        # spans and per-job figures stay out of the stream's.
        aside = ServiceStream(self.seed, self.size, SpanRecorder(),
                              self.scratch)
        # without a journal: what the journal costs the stream
        bare = aside.start_service(1, None, aside.rec)
        try:
            windows = [aside.window(bare, False, self.size["window_jobs"])
                       for _ in range(3)]
        finally:
            bare.svc.shutdown()
        out["service.nojournal_jobs_per_s"] = max(
            (w.rate for w in windows if w is not None), default=0.0)
        # the E24 configuration: the same tiny system on two ranks, where
        # rank-to-rank wake-ups dominate (journaled, because dispatcher-side
        # spans find their job through the journal calls; the journal is
        # outside the execution time)
        aside.fields.clear()
        two = aside.start_service(
            2, os.path.join(self.scratch, "journal-p2"), aside.rec)
        try:
            aside.install(two)
            aside.window(two, True, self.size["p2_jobs"])
        finally:
            aside.rec.restore()
            two.svc.shutdown()
        self.pinned &= aside.pinned & pin_processes(1)  # the stream's places
        self.attempted += aside.attempted
        self.failed += aside.failed
        self.failures += aside.failures
        if aside.fields["elapsed"]:
            out["service.p2_small_job_s"] = statistics.median(
                aside.fields["elapsed"])
            for part in ("rank_wall", "compute", "comm_wait"):
                out[f"service.p2_{part}_s"] = statistics.median(
                    aside.rec.per_root("solve", f"backend.{part}"))
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (HpfCgSim, CgRowblockProc, HpcgMgProc, HpcgHaloProc,
                ServiceStream)
}


def make_workload(name: str, seed: int, smoke: bool, rec,
                  scratch: str) -> Workload:
    sizes = SMOKE if smoke else FULL
    return WORKLOADS[name](seed, sizes[name], rec, scratch)
