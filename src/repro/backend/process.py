"""Real-parallel execution backend: one OS process per SPMD rank.

Runs the *same* generator rank programs the discrete-event simulator runs
(:mod:`repro.machine.events` protocol), but for real: each rank is a
``multiprocessing`` process, ``Send``/``Recv`` payloads travel over the
shared-memory transport of :mod:`repro.backend.transport` (pickled by the
sending thread, bulk arrays through a ring, frames through a pipe),
``Barrier`` is a real barrier, and every segment is timed with
``time.perf_counter``.  ``Compute`` yields
cost nothing here -- the actual NumPy work inside the program body *is*
the computation -- but their declared flop counts are still accumulated,
so the measured run reports the same flop accounting as the simulated
one.

Measured per-rank counters (wall time, time in sends, time blocked in
receives and barriers, messages, words, declared flops) are mirrored into a
:class:`~repro.machine.stats.MachineStats` of the exact shape the
simulator produces, which is what makes the modelled-vs-measured
cross-validation of :mod:`repro.backend.validate` a one-liner.

Robustness guarantees (CI sandboxes, platforms without ``fork``):

* the start method falls back deterministically: ``fork`` where the OS
  offers it, else ``spawn`` (program factories must then be picklable --
  every factory in :mod:`repro.backend.programs` is);
* :func:`process_backend_support` reports *why* the backend is
  unavailable (e.g. ``sem_open`` missing) so tests can skip explicitly;
* a hard wall-clock ``timeout`` bounds every blocking operation in the
  workers **and** the parent's result collection; on expiry all workers
  are terminated, then killed -- a hung rank can never wedge the caller.

Semantics that intentionally differ from the simulator are catalogued in
DESIGN.md §7; the headline one: ``Recv(timeout=...)`` counts *real*
seconds here, simulated seconds there.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import select
import signal
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..machine.events import (
    ANY_SOURCE,
    Barrier,
    Checkpoint,
    Compute,
    Recv,
    Send,
    payload_words,
)
from ..machine.faults import FaultPlan, RecvTimeoutError, StragglerDetectedError
from ..machine.stats import MachineStats
from ..machine.trace import Tracer
from .base import (
    BackendError,
    BackendRun,
    BackendTimeoutError,
    ExecutionBackend,
    ProgramFactory,
    WorkerCrashedError,
    WorkerFailedError,
)
from .transport import Fabric

__all__ = [
    "ProcessBackend",
    "process_backend_support",
    "crash_injection_support",
    "default_start_method",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_RUN_DEADLINE",
]

#: grace period the parent grants workers beyond their own deadline before
#: it starts killing them (seconds)
_PARENT_GRACE = 5.0

#: built-in defaults, overridable by environment or constructor (see
#: :class:`ProcessBackend`)
DEFAULT_HEARTBEAT_INTERVAL = 0.5
DEFAULT_RUN_DEADLINE = 120.0

#: sentinel distinguishing "caller said nothing" (fall back to env/default)
#: from an explicit ``None`` (which disables the run deadline)
_UNSET = object()

#: env-var spellings that disable an optional float knob
_NONE_WORDS = ("", "none", "off", "disabled")


def _env_float(
    name: str,
    default,
    *,
    none_ok: bool = False,
    positive: bool = True,
):
    """Read and validate a float tuning knob from the environment.

    ``none_ok`` accepts ``none``/``off``/``disabled`` (case-insensitive) as
    "disable this bound".  Malformed or non-positive values raise
    ``ValueError`` naming the variable -- a silent fallback would hide the
    typo until a worker hangs forever.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    if none_ok and raw.strip().lower() in _NONE_WORDS:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not a number"
        ) from None
    if positive and value <= 0:
        raise ValueError(
            f"environment variable {name}={raw!r} must be positive"
            + (" (or 'none' to disable)" if none_ok else "")
        )
    return value


def default_start_method() -> str:
    """``fork`` where available (cheap, no pickling), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def process_backend_support(
    start_method: Optional[str] = None,
) -> Tuple[bool, str]:
    """Probe whether real OS-process execution works on this platform.

    Returns ``(supported, detail)``: ``detail`` is the resolved start
    method when supported, or the reason when not (a non-POSIX host, no
    ``fork``/``spawn``, ``sem_open`` missing in the libc/sandbox, ...).
    Tests use this for explicit skip markers instead of failing opaquely
    mid-run.
    """
    # the transport is pipes + select.poll + an unlinked shared mapping
    # (repro.backend.transport): say so here, not from inside Fabric
    if os.name != "posix":
        return False, f"process backend needs a POSIX host, not {os.name!r}"
    if not hasattr(select, "poll"):
        return False, "select.poll unavailable on this platform"
    try:
        # platforms without a working sem_open (some musl/sandbox setups)
        # fail here rather than deep inside a Barrier
        import multiprocessing.synchronize  # noqa: F401
    except (ImportError, OSError) as exc:
        return False, f"multiprocessing.synchronize unavailable: {exc}"
    method = start_method or default_start_method()
    if method not in mp.get_all_start_methods():
        return False, f"start method {method!r} not available on this platform"
    try:
        ctx = mp.get_context(method)
        ctx.Barrier(1)  # touches the semaphore implementation
    except (ValueError, OSError) as exc:  # pragma: no cover - platform specific
        return False, f"cannot initialise {method!r} context: {exc}"
    return True, method


def crash_injection_support(
    start_method: Optional[str] = None,
) -> Tuple[bool, str]:
    """Probe whether fail-stop crash injection (SIGKILL of children) works.

    Everything :func:`process_backend_support` needs, plus ``os.kill`` and
    ``SIGKILL`` -- sandboxes that forbid signalling children (or Windows,
    which has no SIGKILL) make the recovery tests skip cleanly rather than
    hang or error mid-run.
    """
    ok, detail = process_backend_support(start_method)
    if not ok:
        return False, detail
    if not hasattr(os, "kill"):
        return False, "os.kill unavailable on this platform"
    if not hasattr(signal, "SIGKILL"):
        return False, "signal.SIGKILL unavailable (non-POSIX platform)"
    return True, detail


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
def _match_store(
    store: Dict[int, Deque[Tuple[int, Any]]], source: int, tag: int
) -> Optional[Any]:
    """Pop the first buffered message matching ``(source, tag)``; None if none.

    Mirrors the scheduler's matching rule: FIFO per tag, first entry from
    the requested source (any entry for ``ANY_SOURCE``).
    """
    dq = store.get(tag)
    if not dq:
        return None
    if source == ANY_SOURCE:
        src, payload = dq.popleft()
    else:
        hit = None
        for i, (src_i, _) in enumerate(dq):
            if src_i == source:
                hit = i
                break
        if hit is None:
            return None
        src, payload = dq[hit]
        del dq[hit]
    if not dq:
        del store[tag]
    return (src, payload)


def _drive(rank, size, program, mailbox, result_q, barrier, timeout, trace,
           hb_interval=DEFAULT_HEARTBEAT_INTERVAL):
    """Run one rank's generator to completion; returns (result, report)."""
    gen = program(rank, size)
    job = mailbox.job_id  # scopes every report, like every frame
    store: Dict[int, Deque[Tuple[int, Any]]] = {}
    segments: List[Tuple[str, float, float, str]] = []
    compute_time = 0.0
    send_time = 0.0
    recv_wait = 0.0
    barrier_wait = 0.0
    flops = 0.0
    msgs_sent = 0
    words_sent = 0.0
    msgs_recv = 0
    words_recv = 0.0

    barrier.wait(timeout)  # align the measured start across ranks
    result_q.put((job, "hb", rank, time.monotonic()))  # liveness: run entered
    last_hb = time.monotonic()
    start = time.perf_counter()
    hard_deadline = None if timeout is None else start + timeout

    def _heartbeat() -> None:
        # periodic liveness: the parent's straggler detector watches the
        # age of these; a rank stuck in one slow op goes visibly stale
        nonlocal last_hb
        now = time.monotonic()
        if now - last_hb >= hb_interval:
            result_q.put((job, "hb", rank, now))
            last_hb = now

    def _remaining(op_deadline: Optional[float]) -> Optional[float]:
        now = time.perf_counter()
        cands = [d for d in (op_deadline, hard_deadline) if d is not None]
        if not cands:
            return None
        return min(cands) - now

    value: Any = None
    throw: Optional[BaseException] = None
    # every clock reading closes one segment and opens the next, so that
    # compute + send + receive/barrier wait add up to the rank's wall time
    t_done = start
    while True:
        t0 = t_done
        try:
            if throw is not None:
                exc, throw = throw, None
                op = gen.throw(exc)
            else:
                op = gen.send(value)
        except StopIteration as stop:
            result = stop.value
            t_end = time.perf_counter()
            compute_time += t_end - t0
            if trace:
                segments.append(("compute", t0, t_end, ""))
            break
        t1 = time.perf_counter()
        compute_time += t1 - t0
        if trace:
            segments.append(("compute", t0, t1, ""))
        t_done = t1
        _heartbeat()
        value = None
        if isinstance(op, Compute):
            flops += op.flops  # the real work already ran inside the program
        elif isinstance(op, Send):
            if not 0 <= op.dest < size:
                raise ValueError(f"rank {rank} sent to invalid rank {op.dest}")
            # pickled by this thread: a bad payload raises here, as our error
            mailbox.send(op.dest, op.tag, op.payload)
            t_done = time.perf_counter()
            send_time += t_done - t1
            if trace:
                segments.append(("send", t1, t_done, f"-> {op.dest}"))
            msgs_sent += 1
            words_sent += op.words()
        elif isinstance(op, Recv):
            if op.source != ANY_SOURCE and not 0 <= op.source < size:
                raise ValueError(
                    f"rank {rank} posted a receive from invalid rank "
                    f"{op.source} (nprocs={size})"
                )
            op_deadline = None if op.timeout is None else t1 + op.timeout
            matched = _match_store(store, op.source, op.tag)
            while matched is None:
                _heartbeat()  # a rank blocked in a receive is alive
                remaining = _remaining(op_deadline)
                if remaining is not None and remaining <= 0:
                    if op_deadline is not None and (
                        hard_deadline is None or op_deadline <= hard_deadline
                    ):
                        throw = RecvTimeoutError(
                            rank=rank,
                            peer=(
                                None if op.source == ANY_SOURCE else op.source
                            ),
                            tag=op.tag,
                            elapsed=op.timeout,
                        )
                        break
                    raise BackendTimeoutError(
                        f"rank {rank}: hard timeout ({timeout:g}s) expired "
                        f"waiting for a message (source={op.source}, "
                        f"tag={op.tag})"
                    )
                # cap each poll by the heartbeat interval so liveness keeps
                # flowing while we wait
                poll = hb_interval if remaining is None else min(
                    remaining, hb_interval
                )
                got = mailbox.recv(max(poll, 1e-3))
                if got is None:
                    continue
                src, tag, payload = got
                store.setdefault(tag, deque()).append((src, payload))
                matched = _match_store(store, op.source, op.tag)
            t_done = time.perf_counter()
            recv_wait += t_done - t1
            if matched is not None:
                src, payload = matched
                value = payload
                msgs_recv += 1
                words_recv += payload_words(payload)
                if trace:
                    segments.append(("p2p", t1, t_done, f"<- {src}"))
        elif isinstance(op, Checkpoint):
            # ship the snapshot to the supervising parent (stable storage);
            # the put doubles as a heartbeat for crash diagnostics
            result_q.put((job, "ckpt", rank, (op.iteration, op.payload)))
        elif isinstance(op, Barrier):
            remaining = _remaining(None)
            try:
                barrier.wait(remaining)
            except Exception as exc:
                raise BackendTimeoutError(
                    f"rank {rank}: barrier broken or timed out "
                    f"({type(exc).__name__})"
                ) from exc
            t_done = time.perf_counter()
            barrier_wait += t_done - t1
            if trace:
                segments.append(("barrier", t1, t_done, op.label))
        else:
            raise TypeError(f"rank {rank} yielded a non-Op value: {op!r}")

    # bytes a full pipe refused must be out before the drain barrier
    mailbox.drain(_remaining(None))
    end = time.perf_counter()
    send_time += end - t_end
    report = {
        "start": start,
        "end": end,
        "wall": end - start,
        "compute_time": compute_time,
        "send_time": send_time,
        "recv_wait": recv_wait,
        "barrier_wait": barrier_wait,
        "comm_time": recv_wait + barrier_wait,
        "messages": msgs_recv,
        "messages_sent": msgs_sent,
        "words": words_recv,
        "words_sent": words_sent,
        "flops": flops,
        "segments": segments,
    }
    return result, report


def _run_rank(rank, size, program, mailbox, result_q, barrier, timeout,
              trace, hb_interval):
    """Drive one job on this rank and report it; False if the barrier broke.

    The job body of the one-shot worker and of the warm pool's workers.
    """
    job = mailbox.job_id
    intact = True
    try:
        outcome = ("ok", rank, _drive(rank, size, program, mailbox, result_q,
                                      barrier, timeout, trace, hb_interval))
        # tell the parent this rank is merely draining, not stuck: a rank
        # waiting at the drain barrier stops heartbeating, and without this
        # marker the straggler detector could mistake it for the slow one
        result_q.put((job, "done", rank, time.monotonic()))
        # Drain barrier: a message a peer has not read yet sits in a pipe
        # and a ring that die with their last holder (or belong to the next
        # job).  Nobody leaves until every rank completed its receives.
        try:
            barrier.wait(timeout)
        except Exception:
            intact = False  # a peer failed or timed out; the run is failing
    except BaseException as exc:  # noqa: BLE001 - must report, not die silently
        try:
            barrier.abort()  # release peers blocked at the drain barrier
        except Exception:
            pass
        outcome = ("err", rank, f"{type(exc).__name__}: {exc}\n"
                                f"{traceback.format_exc()}")
        intact = False
    result_q.put((job,) + outcome)
    return intact


def _worker_main(rank, size, program, fabric, result_q, *args):
    """Process entry point: run the rank, ship (result, report) or the error."""
    _run_rank(rank, size, program, fabric.endpoint(rank), result_q, *args)
    result_q.close()
    result_q.join_thread()  # flush the result before tearing down


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
class ProcessBackend(ExecutionBackend):
    """Execute SPMD rank programs on real OS processes with measured time.

    Parameters
    ----------
    start_method:
        ``"fork"``, ``"spawn"`` or ``"forkserver"``; ``None`` picks
        :func:`default_start_method`.  Under ``spawn`` the program factory
        must be picklable (a module-level class instance, not a closure).
    timeout:
        Hard wall-clock bound in seconds for the whole run.  Workers bound
        every blocking wait by it and the parent kills any process still
        alive once it expires (plus a small grace period).  ``None``
        disables the bound -- never do that in a test suite.  When not
        given, the ``REPRO_RUN_DEADLINE`` environment variable (a float in
        seconds, or ``none``/``off``/``disabled``) is consulted before
        falling back to ``DEFAULT_RUN_DEADLINE``.
    heartbeat_interval:
        Seconds between worker liveness heartbeats (positive).  When not
        given, ``REPRO_HEARTBEAT_INTERVAL`` is consulted before falling
        back to ``DEFAULT_HEARTBEAT_INTERVAL``.  Smaller intervals tighten
        straggler detection latency at the cost of queue traffic.
    straggler_deadline:
        Optional seconds of heartbeat staleness after which an unfinished
        rank is declared a straggler and the run aborted with
        :class:`~repro.machine.faults.StragglerDetectedError` (carrying
        ``rank`` and ``lag``).  Detection only fires while at least one
        *other* rank is demonstrably making progress (fresh heartbeat,
        finished, or reported), so a cold start or a global stall cannot
        misfire.  ``None`` (default) disables detection.  Must exceed the
        heartbeat interval, else every rank would look stale between
        beats.
    trace:
        Record measured per-rank compute/comm segments and return them as
        a :class:`~repro.machine.trace.Tracer` on the run.
    tag:
        Stats tag attached to the mirrored communication records.
    faults:
        Optional :class:`~repro.machine.faults.FaultPlan` whose *crash
        schedule* this backend executes for real: the parent SIGKILLs the
        scheduled rank once the run's wall clock passes ``at_time`` (real
        seconds here, simulated seconds on the simulator -- DESIGN.md §8).
        Message faults in the plan are ignored at this layer; inject them
        at the Comm boundary with :mod:`repro.backend.faulty`.  Crashes are
        consumed-once, so a recovery driver re-running on the same backend
        does not kill the respawned rank again.
    crash_on_checkpoint:
        ``{rank: iteration}`` -- SIGKILL ``rank`` as soon as the parent
        receives its checkpoint for ``iteration`` (or later).  A
        deterministic mid-solve trigger for tests and benches, immune to
        wall-clock jitter.  Consumed-once, like the fault-plan crashes.
    """

    name = "process"

    def __init__(
        self,
        start_method: Optional[str] = None,
        timeout: Optional[float] = _UNSET,
        trace: bool = False,
        tag: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        crash_on_checkpoint: Optional[Dict[int, int]] = None,
        heartbeat_interval: float = _UNSET,
        straggler_deadline: Optional[float] = None,
    ):
        self.start_method = start_method
        if timeout is _UNSET:
            timeout = _env_float(
                "REPRO_RUN_DEADLINE", DEFAULT_RUN_DEADLINE, none_ok=True
            )
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None to disable)")
        self.timeout = timeout
        if heartbeat_interval is _UNSET:
            heartbeat_interval = _env_float(
                "REPRO_HEARTBEAT_INTERVAL", DEFAULT_HEARTBEAT_INTERVAL
            )
        if heartbeat_interval is None or heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.heartbeat_interval = heartbeat_interval
        if straggler_deadline is not None:
            if straggler_deadline <= 0:
                raise ValueError(
                    "straggler_deadline must be positive (or None to disable)"
                )
            if straggler_deadline <= heartbeat_interval:
                raise ValueError(
                    f"straggler_deadline ({straggler_deadline:g}s) must exceed "
                    f"the heartbeat interval ({heartbeat_interval:g}s)"
                )
        self.straggler_deadline = straggler_deadline
        self.trace = trace
        self.tag = tag
        self.faults = faults
        self.crash_on_checkpoint = dict(crash_on_checkpoint or {})

    # -------------------------------------------------------------- #
    def _wants_kills(self) -> bool:
        return bool(self.crash_on_checkpoint) or (
            self.faults is not None and bool(self.faults.crash_schedule())
        )

    @staticmethod
    def _kill_rank(workers, rank: int) -> bool:
        """SIGKILL one worker (fail-stop injection); False if already gone."""
        w = workers[rank]
        if w.exitcode is not None or w.pid is None:
            return False  # finished (or never started): crash missed its window
        os.kill(w.pid, signal.SIGKILL)
        return True

    def _fire_due_time_kills(self, workers, reports, run_start: float) -> None:
        """Execute fault-plan crashes whose real-seconds deadline passed."""
        if self.faults is None:
            return
        elapsed = time.monotonic() - run_start
        for crash in self.faults.crash_schedule():
            if crash.at_time <= elapsed and crash.rank not in reports:
                self.faults.fire_crash(crash.rank)  # consumed-once
                self._kill_rank(workers, crash.rank)

    @staticmethod
    def _crashed_rank(workers, reports) -> Optional[int]:
        """The lowest unreported rank that vanished fail-stop (signal death)."""
        for r, w in enumerate(workers):
            if r not in reports and w.exitcode is not None and w.exitcode < 0:
                return r
        return None

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
        ok, detail = process_backend_support(self.start_method)
        if not ok:
            raise BackendError(f"process backend unavailable: {detail}")
        if self._wants_kills():
            ok_kill, why = crash_injection_support(self.start_method)
            if not ok_kill:
                raise BackendError(f"crash injection unavailable: {why}")
        ctx = mp.get_context(detail)

        fabric = Fabric(ctx, nprocs)
        result_q = ctx.Queue()
        barrier = ctx.Barrier(nprocs)
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(rank, nprocs, program, fabric, result_q, barrier,
                      self.timeout, self.trace, self.heartbeat_interval),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(nprocs)
        ]
        try:
            try:
                for w in workers:
                    w.start()
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # spawn pickles the arguments in this thread: fail now, typed
                raise BackendError(
                    f"cannot pickle program {program!r} for start method "
                    f"{detail!r}: {type(exc).__name__}: {exc}") from exc
            reports = self._collect(workers, result_q, checkpoints)
            for w in workers:
                w.join(timeout=_PARENT_GRACE)
        finally:
            # every exit path -- success, deadline, crash, worker error,
            # KeyboardInterrupt -- must leave zero live children and no
            # parent-side pipes or mappings (a solver *service* runs
            # thousands of these; leaking one pipe pair per failed run
            # would exhaust the fd table)
            self._reap(workers)
            self._close_queues([result_q])
            fabric.close()

        return self._assemble(nprocs, reports)

    #: wording of this backend's verdicts (the warm pool has its own)
    _WORKER, _WORKERS, _BACKEND = (
        "worker", "worker process(es)", "process backend")

    def _collect(self, workers, result_q, checkpoints, job_id=0):
        """Supervise one run until every rank reported; returns the reports.

        The one supervision loop of the one-shot backend and the warm
        pool.  Every item carries its job's id in front; items of other
        jobs of a reused pool are skipped.
        """
        nprocs = len(workers)
        reports: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
        last_heartbeat: Dict[int, float] = {}
        done_ranks: set = set()
        collateral: Optional[WorkerFailedError] = None
        run_start = time.monotonic()
        deadline = (
            None
            if self.timeout is None
            else run_start + self.timeout + _PARENT_GRACE
        )
        while len(reports) < nprocs:
            self._fire_due_time_kills(workers, reports, run_start)
            # every iteration, not just on an empty queue: busy peers
            # heartbeat constantly, so the queue is rarely empty while
            # a straggler silently stalls
            self._check_straggler(nprocs, reports, done_ranks, last_heartbeat)
            try:
                item = result_q.get(timeout=0.1)
            except queue_mod.Empty:
                # classify a fail-stop loss before anything else: a rank
                # that died by signal must surface as a crash, not as the
                # timeout/abort its stalled peers would otherwise cause
                crashed = self._crashed_rank(workers, reports)
                if crashed is not None:
                    raise WorkerCrashedError(
                        crashed,
                        f"{self._WORKER} rank {crashed} vanished fail-stop "
                        f"(exitcode {workers[crashed].exitcode}; last "
                        f"heartbeat "
                        f"{self._hb_age(last_heartbeat, crashed):.2f}s ago)",
                    )
                dead = [
                    w.name
                    for r, w in enumerate(workers)
                    if r not in reports
                    and w.exitcode is not None
                    and w.exitcode != 0
                ]
                if dead:
                    raise WorkerFailedError(
                        f"{self._WORKERS} died without reporting: {dead}"
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise BackendTimeoutError(
                        f"{self._BACKEND} timed out after "
                        f"{self.timeout:g}s; ranks missing: "
                        f"{sorted(set(range(nprocs)) - set(reports))}"
                    )
                continue
            jid, kind, rank, payload = item
            if jid != job_id:
                continue  # stale report from a previous (failed) job
            if kind == "hb":
                last_heartbeat[rank] = time.monotonic()
            elif kind == "done":
                # the rank finished its program and is only draining;
                # exempt it from straggler staleness checks
                done_ranks.add(rank)
                last_heartbeat[rank] = time.monotonic()
            elif kind == "ckpt":
                last_heartbeat[rank] = time.monotonic()
                iteration, snapshot = payload
                if checkpoints is not None:
                    checkpoints.setdefault(iteration, {})[rank] = snapshot
                due = self.crash_on_checkpoint.get(rank)
                if due is not None and iteration >= due:
                    del self.crash_on_checkpoint[rank]  # consumed-once
                    self._kill_rank(workers, rank)
            elif kind == "err":
                # a peer's error may be collateral damage of an injected
                # crash (broken barrier, receive timeout); report the
                # root cause when one exists
                crashed = self._crashed_rank(workers, reports)
                if crashed is not None:
                    raise WorkerCrashedError(
                        crashed,
                        f"{self._WORKER} rank {crashed} vanished fail-stop; "
                        f"rank {rank} failed in the aftermath:\n{payload}",
                    )
                failure = WorkerFailedError(
                    f"rank {rank} failed on the {self._BACKEND}:\n{payload}"
                )
                if not payload.startswith("BrokenBarrierError"):
                    raise failure
                # a barrier broken under this rank is a peer's failure: let
                # the peer's own report name the cause, keep this as fallback
                reports[rank] = collateral = collateral or failure
            else:
                reports[rank] = payload
        if collateral is not None:
            raise collateral
        return reports

    @staticmethod
    def _hb_age(last_heartbeat: Dict[int, float], rank: int) -> float:
        t = last_heartbeat.get(rank)
        return float("inf") if t is None else time.monotonic() - t

    def _check_straggler(
        self, nprocs, reports, done_ranks, last_heartbeat
    ) -> None:
        """Abort the run when a rank's heartbeats go deadline-stale.

        A rank counts as stale only once it has heartbeated at least once
        (so startup cost is never charged) and is neither done nor
        reported.  Detection further requires at least one *other* rank to
        be demonstrably healthy -- fresh heartbeat, done, or reported --
        so a machine-wide pause (swap storm, suspended laptop) does not
        scapegoat whichever rank happens to be oldest.
        """
        dl = self.straggler_deadline
        if dl is None:
            return
        now = time.monotonic()
        stale: Dict[int, float] = {}
        healthy = False
        for r in range(nprocs):
            if r in reports or r in done_ranks:
                healthy = True
                continue
            t = last_heartbeat.get(r)
            if t is None:
                continue  # not yet started measuring: never stale
            age = now - t
            if age > dl:
                stale[r] = age
            else:
                healthy = True
        if stale and healthy:
            victim = max(stale, key=stale.get)
            others = [
                now - t for r, t in last_heartbeat.items()
                if r != victim
            ]
            lag = stale[victim] - min(others) if others else stale[victim]
            raise StragglerDetectedError(rank=victim, lag=max(lag, 0.0))

    @staticmethod
    def _reap(workers) -> None:
        """Terminate, then kill, any worker still alive.  Never hangs.

        Every join carries a bound, so even a SIGTERM-proof child cannot
        wedge the caller; a final bounded join on *every* worker collects
        the exit status of processes that died on their own (no zombies
        left for ``active_children`` to report).
        """
        for w in workers:
            if w.is_alive():
                w.terminate()
        for w in workers:
            if w.is_alive():
                w.join(timeout=1.0)
        for w in workers:
            if w.pid is None:
                continue  # never started: nothing to collect
            if w.is_alive():  # pragma: no cover - needs a SIGTERM-proof child
                w.kill()
            w.join(timeout=1.0)

    @staticmethod
    def _close_queues(queues) -> None:
        """Release parent-side queue pipes/feeders without ever blocking."""
        for q in queues:
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass

    # -------------------------------------------------------------- #
    def _assemble(self, nprocs: int, reports) -> BackendRun:
        results = [reports[r][0] for r in range(nprocs)]
        per_rank_raw = [reports[r][1] for r in range(nprocs)]

        stats = MachineStats(nprocs)
        for r, rep in enumerate(per_rank_raw):
            stats.record_flops(r, rep["flops"])
            if rep["messages"]:
                stats.record_comm(
                    "p2p", rep["messages"], rep["words"], rep["recv_wait"],
                    self.tag,
                )
            if rep["barrier_wait"] > 0.0:
                stats.record_comm("barrier", 0, 0.0, rep["barrier_wait"], self.tag)

        t_zero = min(rep["start"] for rep in per_rank_raw)
        elapsed = max(rep["end"] for rep in per_rank_raw) - t_zero

        tracer = None
        if self.trace:
            tracer = Tracer(nprocs=nprocs)
            for r, rep in enumerate(per_rank_raw):
                for kind, s, e, det in rep["segments"]:
                    tracer.record(r, kind, s - t_zero, e - t_zero, det)

        per_rank = [
            {
                "wall": rep["wall"],
                "compute_time": rep["compute_time"],
                "comm_time": rep["comm_time"],
                "send_time": rep["send_time"],
                "messages": float(rep["messages"]),
                "words": rep["words"],
                "flops": rep["flops"],
            }
            for rep in per_rank_raw
        ]
        timings = {
            "total": elapsed,
            "compute": sum(p["compute_time"] for p in per_rank) / nprocs,
            "comm": sum(p["comm_time"] for p in per_rank) / nprocs,
            "send": sum(p["send_time"] for p in per_rank) / nprocs,
            "messages": float(sum(p["messages"] for p in per_rank)),
            "words": float(sum(p["words"] for p in per_rank)),
        }
        return BackendRun(
            backend=self.name,
            nprocs=nprocs,
            results=results,
            stats=stats,
            elapsed=elapsed,
            timings=timings,
            per_rank=per_rank,
            trace=tracer,
        )
