"""Chaos harness: seeded randomized fault schedules on both backends.

The contract this harness enforces is the robustness north-star in one
sentence: **under any seeded fault schedule, a fault-tolerant solve either
converges to the reference solution or fails with a classified, typed
error** -- never a hang, never a silently wrong answer, never an anonymous
stack trace.

Per seed, :func:`chaos_plan` draws a fault mix from one NumPy generator:
message-fault probabilities (drop / duplicate / corrupt / delay), possibly
a silent state corruption of ``x`` or ``r`` (the targets the sanity audit
can detect), and possibly a mid-solve fail-stop crash.  The same seed
produces the same mix on both backends; only the crash *trigger* is
substrate-native -- a simulated-time :class:`~repro.machine.faults.RankCrash`
on the simulated machine, a checkpoint-triggered SIGKILL
(``crash_on_checkpoint``) on the process backend, where virtual time does
not exist.

Each run goes through :func:`repro.backend.solve.backend_solve` with
resilience on, i.e. the full stack under test: Comm-level injection,
reliable ARQ transport, in-program audits/rollbacks, substrate crash
injection and the respawn-from-checkpoint recovery driver.  The answer is
held to a fault-free reference by :func:`judge` and a failure is
classified by :func:`classify_failure`; an *unclassified* exception
propagates and fails the harness, because an unknown failure mode is
exactly what chaos testing exists to surface.  The service soak draws and
judges its jobs with the same :func:`chaos_plan` and :func:`judge`.

``repro chaos`` (the CLI) and benchmark E21 are thin wrappers over
:func:`chaos_sweep` / :func:`format_report`.
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.resilience import RecoveryExhaustedError, ResilienceConfig
from ..core.stopping import StoppingCriterion
from ..machine.faults import FaultPlan, RankCrash, RankSlowdown, StateCorruption
from ..machine.reliable import ReliableConfig
from ..machine.scheduler import DeadlockError
from ..hpcg.program import HPCG_PRECONDS
from ..hpcg.solve import hpcg_solve
from ..sparse.generators import poisson1d, rhs_for_solution
from .abft import AbftChecksumError
from .base import (
    BackendTimeoutError,
    WorkerCrashedError,
)
from .process import ProcessBackend
from .simulated import SimulatedBackend
from .solve import backend_solve

__all__ = [
    "ChaosOutcome",
    "chaos_plan",
    "chaos_reference",
    "chaos_run",
    "chaos_sweep",
    "classify_failure",
    "is_retryable",
    "judge",
    "format_report",
    "CHAOS_BACKENDS",
    "CHAOS_CRITERION",
    "CHAOS_RESILIENCE",
    "CHAOS_SCENARIOS",
]

CHAOS_BACKENDS = ("simulated", "process")

#: chaos workloads: the 1-D Poisson CG baseline and the HPCG-class
#: 27-point stencil solve (preconditioned, subcube-distributed, ABFT on)
CHAOS_SCENARIOS = ("poisson1d", "stencil27")

#: default 3-D grid for the ``stencil27`` scenario
_STENCIL_SHAPE = (6, 6, 6)

#: the stopping rule of every chaos solve and of its reference
CHAOS_CRITERION = StoppingCriterion(rtol=1e-10, atol=0.0)

#: the recovery settings every chaos run and soak job solves under
CHAOS_RESILIENCE = ResilienceConfig(
    checkpoint_interval=5,
    sanity_interval=5,
    max_restarts=8,
    # real-seconds ack timeouts for the process backend; on the simulator
    # the conservative stall-driven expiry makes the same values safe (a
    # fault-free receive never expires spuriously)
    reliable=ReliableConfig(base_timeout=0.05, max_retries=8),
)

#: recovery actions that change the reduction layout
_LAYOUT_ACTIONS = ("shrink", "rebalance")

#: outcome labels every chaos run must land on
CONVERGED = "converged"
#: converged on fewer ranks than it started with (a shrink happened)
DEGRADED = "degraded"
#: the one failure table, ``exception name -> outcome label``, with two
#: readers: :func:`classify_failure` reads the label, and being listed is
#: what makes a failure an infrastructure fault worth re-running
#: (:func:`is_retryable`) -- so a fault cannot be classified on one backend
#: and refused a retry on the other.  Names, not classes: the process
#: backend delivers a worker-side exception as text.
FAILURE_LABELS = {
    "RecoveryExhaustedError": "recovery_exhausted",
    "AbftChecksumError": "abft_detected",
    "RankFailedError": "rank_failed",
    "WorkerCrashedError": "worker_crashed",
    "StragglerDetectedError": "straggler",
    "BackendTimeoutError": "timeout",
    "RecvTimeoutError": "timeout",
    "DeadlockError": "deadlock",
    "WorkerFailedError": "worker_failed",
}

#: ``_run_rank`` heads a worker's ``err`` payload with ``"TypeName: msg"``
#: and the parent prefixes one ``"rank r failed on ...:"`` line
_WORKER_SIDE_TYPE = re.compile(r":\n(\w+): ")


def _chaos_problem(n: int):
    """The fixed chaos test problem: 1-D Poisson with a known solution."""
    A = poisson1d(n)
    x_true = np.linspace(1.0, 2.0, n)
    return A, rhs_for_solution(A, x_true)


def classify_failure(exc: BaseException) -> Optional[str]:
    """Map an exception to its chaos outcome label, or ``None`` if unknown.

    Process-backend workers report errors as a
    :class:`~repro.backend.base.WorkerFailedError` whose message embeds the
    worker-side exception name, so classification falls back to scanning
    the message for the known types before giving up.
    """
    name = _table_name(exc)
    if name == "WorkerFailedError":
        text = str(exc)
        for cls_name, label in FAILURE_LABELS.items():
            if cls_name in text:
                return label
    return FAILURE_LABELS.get(name)


def _table_name(exc: BaseException) -> Optional[str]:
    """The table entry for ``exc``'s type or its nearest listed base."""
    for base in type(exc).__mro__:
        if base.__name__ in FAILURE_LABELS:
            return base.__name__
    return None


def is_retryable(exc: BaseException) -> bool:
    """True when ``exc`` is an infrastructure failure worth re-running.

    A listed failure is; a bare ``WorkerFailedError`` is judged by the
    worker-side type it relays -- a ``ValueError`` from bad input fails
    identically on every attempt whichever backend raised it -- and stays
    retryable when it relays none (a worker that died without reporting).
    """
    name = _table_name(exc)
    if name == "WorkerFailedError":
        relayed = _WORKER_SIDE_TYPE.search(str(exc))
        return relayed is None or relayed.group(1) in FAILURE_LABELS
    return name is not None


@dataclass
class ChaosOutcome:
    """One seeded chaos run's verdict and accounting."""

    seed: int
    backend: str
    nprocs: int
    n: int
    outcome: str  #: ``"converged"`` or a label from :func:`classify_failure`
    converged_to_reference: bool
    max_abs_err: float
    iterations: int
    elapsed: float  #: harness wall-clock for the whole run, seconds
    planned: Dict[str, Any] = field(default_factory=dict)
    injected: Dict[str, Any] = field(default_factory=dict)
    retransmissions: float = 0.0
    rollbacks: int = 0
    attempts: int = 1
    crashes_recovered: List[int] = field(default_factory=list)
    restart_iterations: List[int] = field(default_factory=list)
    recovery_wall: float = 0.0
    error: str = ""
    policy: str = "respawn"
    stragglers_detected: List[int] = field(default_factory=list)
    final_nprocs: int = 0  #: 0 = never set (pre-degraded-mode outcome)
    scenario: str = "poisson1d"  #: workload the seed ran against
    precond: str = ""  #: preconditioner (stencil27 runs; "" for poisson1d)

    @property
    def ok(self) -> bool:
        """The chaos contract held for this run."""
        if self.outcome in (CONVERGED, DEGRADED):
            return self.converged_to_reference
        return True  # a classified failure is a contract-respecting outcome

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record of this run (``repro chaos --json``).

        Plain ``asdict`` plus the derived ``ok`` verdict; non-finite
        floats (``max_abs_err`` is NaN on a failed run) are nulled so the
        output is strict JSON.
        """
        out = asdict(self)
        out["ok"] = self.ok
        if not np.isfinite(self.max_abs_err):
            out["max_abs_err"] = None
        return out


def chaos_plan(
    seed: int,
    nprocs: int,
    message_prob: float = 0.04,
    corruption_prob: float = 0.5,
    crash_prob: float = 0.5,
    straggler_prob: float = 0.0,
) -> Dict[str, Any]:
    """Draw one seeded fault mix, expressed for both substrates.

    Returns ``{"plan": FaultPlan, "crash_on_checkpoint": {rank: iter},
    "planned": {...}}``.  ``plan`` carries the message faults, the state
    corruption, and (for the simulated backend) the ``RankCrash``;
    ``crash_on_checkpoint`` is the process backend's native expression of
    the same crash -- SIGKILL the victim when it publishes the chosen
    checkpoint.  Victim ranks are drawn uniformly, rank 0 included.

    The four message-fault probabilities are drawn from ``uniform(0,
    message_prob)``; an ``x``/``r`` corruption, a crash and a straggler
    each happen with their own probability.  A straggler is one
    :class:`~repro.machine.faults.RankSlowdown` carrying both substrate
    expressions: a compute-dilation ``factor`` that trips a virtual-clock
    deadline on the simulator (baseline rank skew is about one message
    time, ~5e-5 s) and a real per-op ``op_delay`` that trips a heartbeat
    deadline on the process backend.  The draws run in that order and a
    zero crash or straggler probability draws nothing, so turning a later
    class off never moves an earlier class's schedule.
    """
    rng = np.random.default_rng(seed)
    drop, duplicate, corrupt, delay = (
        float(rng.uniform(0.0, message_prob)) for _ in range(4)
    )

    corruptions = []
    if rng.random() < corruption_prob:
        corruptions.append(
            StateCorruption(
                iteration=int(rng.integers(2, 9)),
                target="x" if rng.random() < 0.5 else "r",
                rank=int(rng.integers(nprocs)),
                scale=float(10.0 ** rng.integers(2, 5)),
            )
        )

    crashes = []
    crash_on_checkpoint: Dict[int, int] = {}
    crash_planned = crash_prob > 0 and rng.random() < crash_prob
    if crash_planned:
        victim = int(rng.integers(nprocs))
        ckpt = int(rng.integers(1, 4))  # after the 1st..3rd checkpoint
        # simulated trigger: a virtual time early enough to land mid-solve
        crashes.append(RankCrash(victim, float(rng.uniform(1e-4, 5e-3))))
        crash_on_checkpoint[victim] = ckpt

    slowdowns = []
    straggler_planned = straggler_prob > 0 and rng.random() < straggler_prob
    if straggler_planned:
        victim = int(rng.integers(nprocs))
        # simulated expression: dilate charged compute by 1e7..1e8.  CG is
        # bulk-synchronous, so peers' clocks are dragged up to the victim
        # at every halo exchange and the observable lag is roughly ONE
        # dilated op, not an accumulated drift; a single dilated matvec
        # segment must therefore exceed the harness deadline on its own.
        # Process expression: sleep 1.5..3 s per op, beyond a ~1 s
        # heartbeat deadline.  at_time=0 so even a fast solve exhibits
        # the fault.
        slowdowns.append(
            RankSlowdown(
                rank=victim,
                at_time=0.0,
                factor=float(10.0 ** rng.uniform(7.0, 8.0)),
                op_delay=float(rng.uniform(1.5, 3.0)),
            )
        )

    plan = FaultPlan(
        seed=seed,
        drop_prob=drop,
        duplicate_prob=duplicate,
        corrupt_prob=corrupt,
        delay_prob=delay,
        crashes=crashes,
        state_corruptions=corruptions,
        slowdowns=slowdowns,
    )
    planned = {
        "drop_prob": round(drop, 4),
        "duplicate_prob": round(duplicate, 4),
        "corrupt_prob": round(corrupt, 4),
        "delay_prob": round(delay, 4),
        "state_corruptions": len(corruptions),
        "crash": crash_planned,
        "straggler": straggler_planned,
    }
    return {
        "plan": plan,
        "crash_on_checkpoint": crash_on_checkpoint,
        "planned": planned,
    }


def chaos_reference(
    nprocs: int,
    n: int = 48,
    scenario: str = "poisson1d",
    precond: str = "mg",
    shape: Optional[Sequence[int]] = None,
    reproducible: bool = False,
) -> np.ndarray:
    """The fault-free simulated solution a chaos outcome is judged against."""
    if scenario == "stencil27":
        return hpcg_solve(
            shape or _STENCIL_SHAPE, backend="simulated", nprocs=nprocs,
            precond=precond, criterion=CHAOS_CRITERION,
            reproducible=reproducible,
        ).x
    A, b = _chaos_problem(n)
    return backend_solve(
        "cg", A, b, backend="simulated", nprocs=nprocs,
        criterion=CHAOS_CRITERION, reproducible=reproducible,
    ).x


def judge(x, reference, attempt_log, reproducible: bool, rtol: float):
    """The contract's verdict on one answer: ``(ok, max_abs_err)``.

    A float sum's bits depend on its reduction order.  So ``x`` must equal
    ``reference`` bitwise under exact reductions (``reproducible``) or when
    no entry of the recovery driver's ``attempt_log`` shrank or rebalanced
    the layout (a respawn replays the identical recurrence); after such a
    layout change it must match to ``rtol`` times the reference's max-abs.
    """
    err = float(np.max(np.abs(x - reference)))
    layout_changed = any(
        entry.get("action") in _LAYOUT_ACTIONS for entry in attempt_log
    )
    if reproducible or not layout_changed:
        return err == 0.0, err
    scale = float(np.max(np.abs(reference))) or 1.0
    return err <= rtol * scale, err


def chaos_run(
    seed: int,
    backend: str = "simulated",
    nprocs: int = 4,
    n: int = 48,
    timeout: float = 60.0,
    allow_crash: bool = True,
    reference_x: Optional[np.ndarray] = None,
    rtol: float = 1.0e-8,
    policy: str = "respawn",
    stragglers: bool = False,
    straggler_deadline: float = 1.0,
    reproducible: bool = False,
    scenario: str = "poisson1d",
    precond: str = "mg",
    shape: Optional[Sequence[int]] = None,
) -> ChaosOutcome:
    """Run one seeded chaos schedule and return its classified outcome.

    Any exception *not* classified by :func:`classify_failure` propagates:
    an unknown failure mode is a harness failure, not an outcome.

    ``stragglers`` admits seeded rank slowdowns to the fault mix and arms
    deadline-based detection on the substrate (virtual-clock lag on the
    simulator, heartbeat staleness on real processes).
    ``straggler_deadline`` is the *process-backend* deadline in wall
    seconds; the simulator uses a deadline matched to its virtual clock
    (20 message times).  ``policy`` picks the recovery response
    (:data:`~repro.backend.solve.RecoveryPolicy`); a solve that converges
    on fewer ranks than it started with is classified ``"degraded"``.
    Either way the answer is held to :func:`judge`.

    ``reproducible=True`` runs the solve and its reference over
    superaccumulator reductions, whose results are invariant to rank
    count and recovery history, so :func:`judge` demands bitwise equality
    even after a shrink.  The fault draw itself is untouched, so seeds map
    to the same schedules as in non-reproducible runs.

    ``scenario`` picks the workload: ``"poisson1d"`` is the 1-D CG
    baseline above; ``"stencil27"`` runs the HPCG-class 27-point stencil
    solve (:func:`~repro.hpcg.solve.hpcg_solve`) with the ``precond``
    preconditioner on a ``shape`` grid (default ``(6, 6, 6)``), ABFT
    checks armed, under the *same* seeded fault draw -- the seed maps to
    one schedule regardless of workload.
    """
    if backend not in CHAOS_BACKENDS:
        raise ValueError(f"backend must be one of {CHAOS_BACKENDS}")
    if scenario not in CHAOS_SCENARIOS:
        raise ValueError(f"scenario must be one of {CHAOS_SCENARIOS}")
    if scenario == "stencil27":
        if precond not in HPCG_PRECONDS:
            raise ValueError(f"precond must be one of {HPCG_PRECONDS}")
        if policy not in ("respawn", "shrink"):
            raise ValueError(
                "stencil27 chaos supports the 'respawn' and 'shrink' "
                "policies only (rebalancing would break the subcube halo)"
            )
        shape = tuple(int(s) for s in (shape or _STENCIL_SHAPE))
        n = int(np.prod(shape))
    else:
        A, b = _chaos_problem(n)
    if reference_x is None:
        reference_x = chaos_reference(nprocs, n, scenario, precond, shape,
                                      reproducible)

    drawn = chaos_plan(seed, nprocs, crash_prob=0.5 if allow_crash else 0.0,
                       straggler_prob=0.6 if stragglers else 0.0)
    plan: FaultPlan = drawn["plan"]
    # simulated deadline in *virtual* seconds: it must sit above the ARQ
    # retransmission timeout (CHAOS_RESILIENCE's 0.05 s), or a single
    # injected message drop would stall a healthy rank past the deadline
    # and scapegoat it; 5x that still trips on a dilated rank within a
    # few iterations
    sim_deadline = 0.25 if stragglers else None
    if backend == "simulated":
        be = SimulatedBackend(
            faults=plan.substrate_plan(),
            straggler_deadline=sim_deadline,
        )
    else:
        proc_kwargs: Dict[str, Any] = dict(
            timeout=timeout,
            crash_on_checkpoint=dict(drawn["crash_on_checkpoint"]),
        )
        if stragglers:
            proc_kwargs["straggler_deadline"] = straggler_deadline
            proc_kwargs["heartbeat_interval"] = min(
                0.1, straggler_deadline / 4.0
            )
        be = ProcessBackend(**proc_kwargs)

    out = ChaosOutcome(
        seed=seed, backend=backend, nprocs=nprocs, n=n,
        outcome=CONVERGED, converged_to_reference=False,
        max_abs_err=float("nan"), iterations=0, elapsed=0.0,
        planned=drawn["planned"], policy=policy, final_nprocs=nprocs,
        scenario=scenario,
        precond=precond if scenario == "stencil27" else "",
    )
    t0 = time.perf_counter()
    try:
        if scenario == "stencil27":
            result = hpcg_solve(
                shape, backend=be, nprocs=nprocs, precond=precond,
                criterion=CHAOS_CRITERION, faults=plan,
                resilience=CHAOS_RESILIENCE, policy=policy,
                reproducible=reproducible, abft=True,
            )
        else:
            result = backend_solve(
                "cg", A, b, backend=be, nprocs=nprocs,
                criterion=CHAOS_CRITERION, faults=plan,
                resilience=CHAOS_RESILIENCE, policy=policy,
                reproducible=reproducible,
            )
    except Exception as exc:  # noqa: BLE001 - classified or re-raised
        label = classify_failure(exc)
        if label is None:
            raise  # unclassified: the chaos contract itself is broken
        out.outcome = label
        out.error = f"{type(exc).__name__}: {exc}"
        out.elapsed = time.perf_counter() - t0
        return out
    out.elapsed = time.perf_counter() - t0
    resil = result.extras.get("resilience", {}) or {}
    recov = result.extras.get("recovery", {}) or {}
    ok, out.max_abs_err = judge(result.x, reference_x,
                                recov.get("attempt_log", []),
                                reproducible, rtol)
    out.converged_to_reference = bool(result.converged) and ok
    out.iterations = int(result.iterations)
    out.rollbacks = int(resil.get("rollbacks", 0))
    out.retransmissions = float(
        (resil.get("telemetry") or {}).get("retransmissions", 0)
    )
    out.injected = dict(result.extras.get("injected_faults") or {})
    out.attempts = int(recov.get("attempts", 1))
    out.crashes_recovered = list(recov.get("crashes_recovered", []))
    out.restart_iterations = list(recov.get("restart_iterations", []))
    out.recovery_wall = float(recov.get("recovery_wall", 0.0))
    out.stragglers_detected = list(recov.get("stragglers_detected", []))
    out.final_nprocs = int(recov.get("final_nprocs", nprocs))
    out.outcome = DEGRADED if out.final_nprocs < nprocs else CONVERGED
    return out


def chaos_sweep(
    seeds: Sequence[int],
    backends: Sequence[str] = CHAOS_BACKENDS,
    nprocs: int = 4,
    n: int = 48,
    timeout: float = 60.0,
    allow_crash: bool = True,
    policy: str = "respawn",
    stragglers: bool = False,
    straggler_deadline: float = 1.0,
    reproducible: bool = False,
    scenario: str = "poisson1d",
    precond: str = "mg",
    shape: Optional[Sequence[int]] = None,
) -> List[ChaosOutcome]:
    """Run every seed on every backend; reference computed once per sweep."""
    reference = chaos_reference(nprocs, n, scenario, precond, shape,
                                reproducible)
    outcomes = []
    for backend in backends:
        for seed in seeds:
            outcomes.append(
                chaos_run(
                    seed, backend=backend, nprocs=nprocs, n=n,
                    timeout=timeout, allow_crash=allow_crash,
                    reference_x=reference, policy=policy,
                    stragglers=stragglers,
                    straggler_deadline=straggler_deadline,
                    reproducible=reproducible,
                    scenario=scenario, precond=precond, shape=shape,
                )
            )
    return outcomes


def format_report(outcomes: Sequence[ChaosOutcome]) -> str:
    """Fixed-width per-seed report table (the CI artifact / bench output)."""
    header = (
        f"{'seed':>5} {'backend':<9} {'outcome':<18} {'ref':<5} "
        f"{'max|err|':>10} {'iters':>5} {'att':>3} {'rb':>3} {'rtx':>5} "
        f"{'crash':>5} {'strag':>5} {'ranks':>5} {'rec_wall':>9} "
        f"{'faults (drop/dup/corr/delay)':<28}"
    )
    lines = [header, "-" * len(header)]
    for o in outcomes:
        inj = o.injected or {}
        faults = (
            f"{inj.get('dropped', 0)}/{inj.get('duplicated', 0)}"
            f"/{inj.get('corrupted', 0)}/{inj.get('delayed', 0)}"
        )
        ranks = o.final_nprocs if o.final_nprocs else o.nprocs
        lines.append(
            f"{o.seed:>5} {o.backend:<9} {o.outcome:<18} "
            f"{'yes' if o.converged_to_reference else 'no':<5} "
            f"{o.max_abs_err:>10.2e} {o.iterations:>5} {o.attempts:>3} "
            f"{o.rollbacks:>3} {o.retransmissions:>5.0f} "
            f"{len(o.crashes_recovered):>5} "
            f"{len(o.stragglers_detected):>5} {ranks:>5} "
            f"{o.recovery_wall:>9.3f} {faults:<28}"
        )
    ok = sum(1 for o in outcomes if o.ok)
    lines.append("-" * len(header))
    lines.append(
        f"contract held on {ok}/{len(outcomes)} runs "
        f"(converged-to-reference, degraded-converged, or classified failure)"
    )
    return "\n".join(lines)
