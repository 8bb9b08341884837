"""Run the distributed solvers on a chosen execution backend.

``backend_solve("cg", A, b, backend=ProcessBackend(), nprocs=4)`` builds
the row-block SPMD rank program for the solver, runs it on the backend,
and assembles the standard :class:`~repro.core.result.SolveResult` via
:func:`repro.core.driver.assemble_backend_result` -- so downstream
reporting treats a real-process solve exactly like a simulated one.

:func:`run_with_recovery` is the backend-agnostic fault recovery driver:
it runs a checkpointing program, and when the substrate reports a crashed
rank -- :class:`~repro.machine.faults.RankFailedError` from the simulated
scheduler, :class:`~repro.backend.base.WorkerCrashedError` from the
process backend's supervisor -- or a deadline-stale straggler
(:class:`~repro.machine.faults.StragglerDetectedError` from either), it
applies the configured :data:`RecoveryPolicy`:

* ``"respawn"`` (default, DESIGN.md §6): re-run *all* ranks from the
  newest checkpoint every rank completed; a straggler's injected slowdown
  is consumed so the respawned rank runs at nominal speed;
* ``"shrink"`` (DESIGN.md §9): drop the victim, run an online
  ``REDISTRIBUTE`` of every CG operand from the ``P``-rank layout onto a
  balanced ``P-1``-rank :class:`~repro.hpf.distribution.IrregularBlock`,
  re-slice the newest complete checkpoint to the new layout, and continue
  degraded on the survivors;
* ``"rebalance"`` (stragglers only): keep all ranks but re-cut the row
  space with :func:`~repro.extensions.partitioners.capacity_scaled_partitioner`
  so the slow rank gets proportionally less work; a rank flagged again
  after its rebalance escalates to a shrink (crashes always shrink under
  this policy -- a dead rank cannot be given less work).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.load_balance import shrink_report
from ..core.driver import assemble_backend_result
from ..core.resilience import (
    RecoveryExhaustedError,
    ResilienceConfig,
    latest_complete_checkpoint,
)
from ..core.result import SolveResult
from ..core.stopping import StoppingCriterion
from ..extensions.partitioners import (
    capacity_scaled_partitioner,
    cg_balanced_partitioner_1,
)
from ..hpf.distribution import (
    Block,
    Distribution,
    IrregularBlock,
    RedistributionPlan,
    redistribute_vector,
)
from ..machine.costmodel import CostModel
from ..machine.faults import (
    FaultPlan,
    RankFailedError,
    StragglerDetectedError,
)
from .base import (BackendRun, ExecutionBackend, ProgramFactory, RunOptions,
                   WorkerCrashedError)
from .faulty import FaultInjectingProgram, SlowdownProgram
from .process import ProcessBackend
from .programs import CGRankProgram, PCGRankProgram, ResilientCGProgram
from .simulated import SimulatedBackend

__all__ = ["BACKENDS", "SOLVER_PROGRAMS", "RecoveryPolicy", "make_backend",
           "make_solver_program", "backend_solve", "run_with_recovery",
           "reslice_snapshots"]

#: valid values for ``run_with_recovery``'s / ``backend_solve``'s ``policy``
RecoveryPolicy = ("respawn", "shrink", "rebalance")

#: capacity assumed for a straggler whose slowdown factor is unknown
#: (organic lag, no injected fault): rebalance as if it ran at 1/4 speed
_DEFAULT_STRAGGLER_CAPACITY = 0.25

BACKENDS = ("simulated", "process")

SOLVER_PROGRAMS = {
    "cg": CGRankProgram,
    "spmd_cg": CGRankProgram,  # alias: the baseline runs this same program
    "pcg": PCGRankProgram,
}


def make_backend(name: Union[str, ExecutionBackend], **kwargs) -> ExecutionBackend:
    """Resolve a backend name (``"simulated"``/``"process"``) to an instance."""
    if isinstance(name, ExecutionBackend):
        return name
    if name == "simulated":
        return SimulatedBackend(**kwargs)
    if name == "process":
        return ProcessBackend(**kwargs)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")


def make_solver_program(
    solver: str,
    matrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    fused: bool = False,
    reproducible: bool = False,
) -> ProgramFactory:
    """Build the backend-portable rank program for ``solver``.

    ``fused=True`` selects the single-reduction (Chronopoulos--Gear)
    recurrence: one batched allreduce per iteration instead of two.
    """
    try:
        cls = SOLVER_PROGRAMS[solver]
    except KeyError:
        raise ValueError(
            f"solver {solver!r} has no backend-portable SPMD program; "
            f"available: {sorted(SOLVER_PROGRAMS)}"
        ) from None
    return cls(matrix, b, x0=x0, criterion=criterion, fused=fused,
               reproducible=reproducible)


def reslice_snapshots(
    snaps: Dict[int, Dict[str, Any]],
    old: Distribution,
    new: Distribution,
) -> Dict[int, Dict[str, Any]]:
    """Re-slice one complete checkpoint from layout ``old`` onto ``new``.

    The distributed vector state (``x``, ``r``, ``p``, and ``s`` for
    fused-recurrence snapshots) is remapped exactly with
    :func:`~repro.hpf.distribution.redistribute_vector`; every other
    snapshot entry is a reduced scalar (``rho``, ``gamma``, ``bnorm``,
    residual history, ...) identical on every rank by construction, so it
    is taken from rank 0 and shared.  Keys are discovered from the
    snapshot itself, so classic and fused checkpoint formats reslice
    through the same code path.  The result is a ``{new_rank: snapshot}``
    dict a :class:`~repro.backend.programs.ResilientCGProgram` restarts
    from.
    """
    if set(snaps) != set(range(old.nprocs)):
        raise ValueError(
            f"checkpoint is not complete for {old.nprocs} ranks: "
            f"got ranks {sorted(snaps)}"
        )
    base = snaps[0]
    vec_keys = [k for k in ("x", "r", "p", "s") if k in base]
    parts = {
        key: redistribute_vector(
            [np.asarray(snaps[r][key], dtype=np.float64)
             for r in range(old.nprocs)],
            old, new,
        )
        for key in vec_keys
    }
    out: Dict[int, Dict[str, Any]] = {}
    for nr in range(new.nprocs):
        snap: Dict[str, Any] = {}
        for key, value in base.items():
            if key in parts:
                snap[key] = parts[key][nr]
            elif key == "residuals":
                snap[key] = list(value)
            else:
                snap[key] = value
        out[nr] = snap
    return out


def _effective_layout(program, nprocs: int) -> Distribution:
    """The row layout the program actually runs under at ``nprocs`` ranks."""
    layout = getattr(program, "layout", None)
    if layout is not None and layout.nprocs == nprocs:
        return layout
    default = getattr(program, "default_layout", None)
    if default is not None:
        return default(nprocs)
    return Block(program.n, nprocs)


def _fault_plans(options: RunOptions, program) -> List[FaultPlan]:
    """Every distinct FaultPlan the run consults, deduplicated by identity.

    One user plan typically appears several times -- the substrate share in
    the run's options, the message share on a
    :class:`~repro.backend.faulty.FaultInjectingProgram`, the corruption
    share on the inner solver program -- sometimes as the *same* object.
    """
    plans: List[FaultPlan] = []
    seen: set = set()

    def _add(plan) -> None:
        if isinstance(plan, FaultPlan) and id(plan) not in seen:
            seen.add(id(plan))
            plans.append(plan)

    _add(options.faults)
    obj = program
    while obj is not None:
        _add(getattr(obj, "plan", None))
        _add(getattr(obj, "faults", None))
        obj = getattr(obj, "inner", None)
    return plans


def _slowdown_wrappers(program) -> List[SlowdownProgram]:
    """The SlowdownProgram wrappers in the factory chain (usually 0 or 1)."""
    found: List[SlowdownProgram] = []
    obj = program
    while obj is not None:
        if isinstance(obj, SlowdownProgram):
            found.append(obj)
        obj = getattr(obj, "inner", None)
    return found


def _consume_slowdowns(options: RunOptions, program, rank: int) -> None:
    """Retire ``rank``'s pending slowdown everywhere it is scheduled."""
    for plan in _fault_plans(options, program):
        plan.drop_slowdown(rank)
    for wrapper in _slowdown_wrappers(program):
        wrapper.drop_slowdown(rank)


def _remap_faults(
    options: RunOptions, program, survivors: Sequence[int]
) -> RunOptions:
    """Renumber every pending fault after a shrink onto ``survivors``."""
    for plan in _fault_plans(options, program):
        plan.remap_ranks(survivors)
    for wrapper in _slowdown_wrappers(program):
        wrapper.remap_ranks(survivors)
    coc = options.crash_on_checkpoint
    if not coc:
        return options
    new_of = {old: new for new, old in enumerate(survivors)}
    return replace(options, crash_on_checkpoint={
        new_of[r]: it for r, it in coc.items() if r in new_of
    })


def _degrade_topology(
    backend, options: RunOptions, new_nprocs: int
) -> Tuple[RunOptions, Optional[str]]:
    """Fall back to a complete network when the topology can't shrink.

    A hypercube minus a node is not a hypercube: when the simulated run's
    topology spec cannot be instantiated at the survivor count
    (power-of-two constraints, fixed mesh shapes), the degraded machine is
    modelled as a complete network instead -- survivors are assumed to
    route around the hole at unit hop cost.  Also returns the old spec's
    repr when a fallback happened, for the recovery telemetry.
    """
    spec = options.topology
    if spec is None or getattr(backend, "machine", None) is not None:
        return options, None
    from ..machine.topology import make_topology

    try:
        make_topology(spec, new_nprocs)
    except (ValueError, TypeError):
        return replace(options, topology="complete"), str(spec)
    return options, None


def _redistribute_state(
    backend, program, store, old_layout, new_layout, survivors, nprocs,
    recovery,
) -> None:
    """Point ``program`` at ``new_layout`` with re-sliced checkpoint state.

    The stable store is cleared and re-seeded with the single re-sliced
    entry: stale old-layout snapshots must never satisfy a later
    ``latest_complete_checkpoint`` probe on the new rank count.  Also
    records the modelled cost of the online REDISTRIBUTE -- each global
    row carries its CSR entries (``2*nnz``), its x/r/p elements (3) and
    its indptr entry (1).
    """
    latest = latest_complete_checkpoint(store, nprocs)
    store.clear()
    if latest is None:
        program.restart = None
        recovery["restart_iterations"].append(-1)
    else:
        k0, snaps = latest
        resliced = reslice_snapshots(snaps, old_layout, new_layout)
        store[k0] = resliced
        program.restart = (k0, resliced)
        recovery["restart_iterations"].append(k0)
    program.layout = new_layout
    row_words = 2.0 * np.diff(program.indptr) + 4.0
    plan = RedistributionPlan(
        old_layout, new_layout, survivors=survivors, weights=row_words,
    )
    cost = getattr(backend, "cost", None) or CostModel()
    entry = plan.as_dict()
    entry["modelled_time"] = plan.modelled_time(cost)
    recovery["redistributions"].append(entry)


def run_with_recovery(
    backend: ExecutionBackend,
    program,
    nprocs: int,
    max_restarts: int = 4,
    store: Optional[Dict[int, Dict[int, Any]]] = None,
    policy: str = "respawn",
    min_ranks: int = 1,
    straggler_capacity: Optional[float] = None,
    options: Optional[RunOptions] = None,
) -> BackendRun:
    """Run a checkpointing program, surviving crashes and stragglers.

    ``program`` must publish :class:`~repro.machine.events.Checkpoint` ops
    and honour a ``restart`` attribute (``ResilientCGProgram`` does both).
    On a crash the driver locates the newest checkpoint *every* rank
    completed in ``store`` (partial snapshots are never restored --
    :func:`~repro.core.resilience.latest_complete_checkpoint`), points the
    program at it, and re-runs.  Crashes in the substrate's fault plan are
    consumed-once, so the respawned ranks do not die again on the same
    schedule.  After ``max_restarts`` failed attempts the driver raises
    :class:`~repro.core.resilience.RecoveryExhaustedError`.

    ``policy`` selects what a re-run looks like (see module docstring):
    ``"respawn"`` keeps all ``nprocs`` ranks; ``"shrink"`` drops the victim
    and redistributes onto the survivors (``program`` must then expose
    ``layout``/``n``/``indptr``, as the row-block programs do);
    ``"rebalance"`` re-cuts the row space around a straggler, giving it
    capacity ``straggler_capacity`` (default: the inverse of its injected
    slowdown factor when known, else 1/4), and escalates to a shrink if
    the same rank is flagged again.  A shrink below ``min_ranks`` raises
    :class:`~repro.core.resilience.RecoveryExhaustedError` instead.

    Every attempt runs under ``options``
    (:class:`~repro.backend.base.RunOptions`, unset fields the backend's);
    the driver consumes and remaps their fault schedules, never
    ``backend``.

    The returned run's ``recovery`` dict reports ``attempts``,
    ``crashes_recovered`` / ``stragglers_detected`` (ranks, in order),
    ``restart_iterations`` (the checkpoint each restart resumed from),
    ``recovery_wall`` (wall-clock seconds consumed before the successful
    attempt began), ``final_nprocs``, and -- per layout change --
    ``shrinks`` / ``rebalances`` (load-balance before/after) and
    ``redistributions`` (message/word counts and modelled time of each
    online REDISTRIBUTE).
    """
    if policy not in RecoveryPolicy:
        raise ValueError(
            f"unknown recovery policy {policy!r}; expected one of "
            f"{RecoveryPolicy}"
        )
    if min_ranks < 1:
        raise ValueError("min_ranks must be >= 1")
    options = (options or RunOptions()).over(backend)
    store = {} if store is None else store
    recovery: Dict[str, Any] = {
        "attempts": 0,
        "attempt_log": [],
        "crashes_recovered": [],
        "stragglers_detected": [],
        "restart_iterations": [],
        "recovery_wall": 0.0,
        "policy": policy,
        "shrinks": [],
        "rebalances": [],
        "redistributions": [],
        "final_nprocs": nprocs,
    }
    cur = nprocs
    rebalanced: set = set()
    loop_start = time.perf_counter()
    while True:
        recovery["attempts"] += 1
        attempt_start = time.perf_counter()
        try:
            run = backend.run(program, cur, checkpoints=store,
                              options=options)
        except (WorkerCrashedError, RankFailedError,
                StragglerDetectedError) as exc:
            is_straggler = isinstance(exc, StragglerDetectedError)
            rank = getattr(exc, "rank", None)
            recovery["attempt_log"].append({
                "attempt": recovery["attempts"],
                "nprocs": cur,
                "outcome": "straggler" if is_straggler else "crash",
                "rank": rank,
                "error": f"{type(exc).__name__}: {exc}",
                "elapsed": time.perf_counter() - attempt_start,
            })
            if recovery["attempts"] > max_restarts:
                raise RecoveryExhaustedError(
                    f"run still failing after {max_restarts} "
                    f"recovery attempts: {exc}",
                    attempts=recovery["attempt_log"],
                ) from exc
            if is_straggler:
                recovery["stragglers_detected"].append(rank)
            else:
                recovery["crashes_recovered"].append(
                    -1 if rank is None else rank
                )

            # choose the action this failure gets under the policy
            action = policy
            if rank is None or not 0 <= rank < cur:
                action = "respawn"  # cannot identify a victim: rerun all
            elif policy == "rebalance":
                if not is_straggler:
                    action = "shrink"  # a dead rank cannot be given less work
                elif rank in rebalanced:
                    action = "shrink"  # rebalancing did not cure it: escalate
            recovery["attempt_log"][-1]["action"] = action

            if action == "respawn":
                if is_straggler and rank is not None:
                    # the respawned rank must run at nominal speed
                    _consume_slowdowns(options, program, rank)
                latest = latest_complete_checkpoint(store, cur)
                if latest is None:
                    # failure before the iteration-0 checkpoint: cold restart
                    program.restart = None
                    recovery["restart_iterations"].append(-1)
                else:
                    program.restart = latest
                    recovery["restart_iterations"].append(latest[0])
                continue

            row_weights = np.diff(program.indptr).astype(np.float64)
            old_layout = _effective_layout(program, cur)
            old_loads = [
                float(row_weights[old_layout.local_indices(r)].sum())
                for r in range(cur)
            ]

            if action == "shrink":
                if cur - 1 < min_ranks:
                    raise RecoveryExhaustedError(
                        f"cannot shrink below min_ranks={min_ranks}: "
                        f"{cur} ranks left and rank {rank} "
                        f"{'straggling' if is_straggler else 'lost'}",
                        attempts=recovery["attempt_log"],
                    ) from exc
                survivors = [r for r in range(cur) if r != rank]
                default = getattr(program, "default_layout", None)
                if default is not None:
                    # grid-structured programs (HPCG subcubes) re-factorise
                    # their own process grid onto the survivor count
                    new_layout = default(cur - 1)
                else:
                    new_layout = IrregularBlock(
                        cg_balanced_partitioner_1(row_weights, cur - 1)
                    )
                _redistribute_state(
                    backend, program, store, old_layout, new_layout,
                    survivors, cur, recovery,
                )
                options = _remap_faults(options, program, survivors)
                options, degraded_topo = _degrade_topology(
                    backend, options, cur - 1)
                new_loads = [
                    float(row_weights[new_layout.local_indices(r)].sum())
                    for r in range(cur - 1)
                ]
                report = shrink_report(old_loads, new_loads)
                recovery["shrinks"].append(
                    {"victim": rank, "straggler": is_straggler,
                     "summary": str(report),
                     "imbalance_after": report.after.imbalance,
                     "topology_fallback": degraded_topo}
                )
                new_of = {old: new for new, old in enumerate(survivors)}
                rebalanced = {new_of[r] for r in rebalanced if r in new_of}
                cur -= 1
                recovery["final_nprocs"] = cur
                continue

            # action == "rebalance": keep all ranks, shift work off the
            # straggler in proportion to its remaining speed
            slow = next(
                (p.slowdown_for(rank) for p in _fault_plans(options, program)
                 if p.slowdown_for(rank) is not None),
                None,
            )
            factor = getattr(exc, "factor", None) or (
                slow.factor if slow is not None else None
            )
            capacity = straggler_capacity or (
                1.0 / factor if factor and factor > 1.0
                else _DEFAULT_STRAGGLER_CAPACITY
            )
            capacities = np.ones(cur)
            capacities[rank] = capacity
            new_layout = IrregularBlock(
                capacity_scaled_partitioner(row_weights, capacities)
            )
            _redistribute_state(
                backend, program, store, old_layout, new_layout,
                list(range(cur)), cur, recovery,
            )
            new_loads = [
                float(row_weights[new_layout.local_indices(r)].sum())
                for r in range(cur)
            ]
            recovery["rebalances"].append(
                {"victim": rank, "capacity": float(capacity),
                 "loads_before": old_loads, "loads_after": new_loads}
            )
            rebalanced.add(rank)
            continue
        recovery["recovery_wall"] = attempt_start - loop_start
        recovery["final_nprocs"] = cur
        run.recovery.update(recovery)
        return run


def _wants_recovery(faults, resilience, policy, store, options) -> bool:
    """Whether a solve runs its checkpointing program under recovery."""
    return not (
        faults is None and resilience is None and policy == "respawn"
        and store is None and options.straggler_deadline is None
        and options.heartbeat_interval is None
    )


def _resilient_solve(
    build_program,
    assemble,
    backend: ExecutionBackend,
    nprocs: int,
    options: RunOptions,
    faults: Optional[FaultPlan],
    resilience: Optional[ResilienceConfig],
    store: Optional[Dict[int, Dict[int, Any]]],
    policy: str,
    min_ranks: int,
) -> SolveResult:
    """The one fault-tolerant launch behind every fault-tolerant solve.

    ``build_program(**guard_options)`` builds the guarded rank program
    from the resilience options derived here; ``assemble(run, program)``
    turns the surviving run into a ``SolveResult``.  In between the plan
    is split by layer as :func:`backend_solve` documents: the run's
    ``options`` carry only the substrate's share (crashes and slowdowns);
    message faults enter at the Comm boundary alone, and the simulated
    scheduler refuses a plan that carries them.  A crash, slowdown or
    corruption aimed at a rank the solve does not have raises
    ``ValueError``: it would otherwise never fire.
    """
    cfg = resilience or ResilienceConfig()
    plan = faults.clone() if faults is not None else None
    if plan is not None:
        for entry in (*plan.crash_schedule(), *plan.slowdown_schedule(),
                      *plan.state_corruption_schedule()):
            if not 0 <= entry.rank < nprocs:
                raise ValueError(
                    f"{entry!r} targets rank {entry.rank}, but the solve "
                    f"runs on {nprocs} ranks")
    message_faults = plan is not None and plan.message_faults_enabled
    program = build_program(
        checkpoint_interval=cfg.checkpoint_interval,
        sanity_interval=cfg.sanity_interval,
        sanity_rtol=cfg.sanity_rtol,
        max_restarts=cfg.max_restarts,
        faults=plan,  # state corruptions; rank-local derivation inside
        reliable=message_faults,
        reliable_config=cfg.reliable,
    )
    runnable = (
        FaultInjectingProgram(program, plan) if message_faults else program
    )
    if plan is not None:
        options = replace(options, faults=plan.substrate_plan())
        if isinstance(backend, ProcessBackend) and plan.slowdown_schedule():
            runnable = SlowdownProgram(runnable, plan.slowdown_schedule())
    store = {} if store is None else store
    latest = latest_complete_checkpoint(store, nprocs)
    if latest is not None:
        # a durable store outlives the driver: resume from the newest
        # complete checkpoint the previous (killed) process published
        program.restart = latest
    run = run_with_recovery(backend, runnable, nprocs,
                            max_restarts=cfg.max_restarts,
                            store=store, policy=policy, min_ranks=min_ranks,
                            options=options)
    result = assemble(run, program)
    result.extras["recovery"] = dict(run.recovery)
    extras = [res[4] for res in run.results]
    guards = [e["resilience"] for e in extras]
    # the coordinated counters (rollbacks, audits, ...) are equal on every
    # rank; the transport and injection counters are per rank (each rank's
    # endpoint and injector see only its own sends), so those are summed
    resilience = dict(guards[0]) if guards else {}
    for key in ("telemetry", "fault_stats"):
        if key in resilience:
            resilience[key] = _sum_over_ranks(g.get(key) for g in guards)
    result.extras["resilience"] = resilience
    result.extras["injected_faults"] = _sum_over_ranks(
        e.get("injected_faults") for e in extras)
    return result


def _sum_over_ranks(per_rank) -> Dict[str, Any]:
    """Whole-run totals of per-rank counter dicts: numbers add, lists join."""
    total: Dict[str, Any] = {}
    for counters in per_rank:
        for key, value in (counters or {}).items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
            else:
                total.setdefault(key, []).extend(value)
    return total


def backend_solve(
    solver: str,
    matrix,
    b: np.ndarray,
    backend: Union[str, ExecutionBackend] = "simulated",
    nprocs: int = 4,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[StoppingCriterion] = None,
    faults: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
    policy: str = "respawn",
    min_ranks: int = 1,
    straggler_deadline: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    fused: bool = False,
    reproducible: bool = False,
    store: Optional[Dict[int, Dict[int, Any]]] = None,
) -> SolveResult:
    """Solve ``A x = b`` with ``solver`` on the chosen execution backend.

    ``fused=True`` runs the single-reduction (communication-avoiding)
    recurrence of the selected program: all per-iteration inner products
    travel in one batched allreduce (``spmd.allreduce_vec``) instead of
    two or three scalar trees.  Works on both backends and composes with
    ``faults``/``resilience`` (ABFT duplicate-sum slots ride in the same
    packed message).

    ``reproducible=True`` rides every inner product on the fixed-point
    superaccumulator of :mod:`repro.backend.reproducible`: dots and norms
    -- and hence the whole scalar trajectory and solution -- become
    bitwise invariant to rank count, topology, backend and fusion.
    Composes with ABFT (the duplicate-copy corruption check compares
    exactly-rendered values) at the cost of wider reduction payloads.

    With ``faults`` and/or ``resilience`` the solve runs the fault-tolerant
    :class:`~repro.backend.programs.ResilientCGProgram` (``"cg"`` family
    only) under :func:`run_with_recovery`.  The plan is split by layer:
    message faults are injected at the Comm boundary
    (:class:`~repro.backend.faulty.FaultInjectingProgram`), state
    corruptions inside the program, and fail-stop crashes *and slowdowns*
    by the substrate itself -- which is what makes the same plan meaningful
    on both backends.  On the process backend a scheduled slowdown becomes
    real per-op sleeps (:class:`~repro.backend.faulty.SlowdownProgram`);
    on the simulator the scheduler dilates the rank's charged compute
    time.  ``resilience`` also switches the transport: with message faults
    present the collectives run over the reliable ARQ layer.

    ``policy`` / ``min_ranks`` select the degraded-mode recovery behaviour
    (see :func:`run_with_recovery`); ``straggler_deadline`` arms straggler
    detection on either substrate (virtual-clock lag on the simulator,
    heartbeat staleness on real processes) and ``heartbeat_interval``
    tunes the process backend's liveness cadence.  They and the plan's
    substrate share reach every run of the solve as one
    :class:`~repro.backend.base.RunOptions`, so a backend name and a
    backend instance run the same solve.

    ``store`` supplies the checkpoint store (default: a fresh in-memory
    dict).  Passing a
    :class:`~repro.backend.store.DurableCheckpointStore` makes the solve
    resumable across driver death: when the store already holds a
    complete checkpoint from a previous (killed) run, the solve restarts
    from it instead of from scratch.
    """
    return _backend_solve(
        solver, matrix, b, backend, nprocs,
        RunOptions(straggler_deadline=straggler_deadline,
                   heartbeat_interval=heartbeat_interval),
        faults=faults, resilience=resilience, policy=policy,
        min_ranks=min_ranks, store=store, x0=x0, criterion=criterion,
        fused=fused, reproducible=reproducible,
    )


def _backend_solve(solver, matrix, b, backend, nprocs, options, *, faults,
                   resilience, policy, min_ranks, store, **program_args):
    """:func:`backend_solve` with its per-run values in ``options``."""
    if policy not in RecoveryPolicy:
        raise ValueError(
            f"unknown recovery policy {policy!r}; expected one of "
            f"{RecoveryPolicy}"
        )
    be = make_backend(backend)
    if not _wants_recovery(faults, resilience, policy, store, options):
        program = make_solver_program(solver, matrix, b, **program_args)
        run = be.run(program, nprocs, options=options)
        return assemble_backend_result(run, solver=solver, n=program.n)

    if SOLVER_PROGRAMS.get(solver) is not CGRankProgram:
        raise ValueError(
            f"fault-tolerant backend solves support the 'cg' family only, "
            f"not {solver!r}"
        )
    return _resilient_solve(
        lambda **guard: ResilientCGProgram(matrix, b, **program_args,
                                           **guard),
        lambda run, program: assemble_backend_result(
            run, solver=solver, n=program.n),
        be, nprocs, options, faults, resilience, store, policy, min_ranks,
    )
