"""One job, one entry: :class:`JobSpec` and :func:`solve`.

A spec states one solve and how it runs (deadline, heartbeat interval,
straggler deadline, crash triggers), as an HPF statement carries its
``DISTRIBUTE`` / ``ON PROCESSOR`` directives.  :func:`solve` is the one
place that picks the solver by ``scenario`` and opens the durable
checkpoint store; the service, the chaos harness, the soak and the
``solve`` / ``submit`` commands all build a spec and call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from ..core.result import SolveResult
from ..hpcg.solve import _hpcg_solve
from .base import ExecutionBackend, RunOptions
from .solve import _backend_solve
from .store import DurableCheckpointStore

__all__ = ["JobSpec", "solve"]


@dataclass
class JobSpec:
    """Everything needed to solve one system on the service.

    The solver/fault/resilience fields mirror
    :func:`~repro.backend.solve.backend_solve`; ``tenant`` and the
    deadlines serve admission and per-job SLAs (``deadline`` bounds each
    attempt's wall clock; ``None`` keeps the backend's default).
    ``scenario="stencil27"`` solves the HPCG stencil on ``shape`` with
    ``precond`` (``matrix``/``b`` may stay ``None``).  ``checkpoint_dir``
    journals checkpoints to a
    :class:`~repro.backend.store.DurableCheckpointStore`, so a job
    resubmitted after a service crash resumes from its newest one.
    """

    matrix: Any = None
    b: Optional[np.ndarray] = None
    tenant: str = "default"
    solver: str = "cg"
    nprocs: int = 4
    x0: Optional[np.ndarray] = None
    criterion: Optional[Any] = None
    #: the row-block recurrence: Chronopoulos--Gear (one reduction tree
    #: per iteration) or classic CG.  A ``stencil27`` job always runs
    #: Chronopoulos--Gear and ignores the field.
    fused: bool = False
    faults: Optional[Any] = None
    resilience: Optional[Any] = None
    policy: str = "respawn"
    min_ranks: int = 1
    deadline: Optional[float] = None
    straggler_deadline: Optional[float] = None
    heartbeat_interval: Optional[float] = None
    #: deterministic mid-solve crash triggers, ``{rank: iteration}``
    #: (consumed per attempt; each retry re-arms its own copy)
    crash_on_checkpoint: Dict[int, int] = field(default_factory=dict)
    #: ``"cg"`` (row-block solve of ``matrix``/``b``) or ``"stencil27"``
    #: (HPCG 27-point stencil built from ``shape``)
    scenario: str = "cg"
    shape: Optional[Any] = None
    precond: str = "mg"
    reproducible: bool = False
    abft: bool = False
    #: durable checkpoint directory; ``None`` keeps checkpoints in memory
    checkpoint_dir: Optional[str] = None
    #: client-supplied exactly-once key.  On a journaled service, a
    #: resubmission with the same key returns the recorded terminal
    #: result (or joins the live job) instead of re-running; ``None``
    #: gets a unique auto-key (journaled, but never deduped against).
    idempotency_key: Optional[str] = None


def solve(
    spec: JobSpec, backend: Union[str, ExecutionBackend] = "simulated"
) -> SolveResult:
    """Run ``spec`` once on ``backend`` (a name or a shared instance).

    The spec's per-run values reach every run of the solve as one
    :class:`~repro.backend.base.RunOptions` (``None`` keeps the backend's
    value), with fresh copies of its consumed-once crash schedules.
    """
    options = RunOptions(
        timeout=spec.deadline,
        heartbeat_interval=spec.heartbeat_interval,
        straggler_deadline=spec.straggler_deadline,
        crash_on_checkpoint=dict(spec.crash_on_checkpoint),
    )
    common = dict(
        x0=spec.x0, criterion=spec.criterion, faults=spec.faults,
        resilience=spec.resilience, policy=spec.policy,
        min_ranks=spec.min_ranks, reproducible=spec.reproducible,
        store=(DurableCheckpointStore(spec.checkpoint_dir)
               if spec.checkpoint_dir else None),
    )
    if spec.scenario == "stencil27":
        if spec.shape is None:
            raise ValueError("stencil27 jobs need a shape")
        return _hpcg_solve(
            spec.shape, backend, spec.nprocs, options, precond=spec.precond,
            b=spec.b, matrix=spec.matrix, abft=spec.abft, **common,
        )
    return _backend_solve(spec.solver, spec.matrix, spec.b, backend,
                          spec.nprocs, options, fused=spec.fused, **common)
