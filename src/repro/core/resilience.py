"""Checkpoint/rollback recovery for the distributed solvers.

The machine layer (:mod:`repro.machine.faults`,
:mod:`repro.machine.reliable`) masks *message* faults; this module holds
what the layer above it shares for the two fault classes that reach
solver state:

* **fail-stop rank crashes** -- the recovery driver
  (:func:`repro.backend.solve.run_with_recovery`) re-runs the rank program
  and every rank resumes from the latest *complete* coordinated checkpoint
  (all ranks present; :func:`latest_complete_checkpoint`);
* **silent state corruption** -- the rank programs' one guard,
  :class:`repro.backend.kernel.Guard`, audits the true residual
  ``||b - A x||`` against the recurrence's, rolls back on a mismatch, and
  restarts the search direction when the audits show stagnation (a
  corrupted ``p`` keeps ``r = b - A x``, so only its effect is visible).

:class:`ResilienceConfig` tunes both; :func:`hpf_fault_mode` is how the
HPF solvers reach them.  All of it is charged like any other rank-program
work, and benchmark E19 reads the totals back out of the result extras.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..machine.faults import FaultPlan
from ..machine.reliable import ReliableConfig
from .preconditioners import JacobiPreconditioner, Preconditioner
from .result import SolveResult
from .stopping import StoppingCriterion

__all__ = [
    "RecoveryExhaustedError",
    "ResilienceConfig",
    "hpf_fault_mode",
    "latest_complete_checkpoint",
]

#: the HPF strategies whose fault mode is the row-block rank program:
#: aligned-row CSR ``FORALL`` is "allgather p, multiply my rows"
ROW_BLOCK_STRATEGIES = ("csr_forall", "csr_forall_aligned")


class RecoveryExhaustedError(RuntimeError):
    """Recovery gave up: more rollbacks were needed than ``max_restarts``.

    ``attempts`` carries the full attempt telemetry when the raiser has it
    (one dict per failed attempt: outcome label, victim rank, recovery
    action taken, restart iteration, backoff delay where applicable), so
    an operator reading the error can see *why* the job failed, not just
    that it did.  Raisers without per-attempt records leave it empty.
    """

    def __init__(self, message: str = "", attempts=None):
        super().__init__(message)
        self.attempts = list(attempts or [])


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the checkpoint/rollback layer.

    ``checkpoint_interval`` iterations between coordinated checkpoints;
    ``sanity_interval`` iterations between residual audits (an audit also
    runs on every checkpoint iteration and before declaring convergence);
    ``sanity_rtol`` scales the audit tolerance by ``||b||``;
    ``max_restarts`` bounds rollbacks (and crash re-runs) before giving up;
    ``reliable`` optionally overrides the rank programs' ARQ tuning
    (default: ``ReliableConfig()``).  Every fault-tolerant solve -- the
    HPF solvers', ``spmd_cg``, ``backend_solve``, ``hpcg_solve`` -- reads
    the same five.
    """

    checkpoint_interval: int = 10
    sanity_interval: int = 5
    sanity_rtol: float = 1.0e-6
    max_restarts: int = 4
    reliable: Optional[ReliableConfig] = None

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.sanity_interval < 1:
            raise ValueError("sanity_interval must be >= 1")
        if self.sanity_rtol <= 0:
            raise ValueError("sanity_rtol must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")


def latest_complete_checkpoint(
    store: Dict[int, Dict[int, Any]], size: int
) -> Optional[Tuple[int, Dict[int, Any]]]:
    """The newest checkpoint every rank finished writing, or ``None``.

    A crash can interrupt a checkpoint mid-write, leaving a partial entry;
    restoring from one would mix iterations, so only complete snapshots
    count.  The returned rank map is materialised into a plain dict so it
    stays valid (and picklable for the process backend) even when the
    store is a live-view durable store that is cleared or mutated
    afterwards.
    """
    for k in sorted(store, reverse=True):
        if len(store[k]) == size:
            return k, dict(store[k])
    return None


def hpf_fault_mode(
    strategy,
    b: np.ndarray,
    x0: Optional[np.ndarray],
    criterion: Optional[StoppingCriterion],
    faults: Optional[FaultPlan],
    resilience: Optional[ResilienceConfig],
    preconditioner: Optional[Preconditioner] = None,
) -> SolveResult:
    """``hpf_cg`` / ``hpf_pcg`` under ``faults`` or ``resilience``: the
    strategy's row-block rank program on its machine, as ``spmd_cg``'s
    fault mode runs it, with a Jacobi ``preconditioner`` on the program's
    ``inv_diag`` seam.  Other strategies and preconditioners raise
    ``ValueError``."""
    if strategy.name not in ROW_BLOCK_STRATEGIES:
        raise ValueError(
            f"strategy {strategy.name!r} has no fault mode; only "
            f"{ROW_BLOCK_STRATEGIES} have a row-block rank program")
    if preconditioner is not None and \
            not isinstance(preconditioner, JacobiPreconditioner):
        raise ValueError(
            f"preconditioner {preconditioner.name!r} has no fault mode; "
            "hpf_pcg runs faults with JacobiPreconditioner only")
    # a cold path, and repro.baselines imports this module
    from ..baselines.message_passing import _resilient_row_block

    result = _resilient_row_block(
        strategy.machine, strategy.matrix, b, x0,
        criterion or StoppingCriterion(), faults, resilience,
        inv_diag=None if preconditioner is None else preconditioner.inv_diag,
        solver="cg" if preconditioner is None else "pcg",
    )
    if preconditioner is not None:
        result.extras["preconditioner"] = preconditioner.name
    return result
