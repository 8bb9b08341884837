"""Checkpoint/rollback recovery for the distributed solvers.

The machine layer (:mod:`repro.machine.faults`,
:mod:`repro.machine.reliable`) masks *message* faults; this module handles
the two fault classes that reach solver state:

* **fail-stop rank crashes** -- the recovery driver
  (:func:`repro.backend.solve.run_with_recovery`) re-runs the rank program
  and every rank resumes from the latest *complete* coordinated checkpoint
  (all ranks present; :func:`latest_complete_checkpoint`);
* **silent state corruption** -- a periodic *sanity audit* recomputes the
  true residual ``||b - A x||`` and compares it with the recurrence
  residual the iteration carries.  A mismatch beyond ``sanity_rtol *
  ||b||`` means ``x`` or ``r`` no longer satisfy the CG invariant
  ``r = b - A x``: the solver rolls back to the last checkpoint and
  replays.  The audit also runs before convergence is declared, so a
  corrupted solve can never report success.

Known limitation, by construction: corrupting the *search direction* ``p``
(or the scalar ``rho``) preserves the ``r = b - A x`` invariant -- the
subsequent updates ``x += alpha p`` / ``r -= alpha (A p)`` stay mutually
consistent -- so the audit cannot flag it directly.  A poisoned direction
shows up instead as *stagnation*: the true residual stops shrinking while
the recurrence stays self-consistent.  When an audit observes essentially
no progress since the previous one, the guard asks the solver to *refresh*
the direction (``p := r``, a plain CG restart), which flushes the
corruption at the price of momentarily losing conjugacy.  Either way the
final audit guarantees the returned ``x`` is genuine.

:class:`ResilienceGuard` is the guard of the HPF solvers, which execute
globally and have no rank program to yield from; the SPMD rank programs
carry their own, :class:`repro.backend.kernel.Guard` (checkpoints, audits,
rollbacks -- no stagnation refresh).

Everything here has a simulated price: checkpoint saves and restores are
charged as local memory traffic, the audit's mat-vec and reductions go
through the normal charged operations, and each recovery adds
``restart_time`` of downtime -- benchmark E19 reads the totals back out of
the result extras.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..hpf.array import DistributedArray
from ..machine.faults import FaultPlan
from ..machine.reliable import ReliableConfig

__all__ = [
    "RecoveryExhaustedError",
    "ResilienceConfig",
    "ResilienceGuard",
    "latest_complete_checkpoint",
]

_TINY = 1.0e-300


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
    (default: ``ReliableConfig()``).

    Two knobs apply to the HPF guard (:class:`ResilienceGuard`) only:
    ``restart_time`` is the simulated downtime charged per rollback, and
    ``stagnation_factor``/``stagnation_patience`` trigger a direction
    refresh after that many *consecutive* audits in which the true residual
    shrank by less than the factor (catching otherwise-invisible
    search-direction corruption; healthy CG plateaus are non-monotone and
    short, a poisoned direction stalls indefinitely).  The rank programs
    (``spmd_cg``, ``backend_solve``, ``hpcg_solve``) have neither: their
    crash restarts are timed by the substrate, and they refresh no
    direction.
    """

    checkpoint_interval: int = 10
    sanity_interval: int = 5
    sanity_rtol: float = 1.0e-6
    max_restarts: int = 4
    restart_time: float = 1.0e-3
    stagnation_factor: float = 0.999
    stagnation_patience: int = 3
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
        if self.restart_time < 0:
            raise ValueError("restart_time must be non-negative")
        if not 0.0 < self.stagnation_factor <= 1.0:
            raise ValueError("stagnation_factor must lie in (0, 1]")
        if self.stagnation_patience < 1:
            raise ValueError("stagnation_patience must be >= 1")


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


class ResilienceGuard:
    """Checkpoint, audit and rollback machinery for the HPF solvers.

    The HPF runtime executes array operations globally (no scheduler, no
    messages), so the only injectable faults are the plan's
    :class:`~repro.machine.faults.StateCorruption` entries -- which is
    exactly what the sanity audit exists to catch.  The solver calls
    :meth:`inject` once per iteration (applying any scheduled corruption)
    and :meth:`after_iteration` at the end of the body; the guard decides
    when to audit, when to checkpoint, and when to roll the iteration
    counter and the tracked vectors back.
    """

    def __init__(
        self,
        ctx,
        config: Optional[ResilienceConfig] = None,
        faults: Optional[FaultPlan] = None,
        tracked: Optional[Dict[str, DistributedArray]] = None,
    ):
        self.ctx = ctx
        self.config = config or ResilienceConfig()
        self.faults = faults if (faults is not None and faults.enabled) else None
        self.vectors: Dict[str, DistributedArray] = {"x": ctx.x, "r": ctx.r}
        if tracked:
            self.vectors.update(tracked)
        self._counts = ctx.b.distribution.counts().astype(float)
        self._scratch: Optional[DistributedArray] = None
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._last_true: Optional[float] = None
        self._stagnant_audits = 0
        self.restarts = 0
        self.audits = 0
        self.checkpoints = 0
        self.corruptions_detected = 0
        self.refreshes = 0

    # ------------------------------------------------------------------ #
    def save_initial(self, scalars: Dict[str, float]) -> None:
        """Checkpoint the pre-loop state so a rollback can always land."""
        self._save(0, scalars)

    def inject(self, k: int) -> None:
        """Apply any silent corruption the fault plan schedules for ``k``."""
        if self.faults is None:
            return
        corr = self.faults.take_state_corruption(k)
        if corr is None:
            return
        v = self.vectors.get(corr.target)
        if v is None:
            return
        machine = self.ctx.machine
        for rank in range(machine.nprocs):
            block = v.local((corr.rank + rank) % machine.nprocs)
            if block.size:
                i = self.faults.draw_index(block.size)
                block[i] += (1.0 + abs(block[i])) * corr.scale
                return

    def after_iteration(
        self, k: int, rnorm: float, stopping: bool, scalars: Dict[str, float]
    ) -> Tuple[int, Dict[str, float], str]:
        """Audit/checkpoint hook at the end of iteration ``k``.

        Returns ``(k, scalars, action)`` where ``action`` is ``"ok"`` (no
        audit due, or it passed), ``"rollback"`` (corruption detected;
        ``k``/``scalars`` are the restored checkpoint's), or ``"refresh"``
        (the true residual stagnated across audits -- the solver should
        rebuild its search direction from the residual).
        """
        cfg = self.config
        need_ckpt = k % cfg.checkpoint_interval == 0
        if not (stopping or need_ckpt or k % cfg.sanity_interval == 0):
            return k, scalars, "ok"
        self.audits += 1
        true_norm = self._true_residual_norm()
        if abs(true_norm - rnorm) > cfg.sanity_rtol * max(self.ctx.bnorm, _TINY):
            self.corruptions_detected += 1
            if self.restarts >= cfg.max_restarts:
                raise RecoveryExhaustedError(
                    f"sanity audit failed at iteration {k} "
                    f"(recurrence {rnorm:.3e} vs true {true_norm:.3e}) "
                    f"after {self.restarts} rollbacks"
                )
            self.restarts += 1
            self._last_true = None
            self._stagnant_audits = 0
            kc, restored = self._restore()
            return kc, restored, "rollback"
        if (
            not stopping
            and self._last_true is not None
            and true_norm > cfg.stagnation_factor * self._last_true
        ):
            self._stagnant_audits += 1
        else:
            self._stagnant_audits = 0
        self._last_true = true_norm
        if need_ckpt:
            self._save(k, scalars)
        if self._stagnant_audits >= cfg.stagnation_patience:
            self._stagnant_audits = 0
            self.refreshes += 1
            return k, scalars, "refresh"
        return k, scalars, "ok"

    def overhead(self) -> Dict[str, float]:
        """Recovery accounting for the result extras."""
        return {
            "restarts": self.restarts,
            "audits": self.audits,
            "checkpoints": self.checkpoints,
            "corruptions_detected": self.corruptions_detected,
            "refreshes": self.refreshes,
        }

    # ------------------------------------------------------------------ #
    def _true_residual_norm(self) -> float:
        """``||b - A x||`` recomputed from scratch, fully charged."""
        ctx = self.ctx
        if self._scratch is None:
            self._scratch = ctx.new_vector("sanity")
        s = self._scratch
        ctx.strategy.apply(ctx.x, s, tag="sanity")
        s.scale(-1.0)
        s.iadd(ctx.b)
        return s.norm2(tag="sanity")

    def _save(self, k: int, scalars: Dict[str, float]) -> None:
        first = self._checkpoint is None
        self._checkpoint = {
            "k": k,
            "scalars": dict(scalars),
            "vectors": {name: v.to_global() for name, v in self.vectors.items()},
        }
        self.checkpoints += 1
        self._charge_copy()
        if first:
            machine = self.ctx.machine
            for rank in range(machine.nprocs):
                machine.charge_storage(
                    rank, float(self._counts[rank]) * len(self.vectors)
                )

    def _restore(self) -> Tuple[int, Dict[str, float]]:
        assert self._checkpoint is not None  # save_initial guarantees one
        machine = self.ctx.machine
        for name, saved in self._checkpoint["vectors"].items():
            v = self.vectors[name]
            for rank in range(machine.nprocs):
                v.local(rank)[:] = saved[v.distribution.local_indices(rank)]
        self._charge_copy()
        machine.charge_comm_interval(
            "restart", 0, 0.0, self.config.restart_time, tag="resilience"
        )
        return self._checkpoint["k"], dict(self._checkpoint["scalars"])

    def _charge_copy(self) -> None:
        # checkpoint traffic: one word moved per tracked-vector element
        self.ctx.machine.charge_compute_all(self._counts * len(self.vectors))
