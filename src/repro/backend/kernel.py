"""The CG kernel: two recurrences, written once, behind four seams.

The paper's argument is that one CG text should serve every storage
scheme and distribution, with only the mat-vec and the reduction changing
underneath.  :func:`classic_cg` and :func:`chronopoulos_gear_cg` are that
text for every SPMD rank program (two functions, because the two are
different floating-point orders); a program class only configures the
rank-local seams they drive (DESIGN.md, "Rank programs"):

* **operator** -- ``op.apply(v)`` is ``A v`` on this rank's rows and
  ``op.apply_gathered(v, tag)`` the same product from scratch through a
  full allgather (initial residual, audits); under ABFT
  ``checksum_terms`` / ``verify_checksum`` name what rides with the dots;
* **preconditioner** -- ``u = yield from precond(r)``, or ``None``;
* **reducer** -- :class:`Reducer`: ``(a, b, label)`` terms in, floats out;
* **guard** -- :class:`Guard`, or ``None`` for the fault-free programs.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.resilience import RecoveryExhaustedError
from ..core.stopping import StoppingCriterion
from ..machine import reliable as rel
from ..machine import spmd
from ..machine.events import Checkpoint, Compute
from ..machine.reliable import ReliableEndpoint
from ..sparse.convert import as_matrix
from .abft import column_checksums, decode_dot
from .reproducible import (
    dot_slots,
    pack_slots,
    render_slots,
    sum_slots,
    unpack_slots,
)

__all__ = [
    "csr_arrays",
    "RankProgramBase",
    "Collectives",
    "Reducer",
    "jacobi",
    "Guard",
    "classic_cg",
    "chronopoulos_gear_cg",
]


def csr_arrays(matrix):
    """Normalise any accepted matrix into CSR ``(n, indptr, indices, data)``."""
    A = as_matrix(matrix).to_csr()
    return A.nrows, A.indptr, A.indices, A.data


class RankProgramBase:
    """What every CG rank program pickles: the system and the stopping rule.

    The class attributes are the fault-free seam defaults.  Everything
    derived per rank is built inside the rank, never here, so a pickled
    program stays the matrix plus a few scalars.
    """

    fused = False
    guarded = False
    reliable = False
    reliable_config = None
    abft = False

    def __init__(self, matrix, b, x0, criterion, maxiter, reproducible):
        self.n, self.indptr, self.indices, self.data = csr_arrays(matrix)
        n = self.n
        self.b = np.asarray(b, dtype=np.float64)
        if self.b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {self.b.shape}")
        self.x_start = (
            np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64)
        )
        self.crit = criterion or StoppingCriterion()
        self.maxiter = maxiter if maxiter is not None else self.crit.cap(n)
        self.reproducible = bool(reproducible)

    def _init_guard(self, checkpoint_interval, sanity_interval, sanity_rtol,
                    max_restarts, faults, reliable, reliable_config, abft,
                    abft_rtol) -> None:
        """Make the program fault-tolerant: it runs under a :class:`Guard`.

        ``reliable`` runs every collective over the ARQ of
        :mod:`repro.machine.reliable`; ``abft`` duplicates every reduced
        slot and checksums the mat-vec (:mod:`repro.backend.abft`);
        ``faults`` schedules the state corruptions the audits catch.
        """
        self.guarded = True
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if sanity_interval < 1:
            raise ValueError("sanity_interval must be >= 1")
        self.checkpoint_interval = int(checkpoint_interval)
        self.sanity_interval = int(sanity_interval)
        self.sanity_rtol = float(sanity_rtol)
        self.max_restarts = int(max_restarts)
        self.faults = faults
        self.reliable = bool(reliable)
        self.reliable_config = reliable_config
        self.abft = bool(abft)
        self.abft_rtol = float(abft_rtol)
        self.colsum = self.abs_colsum = None
        if self.abft:
            self.colsum, self.abs_colsum = column_checksums(
                self.n, self.indices, self.data)
        #: set by the recovery driver: (iteration, {rank: snapshot})
        self.restart: Optional[Tuple[int, Dict[int, Dict[str, Any]]]] = None


class Collectives:
    """One rank's collectives: the binomial trees of :mod:`repro.machine.spmd`
    or, with ``reliable``, the ARQ of :mod:`repro.machine.reliable` bound to
    this rank's endpoint ``ep``.  Call them as ``comm.allgather(v, tag=t)``."""

    def __init__(self, rank: int, size: int, reliable: bool = False,
                 config=None):
        self.rank = rank
        self.size = size
        self.ep = ReliableEndpoint(rank, config) if reliable else None
        lib, who = (rel, (self.ep, rank, size)) if reliable \
            else (spmd, (rank, size))
        self.allgather = partial(lib.allgather, *who)
        self.allreduce_sum = partial(lib.allreduce_sum, *who)
        self.allreduce_vec = partial(lib.allreduce_vec, *who)


class Reducer:
    """Globally reduce ``(a, b, label)`` inner-product terms to floats.

    A term with ``b is None`` is the plain sum of ``a``.  Hidden here:
    ``reproducible`` terms travel as exact superaccumulator limb slots
    (:mod:`repro.backend.reproducible`); under ``abft_op`` every slot
    travels duplicated -- both copies see the same additions, so exact
    equality is the corruption detector -- and ``check=(w, v)`` adds the
    operator's mat-vec checksum terms to the same reduction; ``comm`` picks
    plain or reliable collectives.  A call's slots share one tree on
    ``tag``, except under ``split`` and not ``fused`` (HPCG's classic
    schedule), where dot *i* and the checksum group ride their own trees
    on ``tag + 2 i``; slot-wise the add order is the same either way.

    ``repro_flops`` is the modelled per-element splat + render surcharge
    of a reproducible dot.  Only HPCG passes it: row-block programs have
    always charged ``2 n`` per dot, reproducible or not (pinned by
    ``backend.flops`` and E23).
    """

    def __init__(self, comm: Collectives, reproducible: bool, fused: bool,
                 split: bool = False, repro_flops: float = 0.0,
                 abft_op=None):
        self.comm = comm
        self.reproducible = reproducible
        self.fused = fused
        self.packed = fused or not split
        self.abft_op = abft_op
        self.flops_per_element = 2.0 + (repro_flops if reproducible else 0.0)
        #: host seconds forming local contributions (HPCG's phase_dot)
        self.seconds = 0.0

    def reduce(self, pairs, tag: int = 3, check=None):
        t0 = time.perf_counter()
        terms = pairs
        if self.abft_op is not None and check is not None:
            terms = pairs + self.abft_op.checksum_terms(*check)
        if self.reproducible:
            slots = [sum_slots(a) if b is None else dot_slots(a, b)
                     for a, b, _ in terms]
        else:
            slots = [float(a.sum()) if b is None else float(a @ b)
                     for a, b, _ in terms]
        nel = 0
        for term in pairs:
            nel += term[0].size
        copies = 1
        if self.abft_op is not None:
            copies = 2
            slots = [v for v in slots for _ in (0, 1)]
        self.seconds += time.perf_counter() - t0
        if self.packed:
            groups = (slots,)
        else:
            cut = len(pairs) * copies
            groups = [slots[i:i + copies] for i in range(0, cut, copies)]
            if len(slots) > cut:
                groups.append(slots[cut:])
        out: List[float] = []
        for grp in groups:
            if self.reproducible:
                red = yield from self.comm.allreduce_vec(pack_slots(grp),
                                                         tag=tag)
                out += [render_slots(s) for s in unpack_slots(red, len(grp))]
            elif len(grp) == 1 and not self.fused:
                # unfused schedules reduce a lone slot as a scalar; fused
                # ones only ever issue allreduce_vec, so there even a lone
                # audit dot travels as a 1-element vector
                red = yield from self.comm.allreduce_sum(grp[0], tag=tag)
                out.append(float(red))
            else:
                red = yield from self.comm.allreduce_vec(np.array(grp),
                                                         tag=tag)
                out += [float(v) for v in red]
            tag += 2
        yield Compute(self.flops_per_element * nel)
        if copies == 2:
            out = [decode_dot(np.array(out[2 * j:2 * j + 2]), terms[j][2])
                   for j in range(len(terms))]
        if len(terms) > len(pairs):
            self.abft_op.verify_checksum(*out[len(pairs):])
            del out[len(pairs):]
        return out


def jacobi(inv_diag_local: np.ndarray, r):
    """``u = D^-1 r`` on the local block: no communication, one divide each."""
    u = inv_diag_local * r
    yield Compute(float(r.size))
    return u


#: a passing audit whose true residual is above this fraction of the
#: previous one's counts as stagnant ...
STAGNATION_FACTOR = 0.999
#: ... and this many stagnant audits in a row ask for a direction refresh
STAGNATION_PATIENCE = 3


class Guard:
    """Resilience around a recurrence, written once for both of them.

    * **state corruption**: the fault plan's scheduled
      :class:`~repro.machine.faults.StateCorruption` entries hit this
      rank's block at the top of iteration ``k``, before any update
      (consumed-once, so a rollback's replay is clean);
    * **coordinated checkpoints** every ``checkpoint_interval`` iterations
      (plus iteration 0): :meth:`publish` keeps the snapshot for rollback
      *and* yields a :class:`~repro.machine.events.Checkpoint`, so the
      substrate's store always holds a restart point for
      :func:`repro.backend.solve.run_with_recovery`;
    * **sanity audits** every ``sanity_interval`` iterations, before every
      checkpoint and before declaring convergence: :meth:`audit`
      recomputes ``||b - A x||`` (one allgather + mat-vec + allreduce)
      and compares it with the recurrence residual.  All ranks see the
      same reduced values, so they roll back together or not at all; more
      than ``max_restarts`` rollbacks raise
      :class:`~repro.core.resilience.RecoveryExhaustedError`;
    * **direction refresh**: a corrupted ``p`` keeps ``r = b - A x``
      (``x += alpha p`` and ``r -= alpha A p`` stay consistent), so no
      audit flags it; it shows as stagnation instead.  After
      :data:`STAGNATION_PATIENCE` consecutive passing audits whose true
      residual shrank by less than :data:`STAGNATION_FACTOR`,
      :meth:`stalled` asks the classic recurrence to restart its direction
      from the (preconditioned) residual.  A rollback resets the count.
      The fused recurrence never needs it: it carries ``s = A p``, so there
      a corrupted ``p`` breaks the invariant and the audit rolls back;
    * **restart**: :meth:`resume` hands over the driver's checkpoint once
      it has checked that this recurrence can read it: the snapshot's key
      set belongs to the recurrence (``rho, rho0`` classic; ``s, gamma,
      alpha`` Chronopoulos--Gear, plus the scalar trajectory under
      ``trajectory``), the guard only stores it.
    """

    def __init__(self, program, rank: int, op, reducer: Reducer,
                 b_local: np.ndarray, trajectory: bool = False,
                 recharge_audit: bool = False):
        self.rank = rank
        self.op = op
        self.reducer = reducer
        self.b = b_local
        self.trajectory = trajectory
        self.recharge_audit = recharge_audit
        self.opts = program
        self.plan = (
            program.faults.for_rank(rank)
            if program.faults is not None else None
        )
        self.last: Optional[Dict[str, Any]] = None
        self.last_true: Optional[float] = None
        self.stagnant = 0
        #: recovery telemetry, returned in the rank's result tuple
        self.counters: Dict[str, Any] = {
            "rollbacks": 0, "audits": 0, "checkpoints_published": 0,
            "refreshes": 0, "restarted_from": None}

    def resume(self, recurrence: str, keys: Tuple[str, ...]):
        """The snapshot to restart from, or ``None`` for a fresh start."""
        if self.opts.restart is None:
            return None
        k0, snaps = self.opts.restart
        snap = snaps[self.rank]
        if snap["k"] != k0:  # pragma: no cover - driver invariant
            raise ValueError("restart snapshot iteration mismatch")
        missing = [key for key in keys if key not in snap]
        if missing:
            # a checkpoint store is outside input: a durable directory
            # outlives the run, and the flags, that wrote it
            wrote = ("classic" if "rho" in snap else
                     "fused Chronopoulos-Gear" if "gamma" in snap else
                     "unknown")
            raise ValueError(
                f"cannot resume the {recurrence} recurrence from the "
                f"checkpoint at iteration {k0}: it was written by the "
                f"{wrote} recurrence and lacks {missing}; rerun with the "
                "matching `fused` setting or an empty checkpoint store"
            )
        self.last = snap
        self.counters["restarted_from"] = k0
        return snap

    def corrupt(self, k: int, x, r, p) -> None:
        if self.plan is None:
            return
        corr = self.plan.take_state_corruption(k, self.rank)
        if corr is not None:
            target = {"x": x, "r": r, "p": p}[corr.target]
            if target.size:
                i = self.plan.draw_index(target.size)
                target[i] += (1.0 + abs(target[i])) * corr.scale

    def due(self, k: int, stopping: bool) -> bool:
        return (stopping or k % self.opts.checkpoint_interval == 0
                or k % self.opts.sanity_interval == 0)

    def publish(self, k: int, snap: Dict[str, Any], nvec: float):
        self.last = snap
        yield Compute(nvec * snap["x"].size)  # checkpoint copy cost
        yield Checkpoint(iteration=k, payload=snap)
        self.counters["checkpoints_published"] += 1

    def audit(self, k: int, x, recurrence_norm: float, bnorm: float):
        """``False`` means roll back to ``self.last`` (the caller restores)."""
        self.counters["audits"] += 1
        ax = yield from self.op.apply_gathered(x, tag=21)
        d = self.b - ax
        (true2,) = yield from self.reducer.reduce([(d, d, "audit")], tag=23)
        if self.recharge_audit:
            # HPCG has always charged the audit dot twice (in its reducer
            # and again after it); E26's modelled overheads pin that
            yield Compute(2.0 * d.size)
        true_norm = float(np.sqrt(max(0.0, true2)))
        if abs(true_norm - recurrence_norm) > self.opts.sanity_rtol * max(
            bnorm, 1.0e-300
        ):
            self.last_true, self.stagnant = None, 0
            self.counters["rollbacks"] += 1
            rollbacks = self.counters["rollbacks"]
            if rollbacks > self.opts.max_restarts:
                raise RecoveryExhaustedError(
                    f"rank {self.rank}: sanity audit failed at iteration "
                    f"{k} (recurrence {recurrence_norm:.3e} vs true "
                    f"{true_norm:.3e}) after "
                    f"{rollbacks - 1} rollbacks",
                    attempts=[{
                        "outcome": "audit_rollback_exhausted",
                        "rank": self.rank,
                        "iteration": k,
                        "rollbacks": rollbacks - 1,
                    }],
                )
            return False
        if self.last_true is not None \
                and true_norm > STAGNATION_FACTOR * self.last_true:
            self.stagnant += 1
        else:
            self.stagnant = 0
        self.last_true = true_norm
        return True

    def stalled(self) -> bool:
        """``True`` (once) when the audits say the direction must restart."""
        if self.stagnant < STAGNATION_PATIENCE:
            return False
        self.stagnant = 0
        self.counters["refreshes"] += 1
        return True

    def extras(self) -> Dict[str, Any]:
        ep = self.reducer.comm.ep
        return {
            **self.counters,
            "telemetry": dict(ep.telemetry) if ep is not None else {},
            "fault_stats": (
                self.plan.stats.as_dict() if self.plan is not None else {}
            ),
        }


def _initial_residual(op, b, x, x_nonzero: bool):
    """``r = b - A x0`` (one mat-vec only if ``x0 != 0``)."""
    if x_nonzero:
        ax = yield from op.apply_gathered(x, tag=7)
        return b - ax
    return b.copy()


def _norm(rnorm2: float) -> float:
    return float(np.sqrt(max(0.0, rnorm2)))


def _copy(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    return list(value) if isinstance(value, list) else value


def _pack(keys, values) -> Dict[str, Any]:
    """Snapshot ``values`` under ``keys`` (extra trailing values dropped)."""
    return {key: _copy(value) for key, value in zip(keys, values)}


def _unpack(keys, snap):
    """The state a snapshot holds, copied, in ``keys`` order; the optional
    trajectory lists come back empty when the snapshot has none."""
    return [_copy(snap.get(key, [])) for key in keys]


#: recurrence state in snapshot order; the keys beyond the shared
#: k/x/r/p/residuals/iterations/bnorm are what a resume must find
_CLASSIC = ("k", "x", "r", "p", "rho", "rho0", "residuals", "iterations",
            "bnorm")
_GEAR = ("k", "x", "r", "p", "s", "gamma", "alpha", "residuals", "iterations",
         "bnorm")
_TRAJECTORY = ("alphas", "betas", "gammas")


def classic_cg(op, precond, reducer, guard, b, x, x_nonzero, crit, maxiter):
    """Classic CG: per iteration one mat-vec on ``p``, ``p.q``, three local
    SAXPY-type updates and ``r.r`` -- two latency trees; a preconditioner
    adds ``rho = r.z`` as a third, in :func:`repro.core.pcg.hpf_pcg`'s
    update order.  Returns ``(x, residuals, converged, iterations)``.
    """
    snap = guard.resume("classic", _CLASSIC) if guard is not None else None
    if snap is not None:
        k, x, r, p, rho, rho0, residuals, iterations, bnorm = \
            _unpack(_CLASSIC, snap)
    else:
        r = yield from _initial_residual(op, b, x, x_nonzero)
        (bnorm2,) = yield from reducer.reduce([(b, b, "b·b")])
        bnorm = float(np.sqrt(bnorm2))
        (rho,) = yield from reducer.reduce([(r, r, "r·r")])
        rho0 = rho
        residuals = [_norm(rho)]
        p = r.copy()
        k = iterations = 0
        solved = crit.satisfied(residuals[-1], bnorm)
        if precond is not None and not solved:
            p = yield from precond(r)
            (rho,) = yield from reducer.reduce([(r, p, "r·z")])
        if guard is not None:
            # checkpoint 0 goes out *before* the converged-at-0 return (the
            # fused programs return first): the goldens count it
            yield from guard.publish(0, _pack(_CLASSIC, (
                0, x, r, p, rho, rho0, residuals, 0, bnorm)), 3.0)
        if solved:
            return x, residuals, True, 0

    converged = False
    while k < maxiter:
        k += 1
        if guard is not None:
            guard.corrupt(k, x, r, p)
        if precond is None and k > 1:
            # unpreconditioned, the direction update opens the iteration
            # (checkpoints hold the pre-update p; a maxiter-stopped run
            # never pays for it); hpf_pcg's ordering closes the iteration
            # with it.  backend.flops pins both.
            p = (rho / rho0) * p + r  # saypx
            yield Compute(2.0 * p.size)
        q = yield from op.apply(p)
        (pq,) = yield from reducer.reduce([(p, q, "p·q")], check=(q, p))
        if pq == 0.0:
            break
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        yield Compute(4.0 * p.size)
        (rnorm2,) = yield from reducer.reduce([(r, r, "r·r")])
        if precond is None:
            rho0, rho = rho, rnorm2
        residuals.append(_norm(rnorm2))
        iterations = k
        stopping = crit.satisfied(residuals[-1], bnorm)
        if guard is not None and guard.due(k, stopping):
            ok = yield from guard.audit(k, x, residuals[-1], bnorm)
            if not ok:
                k, x, r, p, rho, rho0, residuals, iterations, bnorm = \
                    _unpack(_CLASSIC, guard.last)
                yield Compute(3.0 * x.size)  # restore copy cost
                continue
            if guard.stalled():
                # plain CG restart: the next direction update, beta * 0 + r
                # (or z), makes p the (preconditioned) residual
                p = np.zeros_like(p)
        if precond is not None and not stopping:
            z = yield from precond(r)
            rho0 = rho
            (rho,) = yield from reducer.reduce([(r, z, "r·z")])
            p = (rho / rho0) * p + z  # saypx
            yield Compute(2.0 * p.size)
        # a checkpoint holds the state the next iteration opens with
        if guard is not None and k % guard.opts.checkpoint_interval == 0:
            yield from guard.publish(k, _pack(_CLASSIC, (
                k, x, r, p, rho, rho0, residuals, iterations, bnorm)), 3.0)
        if stopping:
            converged = True
            break
    return x, residuals, converged, iterations


def _gear_step(op, precond, reducer, r, b=None):
    """``u = M^-1 r``, ``w = A u`` and the step's one batch of dots: returns
    ``(u, w, gamma, delta, rnorm2)`` plus, on the first trip, ``b.b`` (it
    rides along so even setup needs no second tree)."""
    if precond is None:
        # unpreconditioned row-block CG reduces 2 dots (gamma is r.r);
        # every preconditioned program -- HPCG's precond="none" included,
        # whose u is a *copy* of r -- reduces 3, r.u and r.r travelling
        # separately.  Pinned by backend.words and the E23/E25 tables.
        u = r
        w = yield from op.apply(r)
        pairs = [(r, r, "r·r"), (w, r, "w·r")]
    else:
        u = yield from precond(r)
        w = yield from op.apply(u)
        pairs = [(r, u, "r·u"), (w, u, "w·u"), (r, r, "r·r")]
    if b is not None:
        pairs.append((b, b, "b·b"))
    vals = yield from reducer.reduce(pairs, check=(w, u))
    if precond is None:
        vals.insert(2, vals[0])
    return (u, w, *vals)


def chronopoulos_gear_cg(op, precond, reducer, guard, b, x, x_nonzero, crit,
                         maxiter):
    """Preconditioned single-reduction (Chronopoulos--Gear) CG.

    The mat-vec rides on ``u = M^-1 r`` instead of ``p``, so ``gamma =
    r.u``, ``delta = (A u).u`` and the stopping norm ``r.r`` are available
    together after it and travel in one batch; ``alpha = gamma / (delta -
    beta * gamma / alpha_prev)`` recovers the classic step length (same
    trajectory up to floating-point reassociation).  Returns ``(x,
    residuals, converged, iterations, (alphas, betas, gammas))``.
    """
    snap = None
    if guard is not None:
        snap = guard.resume("fused Chronopoulos-Gear", _GEAR)
        keys = _GEAR + _TRAJECTORY if guard.trajectory else _GEAR
    if snap is not None:
        (k, x, r, p, s, gamma, alpha, residuals, iterations, bnorm,
         alphas, betas, gammas) = _unpack(_GEAR + _TRAJECTORY, snap)
    else:
        r = yield from _initial_residual(op, b, x, x_nonzero)
        u, w, gamma, delta, rnorm2, bnorm2 = yield from _gear_step(
            op, precond, reducer, r, b)
        bnorm = float(np.sqrt(bnorm2))
        residuals = [_norm(rnorm2)]
        alphas: List[float] = []
        betas: List[float] = []
        gammas = [gamma]
        k = iterations = 0
        solved = crit.satisfied(residuals[-1], bnorm)
        if solved or delta == 0.0:
            return x, residuals, solved, 0, (alphas, betas, gammas)
        alpha = gamma / delta
        alphas.append(alpha)
        p = u.copy()
        s = w.copy()
        if guard is not None:
            yield from guard.publish(0, _pack(keys, (
                0, x, r, p, s, gamma, alpha, residuals, 0, bnorm,
                alphas, betas, gammas)), 4.0)

    converged = False
    while k < maxiter:
        k += 1
        if guard is not None:
            guard.corrupt(k, x, r, p)
        x += alpha * p
        r -= alpha * s
        yield Compute(4.0 * r.size)
        u, w, gamma_new, delta, rnorm2 = yield from _gear_step(
            op, precond, reducer, r)
        residuals.append(_norm(rnorm2))
        gammas.append(gamma_new)
        iterations = k
        stopping = crit.satisfied(residuals[-1], bnorm)
        if guard is not None and guard.due(k, stopping):
            ok = yield from guard.audit(k, x, residuals[-1], bnorm)
            if not ok:
                (k, x, r, p, s, gamma, alpha, residuals, iterations, bnorm,
                 alphas, betas, gammas) = _unpack(_GEAR + _TRAJECTORY,
                                                  guard.last)
                yield Compute(4.0 * x.size)  # restore copy cost
                continue
        if stopping:
            converged = True
            break
        beta = gamma_new / gamma
        denom = delta - beta * gamma_new / alpha
        if denom == 0.0:
            break
        alpha = gamma_new / denom
        gamma = gamma_new
        betas.append(beta)
        alphas.append(alpha)
        p = u + beta * p
        s = w + beta * s
        yield Compute(4.0 * r.size)
        if guard is not None and k % guard.opts.checkpoint_interval == 0:
            yield from guard.publish(k, _pack(keys, (
                k, x, r, p, s, gamma, alpha, residuals, iterations, bnorm,
                alphas, betas, gammas)), 4.0)
    return x, residuals, converged, iterations, (alphas, betas, gammas)
