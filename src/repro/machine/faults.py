"""Deterministic fault injection for the simulated multicomputer.

The paper's evaluation assumes a perfectly reliable 1995-era machine; at
production scale message loss, stragglers and rank failures are the norm.
A :class:`FaultPlan` describes, ahead of a run, every fault the simulated
network and processors will exhibit:

* **message faults** -- drop, duplicate, corrupt or delay individual
  point-to-point messages, either with a probability per message or with
  targeted :class:`FaultRule` entries matching ``(src, dst, tag, nth)``;
* **fail-stop crashes** -- :class:`RankCrash` kills a rank at a scheduled
  virtual time (the rank's generator is closed, in-flight messages to it
  are lost);
* **silent state corruption** -- :class:`StateCorruption` perturbs solver
  state (``x``, ``r``, ``p`` or a scalar) at a chosen iteration, modelling
  an undetected memory error; solvers detect it with a periodic sanity
  residual recomputation (see :mod:`repro.core.resilience`).

Every random decision is drawn from a seeded NumPy generator -- message
faults from each sending rank's own derivation (:meth:`FaultPlan.for_rank`),
consulted in that rank's program order at the Comm boundary
(:mod:`repro.backend.faulty`) -- so a run with a fresh
``FaultPlan(seed=s)`` is bit-identical across repeats.  ``FaultPlan.none()``
(the default everywhere) injects nothing and consumes no random numbers, so
fault-free runs are unchanged down to the last clock tick.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "CORRUPT",
    "DELAY",
    "FaultRule",
    "RankCrash",
    "RankSlowdown",
    "StateCorruption",
    "FaultStats",
    "FaultPlan",
    "RankFailedError",
    "RecvTimeoutError",
    "StragglerDetectedError",
]

# message-fault actions (plain strings keep FaultRule literals readable)
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
DELAY = "delay"

_ACTIONS = (DROP, DUPLICATE, CORRUPT, DELAY)


class RankFailedError(RuntimeError):
    """A rank suffered a fail-stop crash (or a peer gave up waiting on it).

    ``rank`` identifies the failed rank when the raiser knows it (the
    recovery driver reports it in ``crashes_recovered``); ``None`` when
    the failure could not be pinned on a single rank.
    """

    def __init__(self, message: str = "", rank: "int | None" = None):
        super().__init__(message)
        self.rank = rank


class RecvTimeoutError(TimeoutError):
    """A ``Recv(timeout=...)`` expired before a matching send arrived.

    Raised *inside* the blocked rank's generator so the program can catch
    it and retry -- the mechanism the reliable-messaging layer
    (:mod:`repro.machine.reliable`) builds its retransmissions on.

    Both execution substrates raise it with the same diagnostics: ``rank``
    (the blocked receiver), ``peer`` (the awaited source; ``None`` for
    ANY_SOURCE), ``tag`` and ``elapsed`` (how long the receive waited, in
    that substrate's time base).  When constructed with only those fields
    the message is composed uniformly, so log lines read the same whether
    the timeout happened in virtual or wall-clock time.
    """

    def __init__(
        self,
        message: str = "",
        *,
        rank: "int | None" = None,
        peer: "int | None" = None,
        tag: "int | None" = None,
        elapsed: "float | None" = None,
    ):
        if not message:
            src = "ANY_SOURCE" if peer is None else peer
            message = (
                f"rank {rank}: receive (source={src}, tag={tag}) "
                f"timed out after {elapsed:g}s"
                if elapsed is not None
                else f"rank {rank}: receive (source={src}, tag={tag}) timed out"
            )
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.elapsed = elapsed


class StragglerDetectedError(RuntimeError):
    """A live rank fell behind its peers past the straggler deadline.

    Distinct from a fail-stop: the rank is still making progress, just too
    slowly.  ``rank`` is the detected straggler, ``lag`` how far behind the
    fastest live peer it was when flagged (virtual seconds on the simulated
    backend, wall-clock heartbeat age on the process backend), ``factor``
    the injected slowdown factor when known (``None`` for organic lag).
    The recovery driver decides whether to respawn, shrink the rank set,
    or rebalance work away from the slow rank.
    """

    def __init__(
        self,
        message: str = "",
        rank: "int | None" = None,
        lag: "float | None" = None,
        factor: "float | None" = None,
    ):
        if not message:
            message = f"rank {rank} declared a straggler"
            if lag is not None:
                message += f" ({lag:g}s behind the fastest live peer)"
        super().__init__(message)
        self.rank = rank
        self.lag = lag
        self.factor = factor


@dataclass(frozen=True)
class FaultRule:
    """Targeted message fault: apply ``kind`` to messages matching the key.

    ``None`` fields are wildcards.  ``nth`` (1-based) restricts the rule to
    the nth message matching the ``(src, dst, tag)`` pattern; ``None``
    applies it to every match.
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    nth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _ACTIONS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_ACTIONS}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")

    def matches(self, src: int, dst: int, tag: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.tag is None or self.tag == tag)
        )


@dataclass(frozen=True)
class RankCrash:
    """Fail-stop crash of ``rank`` at simulated time ``at_time``.

    The crash takes effect at the first operation boundary at or after
    ``at_time`` on that rank's clock (or when the scheduler stalls, for a
    rank that is blocked).
    """

    rank: int
    at_time: float

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class RankSlowdown:
    """A rank turns into a straggler from ``at_time`` onward.

    Models a slow-but-alive processor (thermal throttling, a noisy
    neighbour, a failing disk) rather than a fail-stop.  The two execution
    substrates consume different fields:

    * the simulated scheduler multiplies the rank's per-op compute cost by
      ``factor`` (time dilation in virtual time);
    * the process backend sleeps ``op_delay`` wall-clock seconds before
      each Compute op (real dilation a heartbeat monitor can observe).

    At most one slowdown per rank; consumed-once on recovery like crashes.
    """

    rank: int
    at_time: float = 0.0
    factor: float = 1.0
    op_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.at_time < 0:
            raise ValueError("slowdown start time must be non-negative")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1 (1 = no slowdown)")
        if self.op_delay < 0:
            raise ValueError("op_delay must be non-negative")


@dataclass(frozen=True)
class StateCorruption:
    """Silent corruption of solver state at iteration ``iteration``.

    ``target`` is one of ``"x"``, ``"r"``, ``"p"``; ``rank`` selects which
    rank's local block is hit in SPMD solvers (ignored by the HPF solvers,
    which hold logically-global state).  ``scale`` sets the magnitude of the
    injected error relative to the perturbed entry.
    """

    iteration: int
    target: str = "x"
    rank: int = 0
    scale: float = 1.0e3

    def __post_init__(self) -> None:
        if self.target not in ("x", "r", "p"):
            raise ValueError("corruption target must be 'x', 'r' or 'p'")
        if self.iteration < 1:
            raise ValueError("iteration is 1-based and must be >= 1")


@dataclass
class FaultStats:
    """Counters of faults actually injected during a run."""

    messages_seen: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    delayed: int = 0
    lost_to_dead_rank: int = 0
    crashed_ranks: List[int] = field(default_factory=list)
    state_corruptions: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "messages_seen": self.messages_seen,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "delayed": self.delayed,
            "lost_to_dead_rank": self.lost_to_dead_rank,
            "crashed_ranks": list(self.crashed_ranks),
            "state_corruptions": self.state_corruptions,
        }


class FaultPlan:
    """Seeded, deterministic description of every fault in a run.

    Parameters
    ----------
    seed:
        Seed of the NumPy generator all probabilistic decisions and
        corruption values are drawn from.
    drop_prob, duplicate_prob, corrupt_prob, delay_prob:
        Per-message probabilities (mutually exclusive outcomes; their sum
        must not exceed 1).
    delay_time:
        Mean extra latency added to a delayed message's post time.
    rules:
        Targeted :class:`FaultRule` entries; a matching rule overrides the
        probabilistic draw for that message.
    crashes:
        :class:`RankCrash` schedule (at most one per rank).
    slowdowns:
        :class:`RankSlowdown` schedule (at most one per rank).
    state_corruptions:
        :class:`StateCorruption` entries consumed by the solvers.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        delay_prob: float = 0.0,
        delay_time: float = 1.0e-4,
        rules: Sequence[FaultRule] = (),
        crashes: Sequence[RankCrash] = (),
        slowdowns: Sequence[RankSlowdown] = (),
        state_corruptions: Sequence[StateCorruption] = (),
    ):
        probs = (drop_prob, duplicate_prob, corrupt_prob, delay_prob)
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError("fault probabilities must lie in [0, 1]")
        if sum(probs) > 1.0:
            raise ValueError("fault probabilities must sum to at most 1")
        if delay_time < 0:
            raise ValueError("delay_time must be non-negative")
        self.seed = seed
        self.drop_prob = drop_prob
        self.duplicate_prob = duplicate_prob
        self.corrupt_prob = corrupt_prob
        self.delay_prob = delay_prob
        self.delay_time = delay_time
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        crash_ranks = [c.rank for c in crashes]
        if len(crash_ranks) != len(set(crash_ranks)):
            raise ValueError("at most one scheduled crash per rank")
        self._crashes: Dict[int, float] = {c.rank: float(c.at_time) for c in crashes}
        slow_ranks = [s.rank for s in slowdowns]
        if len(slow_ranks) != len(set(slow_ranks)):
            raise ValueError("at most one scheduled slowdown per rank")
        self._slowdowns: Dict[int, RankSlowdown] = {s.rank: s for s in slowdowns}
        self._corruptions: List[StateCorruption] = list(state_corruptions)
        self._rng = np.random.default_rng(seed)
        self._rule_hits: Dict[int, int] = defaultdict(int)
        self.stats = FaultStats()

    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls) -> "FaultPlan":
        """An inert plan: nothing is injected, no random numbers consumed."""
        return cls()

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return bool(
            self.drop_prob
            or self.duplicate_prob
            or self.corrupt_prob
            or self.delay_prob
            or self.rules
            or self._crashes
            or self._slowdowns
            or self._corruptions
        )

    def clone(self) -> "FaultPlan":
        """A fresh plan with the same configuration and reset state.

        Use one clone per run when repeating an experiment: fault decisions
        restart from the seed, so repeats are bit-identical.
        """
        return FaultPlan(
            seed=self.seed,
            drop_prob=self.drop_prob,
            duplicate_prob=self.duplicate_prob,
            corrupt_prob=self.corrupt_prob,
            delay_prob=self.delay_prob,
            delay_time=self.delay_time,
            rules=self.rules,
            crashes=self.crash_schedule(),
            slowdowns=self.slowdown_schedule(),
            state_corruptions=tuple(self._corruptions),
        )

    # ------------------------------------------------------------------ #
    # backend-agnostic decomposition (consumed by repro.backend)
    # ------------------------------------------------------------------ #
    @property
    def message_faults_enabled(self) -> bool:
        """Whether any message-level fault (drop/dup/corrupt/delay) can fire."""
        return bool(
            self.drop_prob
            or self.duplicate_prob
            or self.corrupt_prob
            or self.delay_prob
            or self.rules
        )

    def crash_schedule(self) -> Tuple[RankCrash, ...]:
        """The still-pending fail-stop crashes, in rank order."""
        return tuple(RankCrash(r, t) for r, t in sorted(self._crashes.items()))

    def state_corruption_schedule(self) -> Tuple[StateCorruption, ...]:
        """The still-pending silent state corruptions."""
        return tuple(self._corruptions)

    def slowdown_schedule(self) -> Tuple[RankSlowdown, ...]:
        """The still-pending rank slowdowns, in rank order."""
        return tuple(self._slowdowns[r] for r in sorted(self._slowdowns))

    def substrate_plan(self) -> "FaultPlan":
        """A plan carrying the substrate's share: crashes *and* slowdowns.

        The execution backends split one user-facing plan by layer: message
        faults are injected at the Comm boundary (sender-side, per rank),
        state corruptions inside the solver program, and crashes and
        slowdowns by the substrate itself -- the simulated scheduler
        (which charges dilated compute) or the process-backend supervisor
        (which sleeps before Compute ops).  This derivation feeds the
        substrate its share; the message faults stay with the Comm
        boundary, the one place they are injected.
        """
        return FaultPlan(
            seed=self.seed,
            crashes=self.crash_schedule(),
            slowdowns=self.slowdown_schedule(),
        )

    def remap_ranks(self, survivors: Sequence[int]) -> None:
        """Renumber every pending fault in-place after a shrink.

        ``survivors`` lists the old rank ids that remain, in their new rank
        order (new rank = position in the list).  Faults pinned to removed
        ranks are dropped; targeted rules with a ``src``/``dst`` naming a
        removed rank are dropped too (wildcards survive untouched).
        """
        new_of = {old: new for new, old in enumerate(survivors)}
        self._crashes = {
            new_of[r]: t for r, t in self._crashes.items() if r in new_of
        }
        self._slowdowns = {
            new_of[r]: RankSlowdown(
                rank=new_of[r], at_time=s.at_time, factor=s.factor,
                op_delay=s.op_delay,
            )
            for r, s in self._slowdowns.items()
            if r in new_of
        }
        self._corruptions = [
            StateCorruption(
                iteration=c.iteration, target=c.target,
                rank=new_of[c.rank], scale=c.scale,
            )
            for c in self._corruptions
            if c.rank in new_of
        ]
        kept_rules = []
        for rule in self.rules:
            if rule.src is not None and rule.src not in new_of:
                continue
            if rule.dst is not None and rule.dst not in new_of:
                continue
            kept_rules.append(
                FaultRule(
                    kind=rule.kind,
                    src=None if rule.src is None else new_of[rule.src],
                    dst=None if rule.dst is None else new_of[rule.dst],
                    tag=rule.tag,
                    nth=rule.nth,
                )
            )
        self.rules = tuple(kept_rules)

    def for_rank(self, rank: int) -> "FaultPlan":
        """The rank-local derivation of this plan for sender-side injection.

        Message-fault decisions are drawn from a generator seeded by
        ``(seed, rank)``, consulted in the *sending rank's program order* --
        an order that is identical on the simulated and the process backend
        (it is the program text), which is what makes the injected-fault
        sequence reproducible across substrates where a globally shared
        generator could not be.  Targeted rules keep only those that can
        match this sender (``src`` wildcard rules match on every rank, and
        their ``nth`` counters count *this rank's* matches); crashes are
        excluded (substrate business); state corruptions keep only this
        rank's entries.
        """
        if rank < 0:
            raise ValueError("rank must be non-negative")
        return FaultPlan(
            seed=(self.seed * 1_000_003 + 7_919 * (rank + 1)) % (2**63),
            drop_prob=self.drop_prob,
            duplicate_prob=self.duplicate_prob,
            corrupt_prob=self.corrupt_prob,
            delay_prob=self.delay_prob,
            delay_time=self.delay_time,
            rules=tuple(r for r in self.rules if r.src is None or r.src == rank),
            state_corruptions=tuple(
                c for c in self._corruptions if c.rank == rank
            ),
        )

    # ------------------------------------------------------------------ #
    # message faults (consulted by backend.faulty.FaultInjector)
    # ------------------------------------------------------------------ #
    def next_action(self, src: int, dst: int, tag: int) -> str:
        """Decide the fate of one posted message (counts it in stats)."""
        self.stats.messages_seen += 1
        for i, rule in enumerate(self.rules):
            if rule.matches(src, dst, tag):
                self._rule_hits[i] += 1
                if rule.nth is None or self._rule_hits[i] == rule.nth:
                    self._count(rule.kind)
                    return rule.kind
        if self.drop_prob or self.duplicate_prob or self.corrupt_prob or self.delay_prob:
            u = float(self._rng.random())
            edge = self.drop_prob
            if u < edge:
                self._count(DROP)
                return DROP
            edge += self.duplicate_prob
            if u < edge:
                self._count(DUPLICATE)
                return DUPLICATE
            edge += self.corrupt_prob
            if u < edge:
                self._count(CORRUPT)
                return CORRUPT
            edge += self.delay_prob
            if u < edge:
                self._count(DELAY)
                return DELAY
        return DELIVER

    def _count(self, kind: str) -> None:
        if kind == DROP:
            self.stats.dropped += 1
        elif kind == DUPLICATE:
            self.stats.duplicated += 1
        elif kind == CORRUPT:
            self.stats.corrupted += 1
        elif kind == DELAY:
            self.stats.delayed += 1

    def delay_for(self) -> float:
        """Extra latency for a delayed message (0.5x..1.5x ``delay_time``)."""
        return self.delay_time * (0.5 + float(self._rng.random()))

    def corrupt_payload(self, payload: Any) -> Any:
        """Return a corrupted deep-ish copy of ``payload``.

        One leaf value is perturbed by a large seeded amount; container
        structure is preserved so the receiver cannot tell from the shape.
        """
        if payload is None:
            return None
        if isinstance(payload, np.ndarray):
            out = payload.copy()
            if out.size:
                idx = int(self._rng.integers(out.size))
                flat = out.reshape(-1)
                flat[idx] = self._perturb(float(flat[idx]))
            return out
        if isinstance(payload, (bool, int, float, complex, np.generic)):
            return self._perturb(float(payload))
        if isinstance(payload, (tuple, list)):
            items = list(payload)
            if items:
                idx = int(self._rng.integers(len(items)))
                items[idx] = self.corrupt_payload(items[idx])
            return type(payload)(items)
        if isinstance(payload, dict):
            keys = sorted(payload, key=repr)
            out_d = dict(payload)
            if keys:
                k = keys[int(self._rng.integers(len(keys)))]
                out_d[k] = self.corrupt_payload(out_d[k])
            return out_d
        return payload  # opaque object: leave as-is

    def _perturb(self, value: float) -> float:
        noise = float(self._rng.standard_normal())
        return value + (1.0 + abs(value)) * (100.0 + 100.0 * abs(noise))

    # ------------------------------------------------------------------ #
    # fail-stop crashes (consulted by the Scheduler)
    # ------------------------------------------------------------------ #
    def crash_due(self, rank: int, now: float) -> bool:
        """Whether ``rank`` has a scheduled crash at or before ``now``."""
        t = self._crashes.get(rank)
        return t is not None and now >= t

    def has_scheduled_crash(self, rank: int) -> bool:
        return rank in self._crashes

    def scheduled_crash_time(self, rank: int) -> float:
        """The scheduled crash time for ``rank`` (KeyError if none)."""
        return self._crashes[rank]

    def fire_crash(self, rank: int) -> float:
        """Consume ``rank``'s scheduled crash; returns the crash time.

        Consumed-once: after a rollback-restart recovery the replacement
        rank does not crash again.
        """
        t = self._crashes.pop(rank)
        self.stats.crashed_ranks.append(rank)
        return t

    # ------------------------------------------------------------------ #
    # slowdowns / stragglers (consulted by the substrates)
    # ------------------------------------------------------------------ #
    def slowdown_for(self, rank: int) -> Optional[RankSlowdown]:
        """The pending slowdown scheduled for ``rank`` (``None`` if none)."""
        return self._slowdowns.get(rank)

    def slowdown_factor(self, rank: int, now: float) -> float:
        """The compute-time dilation factor in force on ``rank`` at ``now``.

        1.0 before the slowdown's start time (or when none is scheduled).
        """
        s = self._slowdowns.get(rank)
        if s is None or now < s.at_time:
            return 1.0
        return s.factor

    def drop_slowdown(self, rank: int) -> Optional[RankSlowdown]:
        """Consume ``rank``'s scheduled slowdown (``None`` if none).

        Consumed-once like crashes: after the recovery driver replaces or
        sidelines a straggler, the replacement does not re-straggle.
        """
        return self._slowdowns.pop(rank, None)

    # ------------------------------------------------------------------ #
    # silent state corruption (consulted by the solvers)
    # ------------------------------------------------------------------ #
    def take_state_corruption(
        self, iteration: int, rank: Optional[int] = None
    ) -> Optional[StateCorruption]:
        """Pop the corruption scheduled for ``iteration`` (and ``rank``).

        HPF solvers pass ``rank=None`` (global state, any entry matches);
        SPMD rank programs pass their own rank so only the targeted rank
        applies the perturbation.  Consumed-once, so a rolled-back solver
        does not re-corrupt itself on the replayed iterations.
        """
        for i, c in enumerate(self._corruptions):
            if c.iteration == iteration and (rank is None or c.rank == rank):
                self.stats.state_corruptions += 1
                return self._corruptions.pop(i)
        return None

    def draw_index(self, n: int) -> int:
        """Seeded index draw in ``[0, n)`` for choosing a victim entry."""
        if n < 1:
            raise ValueError("n must be positive")
        return int(self._rng.integers(n))

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, drop={self.drop_prob}, "
            f"dup={self.duplicate_prob}, corrupt={self.corrupt_prob}, "
            f"delay={self.delay_prob}, rules={len(self.rules)}, "
            f"crashes={sorted(self._crashes)}, "
            f"slowdowns={sorted(self._slowdowns)}, "
            f"state_corruptions={len(self._corruptions)})"
        )
