"""Write-ahead job journal: the service's accepted work survives the driver.

PR 8's :class:`~repro.backend.store.DurableCheckpointStore` made *solver*
state survive a SIGKILLed driver; this module does the same for the
*service* state that used to live only in dispatcher memory — the queue
of accepted jobs and the identity of the one in flight.  A
:class:`~repro.service.service.SolverService` constructed with a
``journal_dir`` logs every job lifecycle transition as one durable
record, and a fresh service re-opening the same directory replays them:

* jobs that were **accepted** but never dispatched are re-enqueued in
  their original tenant/FIFO order;
* the job that was **dispatched** when the driver died is re-run — from
  its ``checkpoint_dir``'s newest complete checkpoint when it has one,
  from scratch when it does not;
* jobs with a **terminal** record (completed / failed / quarantined) are
  *not* re-run: a resubmission carrying the same idempotency key gets
  the recorded :class:`~repro.service.service.JobResult` back, which
  under ``reproducible=True`` is bitwise-identical to what a re-run
  would produce (the reproducibility contract of Iakymchuk et al. is
  what makes answering from the record honest);
* **poison** jobs — ones whose history shows they keep killing the
  substrate — are quarantined instead of replayed, so a job that
  SIGKILLs the driver cannot crash-loop the service forever.

Records share the checkpoint store's crash-safety recipe via
:class:`repro.backend.records.RecordLog`: each transition is one
CRC32-framed, pickle-bodied frame appended to ``journal.log``, and the
log order totally orders the records (a record's sequence number is its
position among the frames that verify).  Torn or bit-flipped frames are
skipped on load (their offsets collected in ``skipped_records``), and a
torn tail is truncated before the next append — exactly the store's
guarantees, applied to service state.

**Condemnation evidence.**  "Crashing the pool" leaves two fingerprints
in the journal: a failed ``attempt`` record flagged ``condemned`` (the
attempt killed the warm-pool generation but the driver survived to log
it), and an **interrupted dispatch** — a ``dispatched`` record followed
by neither an attempt nor a terminal record, meaning the driver itself
died (or was killed) while the job ran.  A job's evidence count is the
sum of both; once it reaches the service's ``quarantine_after`` bound
(default 2) the job is never dispatched again — it must not get a third
generation to condemn.
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..backend.records import RecordLog

__all__ = [
    "JobJournal",
    "JobState",
    "JobQuarantinedError",
    "ACCEPTED",
    "DISPATCHED",
    "ATTEMPT",
    "COMPLETED",
    "FAILED",
    "QUARANTINED",
    "new_idempotency_key",
]

_MAGIC = b"RPJRNL1\n"
_LOG = "journal.log"

#: lifecycle events, in the order a job meets them
ACCEPTED = "accepted"          #: admission succeeded; spec journaled
DISPATCHED = "dispatched"      #: the dispatcher handed it to the backend
ATTEMPT = "attempt"            #: one failed service-level attempt
COMPLETED = "completed"        #: terminal: converged (ok or degraded)
FAILED = "failed"              #: terminal: classified failure / expiry
QUARANTINED = "quarantined"    #: terminal: poison job, never re-run

_TERMINAL = frozenset((COMPLETED, FAILED, QUARANTINED))


class JobQuarantinedError(RuntimeError):
    """The job's history shows it keeps condemning the substrate.

    ``key`` is the job's idempotency key; ``condemnations`` the evidence
    count (condemned attempts + interrupted dispatches) that tripped the
    bound.
    """

    def __init__(self, key: str, condemnations: int, bound: int):
        super().__init__(
            f"job {key!r} quarantined: condemned the pool/driver "
            f"{condemnations} times (bound {bound}); refusing to let it "
            f"condemn another generation"
        )
        self.key = key
        self.condemnations = condemnations
        self.bound = bound


@dataclass
class JobState:
    """Folded per-key view of the journal: where one job stands."""

    key: str
    tenant: str = "default"
    accept_seq: int = -1              #: seq of the ACCEPTED record
    spec: Any = None                  #: the journaled JobSpec
    dispatches: int = 0               #: lifetime DISPATCHED records
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    terminal: Optional[str] = None    #: a ``_TERMINAL`` event, or None
    result: Any = None                #: recorded JobResult when terminal
    #: condemnation evidence: condemned failed attempts plus dispatches
    #: that ended in neither an attempt nor a terminal record (the
    #: driver died mid-job)
    condemnations: int = 0
    #: True while a DISPATCHED record has seen no event since; at load
    #: end this means the driver died with the job in flight
    _dispatch_open: bool = field(default=False, repr=False)

    @property
    def replayable(self) -> bool:
        return self.terminal is None and self.spec is not None


class JobJournal:
    """Durable, totally-ordered log of job lifecycle transitions.

    One log frame per transition; ``fsync=True`` (the default) makes an
    appended record survive power loss, ``fsync=False`` trades that for
    speed and still survives process kill (the policy split the
    checkpoint store documents).

    Thread-safe: the service appends from both the client thread
    (``submit`` journals ACCEPTED) and the dispatcher thread (dispatch /
    attempt / terminal records), so the append and the fold of the
    folded-state dicts are guarded by one lock, and the log order is the
    fold order.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self._log = RecordLog(self.path, _LOG, _MAGIC, fsync=self.fsync)
        #: byte offsets in the log of records that failed verification
        self.skipped_records: List[int] = self._log.skipped
        self._states: Dict[str, JobState] = {}
        self._records = 0
        self._lock = threading.Lock()
        self._load()

    # ------------------------------------------------------------------ #
    # load / fold
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        for rec in self._log.replay():
            self._fold(rec)
        # a dispatch still open at load end: the driver died mid-job
        for state in self._states.values():
            if state._dispatch_open and state.terminal is None:
                state.condemnations += 1
                state._dispatch_open = False

    def _fold(self, rec: Dict[str, Any]) -> int:
        """Fold one record; returns its sequence number."""
        seq = self._records
        self._records += 1
        key = rec["key"]
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = JobState(key=key)
        event = rec["event"]
        if event == ACCEPTED:
            state.accept_seq = seq
            state.spec = rec.get("spec")
            state.tenant = rec.get("tenant", "default")
        elif event == DISPATCHED:
            if state._dispatch_open:
                # re-dispatched with no attempt/terminal in between: the
                # previous driver died while this job was in flight
                state.condemnations += 1
            state.dispatches += 1
            state._dispatch_open = True
        elif event == ATTEMPT:
            state.attempts.append(
                {k: rec.get(k) for k in ("attempt", "outcome", "condemned")}
            )
            if rec.get("condemned"):
                state.condemnations += 1
            state._dispatch_open = False
        elif event in _TERMINAL:
            state.terminal = event
            state.result = rec.get("result")
            state._dispatch_open = False
        return seq

    # ------------------------------------------------------------------ #
    # append
    # ------------------------------------------------------------------ #
    def _append(self, event: str, key: str, **fields: Any) -> int:
        rec = {"event": event, "key": key, **fields}
        with self._lock:
            self._log.append(rec)
            return self._fold(rec)

    def accepted(self, key: str, spec: Any) -> int:
        """WAL step one: the spec is on disk before the queue sees it."""
        return self._append(
            ACCEPTED, key, spec=spec,
            tenant=getattr(spec, "tenant", "default"),
        )

    def dispatched(self, key: str) -> int:
        return self._append(DISPATCHED, key)

    def attempt(self, key: str, attempt: int, outcome: str,
                condemned: bool) -> int:
        """One *failed* service-level attempt (ok attempts end terminal)."""
        return self._append(
            ATTEMPT, key, attempt=attempt, outcome=outcome,
            condemned=bool(condemned),
        )

    def completed(self, key: str, result: Any) -> int:
        return self._append(COMPLETED, key, result=result)

    def failed(self, key: str, result: Any) -> int:
        return self._append(FAILED, key, result=result)

    def quarantined(self, key: str, result: Any) -> int:
        return self._append(QUARANTINED, key, result=result)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Records actually folded (skipped/corrupt ones don't count)."""
        with self._lock:
            return self._records

    def state(self, key: str) -> Optional[JobState]:
        with self._lock:
            return self._states.get(key)

    def states(self) -> List[JobState]:
        """Every job, in original acceptance order."""
        with self._lock:
            return sorted(
                self._states.values(), key=lambda s: s.accept_seq
            )

    def replayable(self) -> List[JobState]:
        """Jobs a restarted service must re-enqueue, in accept order."""
        return [s for s in self.states() if s.replayable]

    def terminal_result(self, key: str) -> Optional[Any]:
        """The recorded JobResult for a finished key, else ``None``."""
        with self._lock:
            state = self._states.get(key)
            if state is None or state.terminal is None:
                return None
            return state.result

    def condemnations(self, key: str) -> int:
        with self._lock:
            state = self._states.get(key)
            return 0 if state is None else state.condemnations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobJournal(path={self.path!r}, records={self._records}, "
            f"jobs={len(self._states)})"
        )


def new_idempotency_key() -> str:
    """A unique key for jobs the client did not key (no dedupe intent)."""
    return f"auto-{uuid.uuid4().hex}"
