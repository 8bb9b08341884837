"""Durable, crash-safe checkpoint store.

:class:`DurableCheckpointStore` is a ``MutableMapping`` drop-in for the
plain ``dict`` checkpoint store that :func:`repro.backend.solve.run_with_recovery`
and the backends thread through a resilient solve.  Both substrates
publish snapshots with

    store.setdefault(iteration, {})[rank] = payload

so the store hands out *live* per-iteration views whose ``__setitem__``
journals the record to disk before updating the in-memory mirror.

Every edit is one frame of the append-only log ``checkpoints.log``
(:class:`~repro.backend.records.RecordLog`): a rank write, an iteration
assigned whole, a rank or iteration deleted, a ``clear()``.  Deletes and
clears are tombstone frames, and the store is the fold of the log, so an
edit is on disk entirely or not at all: a SIGKILL mid-write leaves a torn
tail that the next open skips and the next append truncates.  Frames are
CRC32-checked, and one that fails is skipped (its offset lands in
``skipped_records``) instead of poisoning recovery.

Because iteration completeness is judged rank by rank,
:func:`repro.core.resilience.latest_complete_checkpoint` gives the same
answer to a fresh process re-opening the directory as it gave to the
process that died -- the property the driver-restart recovery path and
the ``SolverService`` rely on.  An iteration with no rank is kept in
memory only; it holds no checkpoint.

Fsync policy: ``fsync=True`` (the default) syncs the log after every
frame, making a written record survive power loss; ``fsync=False``
trades that for speed and still survives process kill.  Tests and
benches use ``fsync=False``; services should keep the default.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, MutableMapping

from .records import RecordLog

__all__ = ["DurableCheckpointStore"]

_MAGIC = b"RPCKPT1\n"
_LOG = "checkpoints.log"


class _IterationView(MutableMapping):
    """Live ``{rank: payload}`` view; writes journal through the store."""

    def __init__(self, store: "DurableCheckpointStore", iteration: int):
        self._store = store
        self._iteration = int(iteration)

    def _ranks(self) -> Dict[int, Any]:
        return self._store._mem.setdefault(self._iteration, {})

    def __getitem__(self, rank: int) -> Any:
        return self._ranks()[rank]

    def __setitem__(self, rank: int, payload: Any) -> None:
        self._store._write_record(self._iteration, int(rank), payload)

    def __delitem__(self, rank: int) -> None:
        if rank not in self._ranks():
            raise KeyError(rank)
        self._store._edit("drop", self._iteration, int(rank))

    def __iter__(self) -> Iterator[int]:
        return iter(self._ranks())

    def __len__(self) -> int:
        return len(self._ranks())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_IterationView(iteration={self._iteration}, {dict(self._ranks())!r})"


class DurableCheckpointStore(MutableMapping):
    """On-disk checkpoint store: the fold of one CRC-framed edit log.

    Maps ``iteration -> {rank: payload}`` exactly like the in-memory dict
    store; re-opening the same directory replays every intact edit and
    skips torn or corrupt ones.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self._mem: Dict[int, Dict[int, Any]] = {}
        self._log = RecordLog(self.path, _LOG, _MAGIC, fsync=self.fsync)
        for edit in self._log.replay():
            self._apply(*edit)
        #: byte offsets in the log of edits that failed verification
        self.skipped_records = self._log.skipped

    def _apply(self, op: str, iteration=None, rank=None, value=None) -> None:
        if op == "put":
            self._mem.setdefault(iteration, {})[rank] = value
        elif op == "set":
            self._mem[iteration] = dict(value)
        elif op == "drop":
            ranks = self._mem.get(iteration, {})
            ranks.pop(rank, None)
            if not ranks:
                self._mem.pop(iteration, None)
        elif op == "del":
            self._mem.pop(iteration, None)
        else:  # "clear"
            self._mem.clear()

    def _edit(self, *edit) -> None:
        """Append one edit, then fold it into the in-memory mirror."""
        self._log.append(edit)
        self._apply(*edit)

    def _write_record(self, iteration: int, rank: int, payload: Any) -> None:
        self._edit("put", iteration, rank, payload)

    # ------------------------------------------------------------------ #
    # MutableMapping interface (iteration -> {rank: payload})
    # ------------------------------------------------------------------ #
    def __getitem__(self, iteration: int) -> _IterationView:
        if iteration not in self._mem:
            raise KeyError(iteration)
        return _IterationView(self, iteration)

    def __setitem__(self, iteration: int, snaps: MutableMapping) -> None:
        snaps = {int(rank): payload for rank, payload in dict(snaps).items()}
        self._edit("set", int(iteration), None, snaps)

    def __delitem__(self, iteration: int) -> None:
        if iteration not in self._mem:
            raise KeyError(iteration)
        self._edit("del", iteration)

    def __iter__(self) -> Iterator[int]:
        return iter(self._mem)

    def __len__(self) -> int:
        return len(self._mem)

    def setdefault(self, iteration: int, default=None) -> _IterationView:
        iteration = int(iteration)
        if iteration not in self._mem:
            if default:
                self[iteration] = default
            else:
                self._mem[iteration] = {}
        return _IterationView(self, iteration)

    def clear(self) -> None:
        self._edit("clear")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = {k: len(v) for k, v in sorted(self._mem.items())}
        return f"DurableCheckpointStore(path={self.path!r}, iterations={sizes})"
