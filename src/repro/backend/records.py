"""Shared crash-safe record plumbing: one append-only, CRC32-framed log.

Two on-disk journals in this codebase need the same guarantees — the
checkpoint records of :class:`~repro.backend.store.DurableCheckpointStore`
and the job lifecycle records of :class:`~repro.service.journal.JobJournal`
— so the guarantees live here once, in :class:`RecordLog`:

* **framing**: every record is one frame, ``magic`` + ``(length, CRC32)``
  + the pickled body, written by a single ``os.write`` to a file opened
  ``O_APPEND``.  Whatever identifies a record lives in its body; the log
  order is the record order.
* **durability**: ``fsync=True`` follows each write with one ``fsync``
  of the log (and syncs the directory once, when the log is created), so
  a record survives power loss once the append returns; ``fsync=False``
  still survives process kill.
* **replay** streams the log frame by frame.  A frame that does not
  verify (torn, bit-flipped, length-spoofed, unpicklable) is skipped by
  scanning forward to the next magic that starts a frame that does, and
  its offset is kept in ``skipped``.  When no later frame verifies, the
  bad bytes are a torn tail — a write cut short — and the next append
  truncates them before writing.

The per-record files of the earlier layout (one ``*.rec`` file each,
published by tmp+rename) are not read: a directory that still holds one
is refused with a ``ValueError`` rather than replayed as an empty state.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, Iterator, List, Optional

__all__ = ["RecordLog"]

#: frame header after the magic: payload length, payload CRC32
_FRAME = struct.Struct("<QI")
_SCAN = 1 << 16  # bytes read per step while scanning for the next magic


def _fsync_dir(path: str) -> None:
    """fsync a directory so a just-created entry survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform quirk
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


class RecordLog:
    """The log ``dirpath/name``: append payloads, replay the ones that verify.

    ``magic`` discriminates record kinds, so two logs with distinct
    names and magics can share one directory.
    """

    def __init__(self, dirpath: str, name: str, magic: bytes,
                 fsync: bool = True):
        os.makedirs(dirpath, exist_ok=True)
        for entry in sorted(os.listdir(dirpath)):
            if entry.endswith(".rec"):
                raise ValueError(
                    f"{dirpath!r} holds {entry!r}, a record file of the "
                    f"per-record layout; this version replays only the "
                    f"append-only log {name!r}")
        self.dir = dirpath
        self.path = os.path.join(dirpath, name)
        self.magic = bytes(magic)
        self.fsync = bool(fsync)
        #: byte offsets of frames that failed verification on replay
        self.skipped: List[int] = []
        self._exists = os.path.exists(self.path)
        self._torn: Optional[int] = None  # offset to truncate to

    def append(self, payload: Any) -> None:
        """Write ``payload`` as one frame; durable when this returns."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        frame = self.magic + _FRAME.pack(len(body), zlib.crc32(body)) + body
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if self._torn is not None:
                os.ftruncate(fd, self._torn)
                self._torn = None
            if os.write(fd, frame) != len(frame):
                raise OSError(f"short write appending to {self.path!r}")
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        if not self._exists:
            self._exists = True
            if self.fsync:
                _fsync_dir(self.dir)

    def replay(self) -> Iterator[Any]:
        """Yield every verified payload in log order, streaming the file."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            size = os.fstat(fh.fileno()).st_size
            pos, bad = 0, None
            while pos < size:
                frame = self._frame_at(fh, pos, size)
                if frame is None:
                    bad = pos if bad is None else bad
                    pos = self._next_magic(fh, pos + 1)
                    if pos < 0:
                        break
                    continue
                if bad is not None:
                    self.skipped.append(bad)
                    bad = None
                payload, pos = frame
                yield payload
            if bad is not None:  # nothing after it verifies: a torn tail
                self.skipped.append(bad)
                self._torn = bad

    def _frame_at(self, fh, pos: int, size: int):
        """``(payload, end offset)`` of a verified frame at ``pos``, else None."""
        head = len(self.magic) + _FRAME.size
        if pos + head > size:
            return None
        fh.seek(pos)
        raw = fh.read(head)
        if not raw.startswith(self.magic):
            return None
        length, crc = _FRAME.unpack_from(raw, len(self.magic))
        if length > size - pos - head:
            return None
        body = fh.read(length)
        if zlib.crc32(body) != crc:
            return None
        try:
            return pickle.loads(body), pos + head + length
        except Exception:
            return None

    def _next_magic(self, fh, start: int) -> int:
        """Offset of the first ``magic`` at or after ``start``, or -1."""
        keep = len(self.magic) - 1
        fh.seek(start)
        window, base = b"", start
        while True:
            block = fh.read(_SCAN)
            if not block:
                return -1
            window += block
            hit = window.find(self.magic)
            if hit >= 0:
                return base + hit
            cut = max(len(window) - keep, 0)
            base, window = base + cut, window[cut:]
