"""Shared-memory data plane of the process backend.

Every payload -- a rank's ``Send``, a pool's job dispatch -- is pickled
with protocol 5 **in the calling thread**.  Out-of-band buffers of at
least :data:`SHM_THRESHOLD` bytes are memcpy'd into a :class:`Ring` of
anonymous shared memory; the in-band pickle plus one ``(offset, nbytes,
release)`` descriptor per buffer form a *frame* the same thread writes to
a pipe.  Smaller buffers, and any buffer a full ring cannot take, stay
inside the pickle stream, so a send never waits for space.

One mechanism carries both flows (:class:`Fabric`):

* **rank -> rank**: one :class:`Link` (pipe + ring) per ordered pair,
  single producer, single consumer.  The receiver copies each buffer out
  and releases its ring space while decoding, in frame order.
* **driver -> ranks**: one pipe per rank over a *common* dispatch ring.
  The program is pickled and placed once, the same frame goes to every
  rank, ranks rebuild it over **read-only views** of the ring, and the
  driver rewinds the ring at the next dispatch.

Pipes are non-blocking.  Bytes a pipe refuses wait in the sender and are
pushed at every later progress point -- each send, each receive poll, the
drain before the end-of-job barrier -- so two ranks sending each other
more than pipes and rings hold cannot deadlock.  The arena is an unlinked
file: no name in ``/dev/shm``, no resource tracker, pages committed on
first touch.  Constants and the measurements behind them: DESIGN.md §7.
"""

from __future__ import annotations

import mmap
import os
import pickle
import reprlib
import select
import struct
import tempfile
import time
from collections import deque
from multiprocessing import reduction
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from .base import BackendError

__all__ = ["Fabric", "Endpoint", "Link", "Ring", "Arena"]

#: buffers at least this large travel through shared memory
SHM_THRESHOLD = 8 << 10
#: a float64 vector payload this short travels as a list of floats, which
#: pickles and loads in about 2 us where the array takes about 10 us
SMALL_VECTOR = 64
#: capacity of the ring of one ordered rank pair
RING_BYTES = 4 << 20
#: capacity of a pool generation's dispatch ring (virtual until touched)
DISPATCH_BYTES = 256 << 20

_LINE = 64  # cache line: alignment of ring blocks, spacing of ring counters
_FRAME = struct.Struct("<II")  # in-band bytes, number of descriptors
_DESC = struct.Struct("<QQQ")  # arena offset, buffer bytes, bytes to release
_TAIL = struct.Struct("<q")


class Arena:
    """Anonymous shared memory mapped by every process of one run."""

    def __init__(self, nbytes: int):
        if hasattr(os, "memfd_create"):
            self._fd = os.memfd_create("repro-arena")
        else:  # unlinked at birth: never visible under a name
            with tempfile.TemporaryFile() as fh:
                self._fd = os.dup(fh.fileno())
        os.ftruncate(self._fd, nbytes)  # sparse: no page exists yet
        self.buf = mmap.mmap(self._fd, nbytes)

    def __getstate__(self):  # only ever pickled into a spawned child
        return reduction.DupFd(self._fd), len(self.buf)

    def __setstate__(self, state) -> None:
        self._fd = state[0].detach()
        self.buf = mmap.mmap(self._fd, state[1])

    def close(self) -> None:
        self.buf.close()
        os.close(self._fd)


class Ring:
    """A byte FIFO in the arena: the producer places, the consumer releases.

    ``_head`` (bytes placed) lives in the producer; only the released
    count is shared, in an arena slot the consumer alone writes (a stale
    read merely under-reports free space).  Blocks are contiguous -- one
    that would straddle the end skips to the start -- and an empty ring
    restarts at its bottom, so alternating traffic reuses the same pages.
    """

    def __init__(self, arena: Arena, slot: int, offset: int, nbytes: int):
        self.arena, self.slot = arena, slot
        self.offset, self.nbytes = offset, nbytes
        self._head = self._origin = 0

    def _released(self) -> int:
        return _TAIL.unpack_from(self.arena.buf, self.slot)[0]

    def release(self, nbytes: int) -> None:
        _TAIL.pack_into(self.arena.buf, self.slot, self._released() + nbytes)

    def rewind(self) -> None:
        """Producer-side: everything placed so far is dead (dispatch ring)."""
        _TAIL.pack_into(self.arena.buf, self.slot, self._head)

    def place(self, view: memoryview) -> Optional[Tuple[int, int, int]]:
        """Copy ``view`` in; its descriptor, or ``None`` when it does not fit."""
        need = -(-view.nbytes // _LINE) * _LINE
        released = self._released()
        if released == self._head:
            self._origin = self._head
        pos = (self._head - self._origin) % self.nbytes
        skip = self.nbytes - pos if pos + need > self.nbytes else 0
        if self._head + skip + need - released > self.nbytes:
            return None
        start = self.offset + (pos + skip) % self.nbytes
        self.arena.buf[start:start + view.nbytes] = view
        self._head += skip + need
        return start, view.nbytes, skip + need

    def dumps(self, obj: Any, what: str) -> bytes:
        """Pickle ``obj`` into one frame, large buffers placed in the ring."""
        descs: List[Tuple[int, int, int]] = []

        def keep_in_band(buffer: pickle.PickleBuffer) -> bool:
            view = buffer.raw()
            if view.nbytes >= SHM_THRESHOLD:
                desc = self.place(view)
                if desc is not None:
                    descs.append(desc)
                    return False
            return True  # small, or the ring is full: ride the pipe

        try:
            data = pickle.dumps(obj, 5, buffer_callback=keep_in_band)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            self._head -= sum(d[2] for d in descs)  # nobody will release them
            raise BackendError(
                f"cannot pickle {what} ({reprlib.repr(obj)}): "
                f"{type(exc).__name__}: {exc}") from exc
        return b"".join([_FRAME.pack(len(data), len(descs)),
                         *(_DESC.pack(*d) for d in descs), data])

    def loads(self, data, descs, views: bool) -> Any:
        """Rebuild a frame's object; copy buffers out and release, or view."""
        with memoryview(self.arena.buf) as mem:
            if views:
                buffers = [mem[s:s + n].toreadonly() for s, n, _ in descs]
            else:
                buffers = [bytearray(mem[s:s + n]) for s, n, _ in descs]
                if descs:
                    self.release(sum(d[2] for d in descs))
            return pickle.loads(data, buffers=buffers)


class Link:
    """One direction between two processes: a pipe of frames over a ring."""

    def __init__(self, ctx, ring: Ring, views: bool = False):
        self.ring, self.views = ring, views
        self.reader, self.writer = ctx.Pipe(duplex=False)
        for end in (self.reader, self.writer):
            os.set_blocking(end.fileno(), False)
        self._unsent = bytearray()   # producer: bytes the pipe refused
        self._partial = bytearray()  # consumer: bytes of an incomplete frame
        self._ready: Deque[Any] = deque()  # consumer: frames read, not taken

    def write(self, frame: bytes) -> bool:
        """Queue ``frame`` without ever blocking; True when the pipe took it."""
        self._unsent += frame
        return self.flush()

    def flush(self) -> bool:
        """Push refused bytes into the pipe; True when none remain."""
        while self._unsent:
            try:
                sent = os.write(self.writer.fileno(), self._unsent)
            except BlockingIOError:
                return False
            del self._unsent[:sent]
        return True

    def read(self) -> List[Any]:
        """Every complete frame the pipe holds, decoded in arrival order."""
        buf = self._partial
        try:
            while True:
                chunk = os.read(self.reader.fileno(), 1 << 16)
                buf += chunk
                if len(chunk) < 1 << 16:
                    break
        except BlockingIOError:
            pass
        out = []
        while len(buf) >= _FRAME.size:
            nbytes, ndesc = _FRAME.unpack_from(buf)
            body = _FRAME.size + ndesc * _DESC.size
            if len(buf) < body + nbytes:
                break
            descs = [_DESC.unpack_from(buf, _FRAME.size + i * _DESC.size)
                     for i in range(ndesc)]
            data = buf[body:body + nbytes]
            del buf[:body + nbytes]
            out.append(self.ring.loads(data, descs, self.views))
        return out

    def get(self) -> Any:
        """Block until the next frame arrives (a worker awaiting its task)."""
        while not self._ready:
            _wait(self.reader.fileno(), select.POLLIN, None)
            self._ready.extend(self.read())
        return self._ready.popleft()

    def close(self) -> None:
        self.reader.close()
        self.writer.close()


def _wait(fd: int, mask: int, timeout: Optional[float]) -> bool:
    poller = select.poll()
    poller.register(fd, mask)
    return bool(poller.poll(None if timeout is None else 1e3 * timeout))


class Endpoint:
    """One rank's mailbox: a link to and from every rank, itself included.

    ``job_id`` scopes traffic on a reused pool: it travels in every frame,
    and a frame of another job is decoded (which releases its ring space)
    and dropped.
    """

    def __init__(self, links, rank: int, size: int):
        self.rank, self.job_id = rank, 0
        self._out = [links[rank, dest] for dest in range(size)]
        self._ready: Deque[Tuple[int, int, Any]] = deque()
        self._poller = select.poll()
        self._by_fd = {links[src, rank].reader.fileno(): (src, links[src, rank])
                       for src in range(size)}
        for fd in self._by_fd:
            self._poller.register(fd, select.POLLIN)
        self._stuck = {}  # writer fd -> link with refused bytes

    def begin(self, job_id: int) -> None:
        """Scope the mailbox to a new job; leftovers of the last are dead."""
        self.job_id = job_id
        self._ready.clear()

    def send(self, dest: int, tag: int, payload: Any) -> None:
        """Post a message; returns once it is placed, never waits for space."""
        link = self._out[dest]
        vector = (type(payload) is np.ndarray and payload.ndim == 1
                  and payload.size <= SMALL_VECTOR
                  and payload.dtype == np.float64)
        if vector:
            payload = payload.tolist()
        frame = link.ring.dumps(
            (self.job_id, tag, payload, vector),
            f"the payload rank {self.rank} sends to rank {dest} (tag {tag})")
        if self._stuck:
            self._progress(0.0)
        if not link.write(frame) and link.writer.fileno() not in self._stuck:
            self._stuck[link.writer.fileno()] = link
            self._poller.register(link.writer.fileno(), select.POLLOUT)

    def recv(self, timeout: float) -> Optional[Tuple[int, int, Any]]:
        """The next ``(source, tag, payload)`` of this job; None on timeout."""
        if self._progress_until(lambda: self._ready, timeout):
            return self._ready.popleft()
        return None

    def drain(self, timeout: Optional[float]) -> None:
        """Push every refused byte out (bounded), still reading meanwhile."""
        self._progress_until(lambda: not self._stuck, timeout)

    def _progress_until(self, done, timeout: Optional[float]) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not done():
            remaining = 1.0 if deadline is None else deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._progress(remaining)
        return True

    def _progress(self, timeout: float) -> None:
        for fd, _ in self._poller.poll(1e3 * timeout):
            if fd in self._stuck:
                if self._stuck[fd].flush():
                    del self._stuck[fd]
                    self._poller.unregister(fd)
                continue
            src, link = self._by_fd[fd]
            for job_id, tag, payload, vector in link.read():
                if job_id == self.job_id:
                    self._ready.append(
                        (src, tag, np.array(payload) if vector else payload))


class Fabric:
    """What one run's processes share: arena, rank links, dispatch links.

    ``dispatch`` (a pool generation) adds one driver->rank link per rank
    over a common dispatch ring; a one-shot run needs none.
    """

    def __init__(self, ctx, nprocs: int, dispatch: bool = False):
        self.nprocs = nprocs
        dispatch_bytes = DISPATCH_BYTES if dispatch else 0
        pairs = [(s, d) for s in range(nprocs) for d in range(nprocs)]
        header = -(-(len(pairs) + 1) * _LINE // mmap.PAGESIZE) * mmap.PAGESIZE
        self.arena = Arena(header + len(pairs) * RING_BYTES + dispatch_bytes)
        self.links = {
            pair: Link(ctx, Ring(self.arena, i * _LINE,
                                 header + i * RING_BYTES, RING_BYTES))
            for i, pair in enumerate(pairs)
        }
        self._dispatch = Ring(self.arena, len(pairs) * _LINE,
                              header + len(pairs) * RING_BYTES, dispatch_bytes)
        self.tasks = [Link(ctx, self._dispatch, views=True)
                      for _ in range(nprocs if dispatch else 0)]

    def endpoint(self, rank: int) -> Endpoint:
        return Endpoint(self.links, rank, self.nprocs)

    def dispatch(self, task: Any, what: str, timeout: Optional[float],
                 alive) -> None:
        """Send ``task`` to every rank, pickled and placed once; gives up
        (the caller's supervision names the failure) when ``alive()`` turns
        false or ``timeout`` expires."""
        self._dispatch.rewind()  # the previous job is over: reuse its space
        frame = self._dispatch.dumps(task, what)
        deadline = None if timeout is None else time.monotonic() + timeout
        stuck = [link for link in self.tasks if not link.write(frame)]
        while stuck and alive() and (deadline is None
                                     or time.monotonic() < deadline):
            _wait(stuck[0].writer.fileno(), select.POLLOUT, 0.05)
            stuck = [link for link in stuck if not link.flush()]

    def close(self) -> None:
        for link in list(self.links.values()) + self.tasks:
            link.close()
        self.arena.close()
