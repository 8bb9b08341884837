"""Reliable messaging on top of the raw ``Send``/``Recv`` operations.

A stop-and-wait ARQ protocol, per ``(peer, tag)`` channel: every data
message carries a sequence number and a checksum, the receiver acknowledges
each delivery, and the sender retransmits with exponential backoff when the
acknowledgement does not arrive within a timeout.  Duplicates are filtered
by sequence number, corrupted packets are discarded (the missing ack makes
the sender retransmit), and a peer that never answers is diagnosed as
failed (:class:`~repro.machine.faults.RankFailedError`) after a bounded
number of retries.

Robustness has a *measurable* simulated price: every retransmission is a
real :class:`~repro.machine.events.Send` priced by the machine's cost model
on delivery, a dropped transmission costs the sender its ack timeout, and
every ack is a short extra message.  Benchmark E19 reads those numbers off
the stats to report the overhead of fault tolerance against the
fault-free run.

The binomial-tree collectives of :mod:`repro.machine.spmd` are offered
here over the reliable primitives -- the same generators, driven by
:func:`_over_arq` -- so the rank programs' collectives
(:class:`repro.backend.kernel.Collectives`) can swap their transport
without touching the numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from . import spmd
from .events import Op, Recv, Send, payload_words
from .faults import RankFailedError, RecvTimeoutError

__all__ = [
    "ACK_TAG_BASE",
    "ReliableConfig",
    "ReliableEndpoint",
    "checksum",
    "bcast",
    "reduce_to_root",
    "allreduce_sum",
    "allreduce_vec",
    "gather_to_root",
    "allgather",
]

GenOp = Generator[Op, Any, Any]

#: acknowledgements travel on ``ACK_TAG_BASE + data_tag`` so they can never
#: collide with application tags (which are small integers)
ACK_TAG_BASE = 1 << 20


@dataclass(frozen=True)
class ReliableConfig:
    """Tuning knobs of the stop-and-wait protocol.

    ``base_timeout`` is the first wait for an ack (simulated seconds); each
    retry multiplies it by ``backoff``.  After ``max_retries``
    retransmissions without an ack the peer is declared failed.
    ``ack_words`` is the modelled wire size of an acknowledgement.
    """

    base_timeout: float = 2.0e-3
    backoff: float = 2.0
    max_retries: int = 10
    ack_words: float = 2.0

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


def checksum(payload: Any) -> float:
    """Order-sensitive numeric digest of a message payload.

    Cheap by design (the simulated 1990s NIC has no crypto engine): a
    weighted sum over leaves.  Any perturbation of a single entry -- which
    is what :meth:`FaultPlan.corrupt_payload` injects -- changes the digest
    almost surely, which is all the ARQ layer needs.
    """
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        if payload.size == 0:
            return 0.5
        flat = payload.reshape(-1).astype(float, copy=False)
        weights = np.arange(1, flat.size + 1, dtype=float)
        return float(flat @ weights) + 0.25 * flat.size
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return float(np.real(payload)) * 1.000000119 + 0.125
    if isinstance(payload, (tuple, list)):
        return float(
            sum((i + 1) * 1.0000003 * checksum(p) for i, p in enumerate(payload))
        )
    if isinstance(payload, dict):
        return float(
            sum(
                (i + 1) * 1.0000007 * checksum(payload[k])
                for i, k in enumerate(sorted(payload, key=repr))
            )
        )
    return 1.0


def _valid_packet(packet: Any) -> bool:
    return (
        isinstance(packet, tuple)
        and len(packet) == 3
        and isinstance(packet[0], (int, np.integer))
        and isinstance(packet[1], (int, float, np.floating))
    )


class ReliableEndpoint:
    """One rank's reliable transport state (sequence numbers + telemetry).

    Create one endpoint per rank program instance.  ``telemetry`` is an
    optional shared mutable dict (all rank generators run in one thread)
    that survives the generators, so drivers can report retransmission
    totals even for attempts that were aborted by a crash.
    """

    def __init__(
        self,
        rank: int,
        config: Optional[ReliableConfig] = None,
        telemetry: Optional[Dict[str, float]] = None,
    ):
        self.rank = rank
        self.config = config or ReliableConfig()
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._recv_seq: Dict[Tuple[int, int], int] = {}
        self.telemetry = telemetry if telemetry is not None else {}
        for key in (
            "retransmissions",
            "retransmitted_words",
            "acks",
            "corrupt_discarded",
            "duplicates_discarded",
        ):
            self.telemetry.setdefault(key, 0)

    # ------------------------------------------------------------------ #
    def send(self, dest: int, payload: Any, tag: int = 0) -> GenOp:
        """Reliably deliver ``payload`` to ``dest`` (generator helper).

        Retransmits until the matching ack arrives; raises
        :class:`RankFailedError` once retries are exhausted.
        """
        cfg = self.config
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        packet = (seq, checksum((seq, payload)), payload)
        ack_tag = ACK_TAG_BASE + tag
        timeout = cfg.base_timeout
        for attempt in range(cfg.max_retries + 1):
            yield Send(dest=dest, payload=packet, tag=tag)
            if attempt:
                self.telemetry["retransmissions"] += 1
                self.telemetry["retransmitted_words"] += payload_words(packet)
            try:
                while True:
                    ack = yield Recv(source=dest, tag=ack_tag, timeout=timeout)
                    if isinstance(ack, (int, np.integer)) and int(ack) == seq:
                        return None
                    # stale or corrupted ack: keep listening in this window
            except RecvTimeoutError:
                timeout *= cfg.backoff
        raise RankFailedError(
            f"rank {self.rank}: no ack from rank {dest} for tag {tag} "
            f"seq {seq} after {cfg.max_retries} retries",
            rank=dest,
        )

    def recv(self, source: int, tag: int = 0) -> GenOp:
        """Reliably receive the next in-order payload from ``source``.

        Blocks without a timer: in stop-and-wait ARQ retransmission is the
        *sender's* job, so the receiver simply waits -- a lost message is
        re-sent by the peer's timeout, and a crashed peer surfaces as
        :class:`RankFailedError` from the scheduler's stall diagnosis.
        (A receiver-side timer would misfire whenever some *other* pair's
        retransmission storm stretched the wait.)
        """
        cfg = self.config
        key = (source, tag)
        expected = self._recv_seq.get(key, 0)
        ack_tag = ACK_TAG_BASE + tag
        while True:
            packet = yield Recv(source=source, tag=tag)
            if not _valid_packet(packet):
                self.telemetry["corrupt_discarded"] += 1
                continue
            seq, chk, payload = packet
            seq = int(seq)
            if checksum((seq, payload)) != chk:
                # corrupted in flight: discard; the missing ack triggers a
                # retransmission at the sender
                self.telemetry["corrupt_discarded"] += 1
                continue
            if seq == expected:
                self._recv_seq[key] = expected + 1
                yield Send(
                    dest=source, payload=seq, tag=ack_tag,
                    nwords=cfg.ack_words, control=True,
                )
                self.telemetry["acks"] += 1
                return payload
            if seq < expected:
                # duplicate or stale retransmission: re-ack so the sender
                # stops resending, but do not deliver twice
                self.telemetry["duplicates_discarded"] += 1
                yield Send(
                    dest=source, payload=seq, tag=ack_tag,
                    nwords=cfg.ack_words, control=True,
                )
                self.telemetry["acks"] += 1
                continue
            # seq > expected cannot happen under stop-and-wait unless the
            # sequence number itself was corrupted: discard, no ack
            self.telemetry["corrupt_discarded"] += 1


def _over_arq(raw_collective: Callable[..., GenOp]) -> Callable[..., GenOp]:
    """The reliable twin of a raw :mod:`~repro.machine.spmd` collective.

    ``twin(ep, rank, size, ...)`` drives ``raw_collective(rank, size, ...)``
    and answers each ``Send`` / ``Recv`` it yields with the acknowledged
    exchange on ``ep`` (same peer, payload and tag), so tree, tags and wire
    format are the raw ones by construction -- a fused CG still pays one
    acknowledged :func:`allreduce_vec` tree per iteration.
    """

    def collective(ep: ReliableEndpoint, rank: int, size: int, *args, **kwargs):
        raw = raw_collective(rank, size, *args, **kwargs)
        reply = None
        while True:
            try:
                op = raw.send(reply)
            except StopIteration as done:
                return done.value
            if isinstance(op, Send):
                reply = yield from ep.send(op.dest, op.payload, tag=op.tag)
            else:
                reply = yield from ep.recv(op.source, tag=op.tag)

    collective.__name__ = collective.__qualname__ = raw_collective.__name__
    collective.__doc__ = f"``spmd.{raw_collective.__name__}`` over the ARQ of ``ep``."
    return collective


bcast = _over_arq(spmd.bcast)
reduce_to_root = _over_arq(spmd.reduce_to_root)
allreduce_sum = _over_arq(spmd.allreduce_sum)
allreduce_vec = _over_arq(spmd.allreduce_vec)
gather_to_root = _over_arq(spmd.gather_to_root)
allgather = _over_arq(spmd.allgather)
