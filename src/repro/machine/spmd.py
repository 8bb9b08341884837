"""Collective operations for SPMD rank programs, built from point-to-point.

These are generator helpers used inside rank programs with ``yield from``::

    total = yield from spmd.allreduce_sum(rank, size, local_dot)

Algorithms are the standard binomial-tree / recursive patterns (Kumar et
al. [17] in the paper), so the *measured* cost of, e.g., an allreduce in the
event simulator can be compared against the closed-form hypercube formulas
of :mod:`repro.machine.collectives` -- that comparison is benchmark E4.

All helpers work for any rank count (not just powers of two) and combine
NumPy arrays or Python scalars with ``+`` by default.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

import numpy as np

from .events import Op, Recv, Send

__all__ = [
    "bcast",
    "reduce_to_root",
    "allreduce_sum",
    "allreduce_vec",
    "allreduce_doubling",
    "gather_to_root",
    "allgather",
    "allgather_bruck",
    "allgather_grid",
    "scatter_from_root",
]

GenOp = Generator[Op, Any, Any]


def _combine_default(a: Any, b: Any) -> Any:
    return a + b


def bcast(rank: int, size: int, value: Any, root: int = 0, tag: int = 1) -> GenOp:
    """Binomial-tree broadcast; returns the broadcast value on every rank."""
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank < mask:
            partner = vrank + mask
            if partner < size:
                yield Send(dest=(partner + root) % size, payload=value, tag=tag)
        elif vrank < 2 * mask:
            value = yield Recv(source=((vrank - mask) + root) % size, tag=tag)
        mask <<= 1
    return value


def reduce_to_root(
    rank: int,
    size: int,
    value: Any,
    root: int = 0,
    op: Callable[[Any, Any], Any] = _combine_default,
    tag: int = 2,
) -> GenOp:
    """Binomial-tree reduction; ``root`` returns the combined value, others None."""
    vrank = (rank - root) % size
    mask = 1
    result = value
    while mask < size:
        if vrank & mask:
            yield Send(dest=((vrank - mask) + root) % size, payload=result, tag=tag)
            return None
        partner = vrank + mask
        if partner < size:
            other = yield Recv(source=(partner + root) % size, tag=tag)
            result = op(result, other)
        mask <<= 1
    return result if vrank == 0 else None


def allreduce_sum(
    rank: int,
    size: int,
    value: Any,
    op: Callable[[Any, Any], Any] = _combine_default,
    tag: int = 3,
) -> GenOp:
    """All-reduce: reduce to rank 0, then broadcast the result.

    Recursive doubling would halve the latency on a hypercube; the
    reduce+bcast composition is used because it is correct for any rank
    count, and its cost (2 log P stages) is what benchmark E4 checks against
    the closed-form model.
    """
    reduced = yield from reduce_to_root(rank, size, value, root=0, op=op, tag=tag)
    result = yield from bcast(rank, size, reduced, root=0, tag=tag + 1)
    return result


def allreduce_vec(
    rank: int, size: int, values: Any, tag: int = 3
) -> GenOp:
    """Batched all-reduce: ``k`` scalars packed into one message.

    The communication-avoiding CG variants fuse every per-iteration inner
    product into a single reduction; this is the primitive they ride on.
    The wire format is a flat float64 vector -- slot ``j`` of the result is
    the sum over ranks of slot ``j`` of the contribution, so callers can
    pack unrelated reductions (dots, norms, ABFT duplicate sums) into one
    ``2 log P``-stage tree instead of paying ``t_startup`` per scalar.
    Every rank must contribute the same slot count.
    """
    vec = np.ascontiguousarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(
            f"allreduce_vec packs a non-empty 1-D scalar vector, got "
            f"shape {vec.shape}"
        )

    # inline binomial reduce (same tree as reduce_to_root) so a slot
    # mismatch can name the rank whose subtree contributed the bad shape
    vrank = rank % size
    mask = 1
    result = vec
    while mask < size:
        if vrank & mask:
            yield Send(dest=vrank - mask, payload=result, tag=tag)
            result = None
            break
        partner = vrank + mask
        if partner < size:
            other = yield Recv(source=partner, tag=tag)
            other = np.asarray(other)
            if other.shape != result.shape:
                raise ValueError(
                    f"allreduce_vec slot mismatch: rank {partner} "
                    f"contributed {other.shape}, rank {rank} expected "
                    f"{result.shape}"
                )
            result = result + other
        mask <<= 1
    result = yield from bcast(rank, size, result, root=0, tag=tag + 1)
    return result


def allreduce_doubling(
    rank: int,
    size: int,
    value: Any,
    op: Callable[[Any, Any], Any] = _combine_default,
    tag: int = 12,
) -> GenOp:
    """Fold-based recursive-doubling all-reduce, correct for any ``P``.

    With ``c = 2**floor(log2 P)`` and ``f = P - c`` extra ranks: the extras
    first *fold* their contribution into rank ``r - c``, the ``c`` core
    ranks run ``log2 c`` pairwise exchange stages, and the result is
    *unfolded* back to the extras.  Message total is ``2 f + c log2 c`` --
    the count :func:`repro.machine.collectives.allreduce_cost` models,
    which is what lets a counted scheduler run pin the closed form for
    non-power-of-two machines.
    """
    if size == 1:
        return value
    c = 1 << (size.bit_length() - 1)  # largest power of two <= size
    extras = size - c
    result = value
    # fold: the f extra ranks donate their value to their core partner
    if rank >= c:
        yield Send(dest=rank - c, payload=result, tag=tag)
    elif rank < extras:
        other = yield Recv(source=rank + c, tag=tag)
        result = op(result, other)
    # recursive doubling among the c core ranks
    if rank < c:
        mask = 1
        while mask < c:
            partner = rank ^ mask
            yield Send(dest=partner, payload=result, tag=tag)
            other = yield Recv(source=partner, tag=tag)
            result = op(result, other)
            mask <<= 1
    # unfold: core partners hand the finished result back to the extras
    if rank < extras:
        yield Send(dest=rank + c, payload=result, tag=tag + 1)
    elif rank >= c:
        result = yield Recv(source=rank - c, tag=tag + 1)
    return result


def gather_to_root(
    rank: int, size: int, value: Any, root: int = 0, tag: int = 5
) -> GenOp:
    """Binomial-tree gather; ``root`` returns ``[value_0, ..., value_{P-1}]``.

    Each rank accumulates a dict of contributions from its subtree and
    forwards it, so message sizes grow up the tree exactly as in the
    textbook algorithm.
    """
    vrank = (rank - root) % size
    contributions = {rank: value}
    mask = 1
    while mask < size:
        if vrank & mask:
            yield Send(
                dest=((vrank - mask) + root) % size, payload=contributions, tag=tag
            )
            return None
        partner = vrank + mask
        if partner < size:
            sub = yield Recv(source=(partner + root) % size, tag=tag)
            contributions.update(sub)
        mask <<= 1
    if vrank == 0:
        return [contributions[r] for r in range(size)]
    return None


def allgather(rank: int, size: int, value: Any, tag: int = 7) -> GenOp:
    """All-to-all broadcast: every rank returns the full list of values.

    Gather to rank 0 then broadcast the list -- the "tree-like broadcasting
    mechanism" the paper assumes for replicating the vector ``p`` in
    Scenario 1.
    """
    gathered = yield from gather_to_root(rank, size, value, root=0, tag=tag)
    result = yield from bcast(rank, size, gathered, root=0, tag=tag + 1)
    return result


def _bruck_allgather_group(
    me: int, group: List[int], value: Any, tag: int
) -> GenOp:
    """Bruck all-gather among the ranks listed in ``group``.

    ``me`` is this rank's position within ``group``.  Each of the
    ``ceil(log2 g)`` rounds sends one message of the blocks accumulated so
    far to the rank ``step`` positions behind, so every rank sends exactly
    ``ceil(log2 g)`` messages and moves ``(g - 1)`` blocks in total -- the
    per-rank structure :func:`repro.machine.collectives._doubling_allgather`
    prices.  Returns the per-rank values in group order.
    """
    g = len(group)
    blocks = [value]  # blocks[j] holds the value of group rank (me + j) % g
    step = 1
    while step < g:
        count = min(step, g - step)
        dst = group[(me - step) % g]
        src = group[(me + step) % g]
        yield Send(dest=dst, payload=blocks[:count], tag=tag)
        incoming = yield Recv(source=src, tag=tag)
        blocks.extend(incoming)
        step <<= 1
    return [blocks[(j - me) % g] for j in range(g)]


def allgather_bruck(rank: int, size: int, value: Any, tag: int = 16) -> GenOp:
    """Recursive-doubling (Bruck) all-gather, correct for any rank count.

    The measured counterpart of the hypercube/complete branch of
    :func:`repro.machine.collectives.allgather_cost`: ``ceil(log2 P)``
    messages per rank, ``(P-1)`` value-blocks moved per rank.
    """
    result = yield from _bruck_allgather_group(
        rank, list(range(size)), value, tag
    )
    return result


def allgather_grid(
    rank: int, size: int, value: Any, rows: int, cols: int, tag: int = 15
) -> GenOp:
    """Row-then-column all-gather on an ``rows x cols`` process grid.

    Phase 1 all-gathers within each row (``cols``-rank Bruck), phase 2
    exchanges the assembled row lists along each column, and the flattened
    result is in world-rank order.  Every rank sends
    ``ceil(log2 cols) + ceil(log2 rows)`` messages -- the structure the
    ``Mesh2D`` branch of :func:`repro.machine.collectives.allgather_cost`
    prices, so a counted scheduler run of this generator pins that closed
    form's whole-machine totals.
    """
    if rows * cols != size:
        raise ValueError(f"{rows}x{cols} grid does not cover {size} ranks")
    row, col = divmod(rank, cols)
    row_group = [row * cols + c for c in range(cols)]
    row_values = yield from _bruck_allgather_group(col, row_group, value, tag)
    col_group = [r * cols + col for r in range(rows)]
    row_lists = yield from _bruck_allgather_group(
        row, col_group, row_values, tag + 1
    )
    return [v for row_list in row_lists for v in row_list]


def scatter_from_root(
    rank: int,
    size: int,
    values: Optional[List[Any]],
    root: int = 0,
    tag: int = 9,
) -> GenOp:
    """Binomial-tree scatter of per-rank values held by ``root``.

    ``values`` must be a list of length ``size`` on ``root`` and is ignored
    elsewhere; each rank returns its own element.
    """
    vrank = (rank - root) % size
    if vrank == 0:
        if values is None or len(values) != size:
            raise ValueError("root must supply one value per rank")
        # keyed by virtual rank so subtree ranges are contiguous
        holding = {v: values[(v + root) % size] for v in range(size)}
        mask = 1
        while mask < size:
            mask <<= 1
        mask >>= 1
    else:
        # a rank receives exactly once, from vrank with its lowest set bit
        # cleared (mirror of the binomial gather tree)
        recv_mask = vrank & (-vrank)
        src_vrank = vrank - recv_mask
        holding = yield Recv(source=(src_vrank + root) % size, tag=tag)
        mask = recv_mask >> 1
    # forward the subtrees below us
    while mask >= 1:
        partner = vrank + mask
        if partner < size:
            subtree = {v: holding[v] for v in list(holding) if partner <= v < partner + mask}
            for v in subtree:
                del holding[v]
            yield Send(dest=(partner + root) % size, payload=subtree, tag=tag)
        mask >>= 1
    return holding[vrank]
