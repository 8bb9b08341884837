"""Distributed arrays executing under the owner-computes rule.

A :class:`DistributedArray` is the runtime object behind an HPF array: the
global index space is split by a :class:`~repro.hpf.distribution.Distribution`
and each simulated rank holds its local block as a NumPy array.  Every
operation charges the machine exactly what the compiled code would cost:

* element-wise operations and SAXPYs run locally on aligned operands
  ("SAXPY operations are easily performed using HPF's parallel array
  assignments ... performed in O(n/N_P) time on any architecture");
* inner products run locally then pay one allreduce ("the merge phase for
  adding up the partial results from processors involves communication
  overhead");
* operations on *unaligned* operands raise
  :class:`~repro.hpf.errors.AlignmentError` rather than silently
  communicating -- data motion must be explicit (``gather_to_all`` or
  ``redistribute``), mirroring what the directives make visible.

:class:`DistributedDenseMatrix` is the 2-D companion used by the dense
Scenarios 1 and 2 (Figures 3 and 4): one dimension distributed, the other
replicated -- ``(BLOCK, *)`` or ``(*, BLOCK)``.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Union

import numpy as np

from .align import AlignmentGroup
from .descriptor import DistributedArrayDescriptor
from .distribution import Block, Distribution
from .errors import AlignmentError, DistributionError

__all__ = ["DistributedArray", "DistributedDenseMatrix"]

Scalar = Union[int, float, np.floating]


class DistributedArray:
    """A one-dimensional HPF array distributed across the machine's ranks.

    Parameters
    ----------
    machine:
        The simulated multicomputer the array lives on.
    n:
        Global extent.
    distribution:
        Element mapping; defaults to HPF ``BLOCK``.
    dtype, name, fill:
        Element type, optional debug name, initial value.
    """

    def __init__(
        self,
        machine,
        n: int,
        distribution: Optional[Distribution] = None,
        dtype=np.float64,
        name: Optional[str] = None,
        fill: float = 0.0,
    ):
        if distribution is None:
            distribution = Block(n, machine.nprocs)
        if distribution.n != n:
            raise DistributionError(
                f"distribution extent {distribution.n} != array extent {n}"
            )
        if distribution.nprocs != machine.nprocs:
            raise DistributionError(
                f"distribution nprocs {distribution.nprocs} != machine "
                f"nprocs {machine.nprocs}"
            )
        self.machine = machine
        self.n = int(n)
        self.distribution = distribution
        self.dtype = np.dtype(dtype)
        self.name = name
        self._group = None  # the group itself if the target, else a weakref
        self._locals: List[np.ndarray] = [
            np.full(distribution.local_count(r), fill, dtype=self.dtype)
            for r in range(machine.nprocs)
        ]
        for r in range(machine.nprocs):
            machine.charge_storage(r, float(self._locals[r].size))

    # ------------------------------------------------------------------ #
    # construction / inspection
    # ------------------------------------------------------------------ #
    @classmethod
    def from_global(
        cls,
        machine,
        values: np.ndarray,
        distribution: Optional[Distribution] = None,
        name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distribute a host array onto the machine (layout-time, uncharged)."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("from_global expects a 1-D array")
        arr = cls(
            machine,
            values.shape[0],
            distribution,
            dtype=values.dtype,
            name=name,
        )
        for r in range(machine.nprocs):
            arr._locals[r][:] = values[arr.distribution.local_indices_cached(r)]
        return arr

    def to_global(self) -> np.ndarray:
        """Assemble the global array on the host (uncharged inspection)."""
        out = np.empty(self.n, dtype=self.dtype)
        if self.distribution.is_replicated:
            if self.machine.nprocs:
                out[:] = self._locals[0]
            return out
        for r in range(self.machine.nprocs):
            out[self.distribution.local_indices_cached(r)] = self._locals[r]
        return out

    def local(self, rank: int) -> np.ndarray:
        """The local block owned by ``rank`` (a live view)."""
        return self._locals[rank]

    def descriptor(self, dynamic: bool = False) -> DistributedArrayDescriptor:
        """Generate this array's DAD."""
        return DistributedArrayDescriptor.of(self, dynamic=dynamic)

    def copy(self, name: Optional[str] = None) -> "DistributedArray":
        """Allocate an identically-distributed copy of this array."""
        out = DistributedArray(
            self.machine, self.n, self.distribution, self.dtype, name
        )
        for r in range(self.machine.nprocs):
            out._locals[r][:] = self._locals[r]
        return out

    def new_aligned(
        self, name: Optional[str] = None, fill: float = 0.0
    ) -> "DistributedArray":
        """Allocate a new array aligned (and grouped) with this one."""
        out = DistributedArray(
            self.machine, self.n, self.distribution, self.dtype, name, fill
        )
        out.align_with(self)
        return out

    # ------------------------------------------------------------------ #
    # alignment / redistribution
    # ------------------------------------------------------------------ #
    @property
    def group(self) -> Optional[AlignmentGroup]:
        """The alignment group this array belongs to, or ``None``.

        The target holds its group; a member holds it weakly, and is
        ungrouped once the target is gone (see :class:`AlignmentGroup`).
        """
        group = self._group
        if isinstance(group, weakref.ref):
            group = group()
            if group is None or group.target is None:
                return None
        return group

    @group.setter
    def group(self, group: Optional[AlignmentGroup]) -> None:
        if group is not None and group.target is not self:
            group = weakref.ref(group)
        self._group = group

    def align_with(self, target: "DistributedArray") -> "DistributedArray":
        """``ALIGN self(:) WITH target(:)`` -- join the target's group."""
        if target.group is None:
            target.group = AlignmentGroup(target)
        target.group.add(self)
        return self

    def _relayout(self, new_distribution: Distribution) -> None:
        """Move to a new layout without charging (creation-time only)."""
        values = self.to_global()
        self.distribution = new_distribution
        self._locals = [
            values[new_distribution.local_indices_cached(r)].astype(self.dtype)
            for r in range(self.machine.nprocs)
        ]

    def _redistribute_single(
        self, new_distribution: Distribution, charge: bool = True
    ) -> None:
        """Redistribute this array only (group cascade handled by caller)."""
        if new_distribution.n != self.n:
            raise DistributionError(
                f"cannot redistribute extent {self.n} to extent "
                f"{new_distribution.n}"
            )
        if new_distribution.nprocs != self.machine.nprocs:
            raise DistributionError("redistribution must keep the same machine")
        if charge and not self.distribution.same_mapping(new_distribution):
            self._charge_redistribution(new_distribution)
        self._relayout(new_distribution)

    def _charge_redistribution(self, new_distribution: Distribution) -> None:
        """Price the data motion of a redistribution.

        Every element whose owner changes moves once; per-rank message
        counts come from the distinct (old owner -> new owner) pairs.
        """
        if self.distribution.is_replicated:
            # replicated -> distributed: no traffic, every rank narrows
            return
        old = self.distribution.owner_map()
        if new_distribution.is_replicated:
            # distributed -> replicated is an allgather
            self.machine.allgather(
                float(self.distribution.max_local_count()), tag="redistribute"
            )
            return
        new = new_distribution.owner_map()
        moving = old != new
        words = float(np.count_nonzero(moving))
        if words == 0:
            return
        pairs = np.unique(
            old[moving].astype(np.int64) * self.machine.nprocs + new[moving]
        )
        messages = int(pairs.size)
        # makespan: the busiest rank's outgoing traffic, one startup per peer
        out_words = np.zeros(self.machine.nprocs)
        np.add.at(out_words, old[moving], 1.0)
        out_peers = np.zeros(self.machine.nprocs)
        np.add.at(out_peers, pairs // self.machine.nprocs, 1.0)
        cost = self.machine.cost
        time = float(
            (out_peers * cost.t_startup + out_words * cost.t_comm).max()
        )
        self.machine.charge_comm_interval(
            "redistribute", messages, words, time,
            participants=list(self.machine.ranks),
        )

    def redistribute(self, new_distribution: Distribution, charge: bool = True) -> None:
        """``REDISTRIBUTE`` this array -- cascades through its group."""
        if self.group is not None:
            self.group.redistribute(new_distribution, charge=charge)
        else:
            self._redistribute_single(new_distribution, charge=charge)

    # ------------------------------------------------------------------ #
    # element-wise execution (owner computes)
    # ------------------------------------------------------------------ #
    def _other_block(self, other: "DistributedArray", rank: int) -> np.ndarray:
        """The piece of ``other`` co-located with this array's rank block."""
        if other.distribution.is_replicated and not self.distribution.is_replicated:
            return other._locals[rank][self.distribution.local_indices_cached(rank)]
        if other.distribution.same_mapping(self.distribution):
            return other._locals[rank]
        raise AlignmentError(
            f"operands {self.name!r} and {other.name!r} are not aligned; "
            "redistribute or gather explicitly"
        )

    def _check_operand(self, other: "DistributedArray") -> None:
        if other.machine is not self.machine:
            raise AlignmentError("operands live on different machines")
        if other.n != self.n:
            raise AlignmentError(
                f"extent mismatch: {self.n} vs {other.n}"
            )

    def _ewise_inplace(
        self,
        other: Union["DistributedArray", Scalar],
        fn: Callable[[np.ndarray, np.ndarray], None],
        flops_per_element: float,
    ) -> "DistributedArray":
        if isinstance(other, DistributedArray):
            self._check_operand(other)
            for r in range(self.machine.nprocs):
                fn(self._locals[r], self._other_block(other, r))
                self.machine.charge_compute(
                    r, flops_per_element * self._locals[r].size
                )
        else:
            val = float(other)
            for r in range(self.machine.nprocs):
                fn(self._locals[r], val)
                self.machine.charge_compute(
                    r, flops_per_element * self._locals[r].size
                )
        return self

    # -- assignments ---------------------------------------------------- #
    def fill(self, value: float) -> "DistributedArray":
        """``a = value`` (no flops charged: a store, not arithmetic)."""
        for r in range(self.machine.nprocs):
            self._locals[r][:] = value
        return self

    def assign(self, other: "DistributedArray") -> "DistributedArray":
        """``a = b`` for aligned ``b`` (local copy, no flops)."""
        self._check_operand(other)
        for r in range(self.machine.nprocs):
            self._locals[r][:] = self._other_block(other, r)
        return self

    # -- BLAS-1 style kernels (the paper's SAXPY family) ----------------- #
    def axpy(self, alpha: float, x: "DistributedArray") -> "DistributedArray":
        """``self = self + alpha * x`` -- the paper's saxpy (2 flops/elem)."""

        def fn(mine: np.ndarray, theirs: np.ndarray) -> None:
            mine += alpha * theirs

        return self._ewise_inplace(x, fn, 2.0)

    def saypx(self, alpha: float, x: "DistributedArray") -> "DistributedArray":
        """``self = alpha * self + x`` -- the paper's saypx
        (``p = beta * p + r``), 2 flops/elem."""

        def fn(mine: np.ndarray, theirs: np.ndarray) -> None:
            mine *= alpha
            mine += theirs

        return self._ewise_inplace(x, fn, 2.0)

    def scale(self, alpha: float) -> "DistributedArray":
        """``self = alpha * self`` (1 flop/elem)."""
        for r in range(self.machine.nprocs):
            self._locals[r] *= alpha
            self.machine.charge_compute(r, float(self._locals[r].size))
        return self

    def iadd(self, other) -> "DistributedArray":
        def fn(mine, theirs):
            mine += theirs

        return self._ewise_inplace(other, fn, 1.0)

    def isub(self, other) -> "DistributedArray":
        def fn(mine, theirs):
            mine -= theirs

        return self._ewise_inplace(other, fn, 1.0)

    def imul(self, other) -> "DistributedArray":
        def fn(mine, theirs):
            mine *= theirs

        return self._ewise_inplace(other, fn, 1.0)

    def idiv(self, other) -> "DistributedArray":
        def fn(mine, theirs):
            mine /= theirs

        return self._ewise_inplace(other, fn, 1.0)

    # -- new-array operators --------------------------------------------- #
    def _binary_new(self, other, fn, flops) -> "DistributedArray":
        out = self.copy()
        return out._ewise_inplace(other, fn, flops)

    def __add__(self, other):
        return self._binary_new(other, lambda m, t: m.__iadd__(t), 1.0)

    def __sub__(self, other):
        return self._binary_new(other, lambda m, t: m.__isub__(t), 1.0)

    def __mul__(self, other):
        return self._binary_new(other, lambda m, t: m.__imul__(t), 1.0)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self._binary_new(other, lambda m, t: m.__itruediv__(t), 1.0)

    def __neg__(self):
        out = self.copy()
        for r in range(self.machine.nprocs):
            out._locals[r] *= -1.0
            self.machine.charge_compute(r, float(out._locals[r].size))
        return out

    # ------------------------------------------------------------------ #
    # reductions and data motion
    # ------------------------------------------------------------------ #
    def dot(self, other: "DistributedArray", tag: str = "dot") -> float:
        """``DOT_PRODUCT(self, other)``: local multiply-adds + one allreduce.

        "The element-wise multiplications in the inner-product operations
        can be performed locally without any communication overhead while
        the merge phase ... involves communication overhead."
        """
        self._check_operand(other)
        if self.distribution.is_replicated and not other.distribution.is_replicated:
            return other.dot(self, tag=tag)
        total = 0.0
        for r in range(self.machine.nprocs):
            theirs = self._other_block(other, r)
            total += float(self._locals[r] @ theirs)
            self.machine.charge_compute(r, 2.0 * self._locals[r].size)
        if self.distribution.is_replicated:
            # every rank computed the full dot redundantly; take one copy
            total /= max(1, self.machine.nprocs)
        else:
            self.machine.allreduce(1.0, tag=tag)
        return total

    def norm2(self, tag: str = "dot") -> float:
        """Euclidean norm via :meth:`dot`."""
        return float(np.sqrt(max(0.0, self.dot(self, tag=tag))))

    def sum(self, tag: str = "sum") -> float:
        """``SUM(self)``: local sums + allreduce."""
        total = 0.0
        for r in range(self.machine.nprocs):
            total += float(self._locals[r].sum())
            self.machine.charge_compute(r, float(self._locals[r].size))
        if self.distribution.is_replicated:
            total /= max(1, self.machine.nprocs)
        else:
            self.machine.allreduce(1.0, tag=tag)
        return total

    def gather_to_all(self, tag: str = "gather") -> np.ndarray:
        """Replicate the array on every rank (all-to-all broadcast).

        This is the communication Scenario 1 needs: "this would require an
        all-to-all broadcast of the local vector elements".  Returns the
        global array; charges one allgather of the largest local block.
        """
        if self.distribution.is_replicated:
            return self.to_global()
        self.machine.allgather(
            float(self.distribution.max_local_count()), tag=tag
        )
        return self.to_global()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedArray(name={self.name!r}, n={self.n}, "
            f"dist={self.distribution!r})"
        )


class DistributedDenseMatrix:
    """An ``n x m`` dense matrix with one distributed dimension.

    ``axis=0`` gives the paper's ``(BLOCK, *)`` row partitioning aligned
    with ``p`` (Scenario 1 / Figure 3); ``axis=1`` gives ``(*, BLOCK)``
    column partitioning (Scenario 2 / Figure 4).
    """

    def __init__(
        self,
        machine,
        array: np.ndarray,
        distribution: Optional[Distribution] = None,
        axis: int = 0,
        name: Optional[str] = None,
    ):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("DistributedDenseMatrix expects a 2-D array")
        if axis not in (0, 1):
            raise ValueError("axis must be 0 (rows) or 1 (columns)")
        extent = array.shape[axis]
        if distribution is None:
            distribution = Block(extent, machine.nprocs)
        if distribution.n != extent:
            raise DistributionError(
                f"distribution extent {distribution.n} != axis extent {extent}"
            )
        if distribution.is_replicated:
            raise DistributionError("use a plain ndarray for fully replicated matrices")
        self.machine = machine
        self.shape = array.shape
        self.axis = axis
        self.distribution = distribution
        self.name = name
        if axis == 0:
            self._blocks = [
                array[distribution.local_indices_cached(r), :] for r in range(machine.nprocs)
            ]
        else:
            self._blocks = [
                array[:, distribution.local_indices_cached(r)] for r in range(machine.nprocs)
            ]
        for r in range(machine.nprocs):
            machine.charge_storage(r, float(self._blocks[r].size))

    def local_block(self, rank: int) -> np.ndarray:
        """The rank's local rows (axis=0) or columns (axis=1)."""
        return self._blocks[rank]

    def to_global(self) -> np.ndarray:
        """Reassemble the dense matrix on the host (uncharged)."""
        out = np.empty(self.shape)
        for r in range(self.machine.nprocs):
            idx = self.distribution.local_indices_cached(r)
            if self.axis == 0:
                out[idx, :] = self._blocks[r]
            else:
                out[:, idx] = self._blocks[r]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "(BLOCK, *)" if self.axis == 0 else "(*, BLOCK)"
        return f"DistributedDenseMatrix(name={self.name!r}, shape={self.shape}, {kind})"
