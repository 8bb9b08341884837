"""Distributed matrix-vector multiply strategies (paper Section 4 and 5).

Each strategy realises one of the paper's data-layout scenarios, performing
the *numerically real* computation on per-rank local data while charging
the simulated machine the communication an HPF compiler would emit:

========================  =============================================
Strategy                  Paper artifact
========================  =============================================
:class:`RowBlockDense`    Scenario 1 / Figure 3: ``A(BLOCK, *)`` aligned
                          with ``p(BLOCK)``; all-to-all broadcast of p.
:class:`ColBlockDenseSerial`
                          Scenario 2 / Figure 4, serial code: inter-
                          processor dependency forbids parallel
                          execution.
:class:`ColBlockDenseTwoDimTemp`
                          Scenario 2 with the two-dimensional local
                          temporary merged by the SUM intrinsic.
:class:`CsrForall`        Figure 2: CSR + FORALL over rows, with the
                          "additional communication ... to bring in
                          those missing elements" when col/a are not
                          aligned with the rows.
:class:`CscSerial`        Section 5.1's starting point: CSC scatter
                          loop that HPF-1 can only run serially.
:class:`CscPrivateMerge`  Section 5.1 / Figure 5: ON PROCESSOR mapping
                          plus PRIVATE(q) WITH MERGE(+); optionally the
                          Section 5.2.2 balanced atom partition.
========================  =============================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..extensions.on_processor import OnProcessor
from ..extensions.partitioners import cg_balanced_partitioner_1
from ..extensions.private import PrivateRegion
from ..extensions.sparse_directive import SparseMatrixBinding
from ..hpf.array import DistributedArray, DistributedDenseMatrix
from ..hpf.distribution import Block, Distribution, IrregularBlock
from ..hpf.errors import AlignmentError
from ..hpf.intrinsics import sum_private_copies
from ..sparse.convert import as_matrix
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.kernels import CompressedBlock

__all__ = [
    "MatvecStrategy",
    "RowBlockDense",
    "ColBlockDenseSerial",
    "ColBlockDenseTwoDimTemp",
    "CsrForall",
    "CscSerial",
    "CscPrivateMerge",
    "make_strategy",
]


class MatvecStrategy(ABC):
    """Common interface of distributed ``q = A p`` implementations."""

    #: short identifier used in benchmark tables
    name: str = "abstract"

    def __init__(self, machine, matrix):
        self.machine = machine
        self.matrix = as_matrix(matrix)
        if self.matrix.nrows != self.matrix.ncols:
            raise ValueError("matvec strategies expect square matrices")
        self.n = self.matrix.nrows

    # ------------------------------------------------------------------ #
    @abstractmethod
    def vector_distribution(self) -> Distribution:
        """The distribution CG's vectors must use with this strategy."""

    @abstractmethod
    def apply(
        self, p: DistributedArray, q: DistributedArray, tag: str = "matvec"
    ) -> None:
        """Compute ``q = A p`` in place, charging the machine."""

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """Compute ``y = A^T x`` (needed by BiCG); optional."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the transpose product"
        )

    # ------------------------------------------------------------------ #
    def make_vector(
        self, name: str, values: Optional[np.ndarray] = None
    ) -> DistributedArray:
        """Allocate a vector with this strategy's required distribution."""
        dist = self.vector_distribution()
        if values is None:
            return DistributedArray(self.machine, self.n, dist, name=name)
        return DistributedArray.from_global(self.machine, values, dist, name=name)

    def _check_vectors(self, p: DistributedArray, q: DistributedArray) -> None:
        dist = self.vector_distribution()
        for v in (p, q):
            if v.n != self.n:
                raise AlignmentError(f"vector extent {v.n} != matrix order {self.n}")
            if not v.distribution.same_mapping(dist):
                raise AlignmentError(
                    f"vector {v.name!r} is not distributed as the strategy "
                    f"requires ({dist!r}); build vectors with make_vector()"
                )

    def storage_words_per_rank(self) -> np.ndarray:
        """Matrix (plus persistent temporary) words held on each rank."""
        return np.zeros(self.machine.nprocs)

    @property
    def description(self) -> str:
        return type(self).__doc__.splitlines()[0] if type(self).__doc__ else self.name


# ---------------------------------------------------------------------- #
# Scenario 1: dense, (BLOCK, *)
# ---------------------------------------------------------------------- #
class RowBlockDense(MatvecStrategy):
    """Scenario 1: dense A distributed (BLOCK, *), row-aligned with p.

    ``!HPF$ ALIGN A(:, *) WITH p(:)`` -- each rank owns a block of rows.
    Each apply pays the all-to-all broadcast of ``p`` ("this would require
    an all-to-all broadcast of the local vector elements"), then computes
    its rows locally; "no communication is needed to rearrange the
    distribution of the results".
    """

    name = "dense_rowblock"

    def __init__(self, machine, matrix):
        super().__init__(machine, matrix)
        self._dist = Block(self.n, machine.nprocs)
        self.A = DistributedDenseMatrix(
            machine, self.matrix.toarray(), self._dist, axis=0, name="A"
        )

    def vector_distribution(self) -> Distribution:
        return self._dist

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        p_full = p.gather_to_all(tag=tag)  # the Scenario-1 broadcast
        for r in range(self.machine.nprocs):
            block = self.A.local_block(r)
            q.local(r)[:] = block @ p_full
            self.machine.charge_compute(r, 2.0 * block.size)

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """``y = A^T x``: local partial products merged by reduce-scatter.

        Row storage is "wrong-way" for the transpose: every rank produces a
        full-length partial vector that must be summed across ranks.
        """
        self._check_vectors(x, y)
        partials = []
        for r in range(self.machine.nprocs):
            block = self.A.local_block(r)
            partials.append(block.T @ x.local(r))
            self.machine.charge_compute(r, 2.0 * block.size)
        self.machine.charge_storage_all(float(self.n))  # transpose temporaries
        sum_private_copies(partials, y, tag=tag)

    def storage_words_per_rank(self) -> np.ndarray:
        return np.array(
            [self.A.local_block(r).size for r in range(self.machine.nprocs)],
            dtype=float,
        )


# ---------------------------------------------------------------------- #
# Scenario 2: dense, (*, BLOCK)
# ---------------------------------------------------------------------- #
class ColBlockDenseSerial(MatvecStrategy):
    """Scenario 2 (serial): dense A distributed (*, BLOCK), columns with p.

    ``!HPF$ ALIGN A(*, :) WITH p(:)``.  Element-wise multiplication is
    local, but the accumulations into ``q`` create "an inter-processor
    dependency.  Therefore the matrix-vector operation can not be performed
    in parallel and the following serial code is used" -- modelled as fully
    serialised compute plus per-column update messages to the owners of
    ``q``.
    """

    name = "dense_colblock_serial"

    def __init__(self, machine, matrix):
        super().__init__(machine, matrix)
        self._dist = Block(self.n, machine.nprocs)
        self.A = DistributedDenseMatrix(
            machine, self.matrix.toarray(), self._dist, axis=1, name="A"
        )

    def vector_distribution(self) -> Distribution:
        return self._dist

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        nprocs = self.machine.nprocs
        # numerics: per-rank column-block contribution
        total = np.zeros(self.n)
        flops = np.zeros(nprocs)
        for r in range(nprocs):
            block = self.A.local_block(r)
            total += block @ p.local(r)
            flops[r] = 2.0 * block.size
        self.machine.charge_serialized_compute(flops)
        # per-column update messages to remote q owners, serialised
        if nprocs > 1:
            chunk = self._dist.max_local_count()
            messages = self.n * (nprocs - 1)
            words = float(messages * chunk)
            time = messages * self.machine.cost.message_time(chunk)
            self.machine.charge_comm_interval("p2p", messages, words, time, tag)
        for r in range(nprocs):
            q.local(r)[:] = total[self._dist.local_indices_cached(r)]

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """``y = A^T x`` under column storage is the *easy* direction:
        gather x, then every rank computes its columns' inner products."""
        self._check_vectors(x, y)
        x_full = x.gather_to_all(tag=tag)
        for r in range(self.machine.nprocs):
            block = self.A.local_block(r)
            y.local(r)[:] = block.T @ x_full
            self.machine.charge_compute(r, 2.0 * block.size)

    def storage_words_per_rank(self) -> np.ndarray:
        return np.array(
            [self.A.local_block(r).size for r in range(self.machine.nprocs)],
            dtype=float,
        )


class ColBlockDenseTwoDimTemp(MatvecStrategy):
    """Scenario 2 parallelised with a permanent two-dimensional temporary.

    "We could simulate the same thing using two dimensional temporary local
    vectors in place of vector q in each processor.  At the end of the
    outer loop we use the HPF SUM intrinsic to generate the final vector."
    Each rank keeps a full-length private partial permanently ("keeping
    large vectors in each processor's memory permanently is costly"), so
    the compute parallelises and the merge is one SUM reduction.
    """

    name = "dense_colblock_2dtemp"

    def __init__(self, machine, matrix):
        super().__init__(machine, matrix)
        self._dist = Block(self.n, machine.nprocs)
        self.A = DistributedDenseMatrix(
            machine, self.matrix.toarray(), self._dist, axis=1, name="A"
        )
        # the permanent 2-D temporary: one n-vector per processor
        machine.charge_storage_all(float(self.n))

    def vector_distribution(self) -> Distribution:
        return self._dist

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        partials = []
        for r in range(self.machine.nprocs):
            block = self.A.local_block(r)
            partials.append(block @ p.local(r))
            self.machine.charge_compute(r, 2.0 * block.size)
        sum_private_copies(partials, q, tag=tag)

    apply_transpose = ColBlockDenseSerial.apply_transpose

    def storage_words_per_rank(self) -> np.ndarray:
        return np.array(
            [self.A.local_block(r).size + self.n for r in range(self.machine.nprocs)],
            dtype=float,
        )


# ---------------------------------------------------------------------- #
# Figure 2: CSR + FORALL
# ---------------------------------------------------------------------- #
class CsrForall(MatvecStrategy):
    """The Figure-2 HPF code: CSR trio with a FORALL over rows.

    ``row`` is distributed ``BLOCK((n+NP-1)/NP)`` (pointer fence on the
    last rank); ``col``/``a`` are ``BLOCK`` over the nonzero space, which
    generally does *not* match row ownership: "a processor that is
    responsible from a specific row may not have all the actual data
    elements (i.e., col and a) on that row.  Therefore, additional
    communication is needed to bring in those missing elements."

    With ``aligned=True`` the element arrays are redistributed by whole-row
    atoms (the Section 5.2.1 uniform atom distribution), eliminating that
    extra communication.
    """

    name = "csr_forall"

    def __init__(self, machine, matrix, aligned: bool = False):
        super().__init__(machine, matrix)
        self.csr: CSRMatrix = self.matrix.to_csr()
        self.binding = SparseMatrixBinding(machine, self.csr, name="smA")
        self.aligned = bool(aligned)
        if aligned:
            # initial layout choice, not runtime traffic
            self.binding.redistribute_atoms_uniform(charge=False)
            self.name = "csr_forall_aligned"
        self._dist = Block(self.n, machine.nprocs)
        self._row_ranges = [
            self._dist.local_range(r) for r in range(machine.nprocs)
        ]
        #: one kernel handle per rank over its rows (views of the CSR trio)
        self._blocks = [
            CompressedBlock(self.csr.indptr, self.csr.indices, self.csr.data, lo, hi)
            for lo, hi in self._row_ranges
        ]

    def vector_distribution(self) -> Distribution:
        return self._dist

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        p_full = p.gather_to_all(tag=tag)  # same broadcast as Scenario 1
        self.binding.charge_prefetch(tag=tag)  # CSR's extra communication
        for r, block in enumerate(self._blocks):
            q.local(r)[:] = block.matvec(p_full)
            self.machine.charge_compute(r, 2.0 * block.nnz)

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """``y = A^T x``: the row layout's wrong-way product.

        Becomes a scatter through ``col`` -- the CSC-shaped loop -- so each
        rank accumulates into a private full-length vector that is merged,
        on top of the element prefetch.  This is the cost the paper warns
        about: "any storage distribution optimisations made on the basis of
        row access vs. column access will be negated with the use of BiCG."
        """
        self._check_vectors(x, y)
        self.binding.charge_prefetch(tag=tag)
        region = PrivateRegion(self.machine, self.n, merge="+")
        for r, block in enumerate(self._blocks):
            # the private copy starts at zero, so assigning the kernel's
            # from-zero scatter is the accumulation
            region.local(r)[:] = block.rmatvec(x.local(r), self.n)
            self.machine.charge_compute(r, 2.0 * block.nnz)
        region.merge_into(y, tag=tag)

    def nonlocal_element_words(self) -> float:
        """Words of col/a entries fetched per apply (0 when aligned)."""
        return float(2 * self.binding.nonlocal_elements().sum())

    def storage_words_per_rank(self) -> np.ndarray:
        out = np.zeros(self.machine.nprocs)
        for r in range(self.machine.nprocs):
            out[r] = (
                self.binding.idx.local(r).size
                + self.binding.val.local(r).size
                + self.binding.ptr.local(r).size
            )
        return out


# ---------------------------------------------------------------------- #
# Section 5.1: CSC variants
# ---------------------------------------------------------------------- #
class CscSerial(MatvecStrategy):
    """The CSC scatter loop as HPF-1 must run it: serially.

    "As in the dense case, there are dependencies between j-iterations and
    no parallel loop execution is possible."  Compute is serialised and
    every remote ``q(row(k))`` update is a message to the owner.  The
    layout is fixed for the strategy's lifetime, so the per-rank flops and
    the update messages are counted once, at construction, and every apply
    only charges them.
    """

    name = "csc_serial"

    def __init__(self, machine, matrix):
        super().__init__(machine, matrix)
        self.csc: CSCMatrix = self.matrix.to_csc()
        self._dist = Block(self.n, machine.nprocs)
        #: the whole matrix: the serial loop is not cut by rank, and a
        #: column's dot product does not depend on where it would be cut
        self._block = CompressedBlock(
            self.csc.indptr, self.csc.indices, self.csc.data
        )
        nprocs = machine.nprocs
        cols = self._block.major
        col_owner = self._dist.owners(cols)
        #: serialised compute: 2 flops per nonzero, charged to its column's owner
        self._flops = np.array(
            [2.0 * float(np.count_nonzero(col_owner == r)) for r in range(nprocs)]
        )
        # one message per (column, remote q-owner) pair, one word per update
        row_owner = self._dist.owners(self._block.indices)
        remote = row_owner != col_owner
        self._p2p_messages = int(np.unique(
            cols[remote].astype(np.int64) * nprocs + row_owner[remote]
        ).size)
        self._p2p_words = float(np.count_nonzero(remote))

    def vector_distribution(self) -> Distribution:
        return self._dist

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        p_full = p.to_global()  # p(j) is local to column j's owner
        total = self._block.rmatvec(p_full, self.n)
        self.machine.charge_serialized_compute(self._flops)
        if self._p2p_messages:
            # the remote updates, serialised
            messages, words = self._p2p_messages, self._p2p_words
            time = float(
                messages * self.machine.cost.t_startup
                + words * self.machine.cost.t_comm
            )
            self.machine.charge_comm_interval("p2p", messages, words, time, tag)
        for r in range(self.machine.nprocs):
            q.local(r)[:] = total[self._dist.local_indices_cached(r)]

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """``y = A^T x`` under CSC is the easy gather direction."""
        self._check_vectors(x, y)
        x_full = x.gather_to_all(tag=tag)
        indptr = self.csc.indptr
        total = self._block.matvec(x_full)
        for r in range(self.machine.nprocs):
            lo, hi = self._dist.local_range(r)
            y.local(r)[:] = total[lo:hi]
            self.machine.charge_compute(r, 2.0 * (indptr[hi] - indptr[lo]))

    def storage_words_per_rank(self) -> np.ndarray:
        counts = Block(self.csc.nnz, self.machine.nprocs).counts().astype(float)
        ptr = Block(self.n + 1, self.machine.nprocs).counts().astype(float)
        return 2.0 * counts + ptr


class CscPrivateMerge(MatvecStrategy):
    """Section 5.1's extension: ON PROCESSOR + PRIVATE(q) WITH MERGE(+).

    Each processor executes a contiguous chunk of columns (the paper's
    ``ITERATION j ON PROCESSOR(j/np)``), accumulating into its private copy
    of ``q``; the copies are merged by the runtime SUM reduction at region
    end (Figure 5).  ``p(j)`` is already local to column ``j``'s owner, so
    -- unlike the row-wise Scenario 1 -- *no broadcast of p is needed*.

    With ``balanced=True`` the column chunks come from
    ``CG_BALANCED_PARTITIONER_1`` over per-column nonzero counts
    (Section 5.2.2), and the vectors adopt the matching irregular-block
    distribution so locality is preserved.
    """

    name = "csc_private"

    def __init__(self, machine, matrix, balanced: bool = False):
        super().__init__(machine, matrix)
        self.csc: CSCMatrix = self.matrix.to_csc()
        self.balanced = bool(balanced)
        nprocs = machine.nprocs
        if balanced:
            weights = self.csc.col_lengths().astype(float)
            self.column_cuts = cg_balanced_partitioner_1(weights, nprocs)
            self._dist: Distribution = IrregularBlock(self.column_cuts, nprocs)
            self.name = "csc_private_balanced"
        else:
            block = Block(self.n, nprocs)
            self.column_cuts = block.boundaries()
            self._dist = block
        self.mapping = OnProcessor.from_boundaries(self.column_cuts)
        #: one kernel handle per rank over its column chunk (views)
        self._blocks = [
            CompressedBlock(
                self.csc.indptr, self.csc.indices, self.csc.data,
                int(self.column_cuts[r]), int(self.column_cuts[r + 1]),
            )
            for r in range(nprocs)
        ]

    def vector_distribution(self) -> Distribution:
        return self._dist

    def _col_nnz(self, rank: int) -> int:
        return self._blocks[rank].nnz

    def apply(self, p: DistributedArray, q: DistributedArray, tag: str = "matvec") -> None:
        self._check_vectors(p, q)
        region = PrivateRegion(self.machine, self.n, merge="+")
        for r, block in enumerate(self._blocks):
            # p(j) for the rank's own columns: local reads only; the private
            # copy starts at zero, so the from-zero scatter is assigned
            region.local(r)[:] = block.rmatvec(p.local(r), self.n)
            self.machine.charge_compute(r, 2.0 * block.nnz)
        region.merge_into(q, tag=tag)

    def apply_transpose(
        self, x: DistributedArray, y: DistributedArray, tag: str = "matvec_T"
    ) -> None:
        """``y = A^T x``: gather x, per-column dot products, all local writes."""
        self._check_vectors(x, y)
        x_full = x.gather_to_all(tag=tag)
        for r, block in enumerate(self._blocks):
            y.local(r)[:] = block.matvec(x_full)
            self.machine.charge_compute(r, 2.0 * block.nnz)

    def per_rank_nnz(self) -> np.ndarray:
        """Nonzeros (work) per rank -- the load-balance diagnostic."""
        return np.array(
            [self._col_nnz(r) for r in range(self.machine.nprocs)], dtype=float
        )

    def storage_words_per_rank(self) -> np.ndarray:
        out = np.zeros(self.machine.nprocs)
        for r in range(self.machine.nprocs):
            out[r] = 2.0 * self._col_nnz(r) + (
                self.column_cuts[r + 1] - self.column_cuts[r] + 1
            )
        return out


def make_strategy(name: str, machine, matrix, **kwargs) -> MatvecStrategy:
    """Build a strategy by its table name."""
    from .checkerboard import DenseCheckerboard
    from .halo import CsrHalo

    registry = {
        "dense_checkerboard": lambda: DenseCheckerboard(machine, matrix),
        "dense_rowblock": lambda: RowBlockDense(machine, matrix),
        "csr_halo": lambda: CsrHalo(machine, matrix),
        "dense_colblock_serial": lambda: ColBlockDenseSerial(machine, matrix),
        "dense_colblock_2dtemp": lambda: ColBlockDenseTwoDimTemp(machine, matrix),
        "csr_forall": lambda: CsrForall(machine, matrix, **kwargs),
        "csr_forall_aligned": lambda: CsrForall(machine, matrix, aligned=True),
        "csc_serial": lambda: CscSerial(machine, matrix),
        "csc_private": lambda: CscPrivateMerge(machine, matrix, **kwargs),
        "csc_private_balanced": lambda: CscPrivateMerge(machine, matrix, balanced=True),
    }
    try:
        return registry[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(registry)}"
        ) from None
