"""The proposed ``SPARSE_MATRIX`` directive: binding the (ptr, idx, val) trio.

::

    !HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)

"A sparse matrix definition puts a tight binding between the members of
this trio, whenever any one's distribution is changed, the other two should
be aligned accordingly.  Furthermore, if an element of row is to be
accessed, most probably the elements it points to in col and a will be also
accessed, therefore compiler should generate code for bringing them into
memory if they are not local.  In short, the compiler can exploit the
locality rule by knowing the relation among the members of the trio."

:class:`SparseMatrixBinding` is that runtime object: it holds the three
distributed arrays, keeps ``idx``/``val`` permanently aligned, derives the
:class:`~repro.extensions.atoms.IndivisableSpec` (one atom per row/column),
and implements the atom redistributions including ``REDISTRIBUTE smA USING
CG_BALANCED_PARTITIONER_1``.

The locality inspection behind the prefetch charge is a per-layout plan,
the inspector--executor split of the paper's ref [20]: it runs on first use
and again only once ``ptr`` or ``idx`` holds a different distribution
object, so every apply between two REDISTRIBUTEs only charges.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..hpf.array import DistributedArray
from ..hpf.distribution import BlockK, Distribution, IrregularBlock
from ..hpf.errors import DirectiveSemanticError, DistributionError
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from .atom_dist import atom_block, atom_block_balanced
from .atoms import IndivisableSpec

__all__ = ["SparseMatrixBinding"]


class _PrefetchPlan(NamedTuple):
    """The element prefetch of one (pointer, element) layout pair."""

    #: the layouts inspected, held by reference: a REDISTRIBUTE installs a
    #: new distribution object, which is what retires the plan
    ptr_dist: Distribution
    elem_dist: Distribution
    #: per-rank count of element entries its atoms need but do not own
    #: (read-only)
    counts: np.ndarray
    #: distinct (needer, owner) rank pairs -- one message each
    messages: int
    #: ranks that fetch anything
    participants: Tuple[int, ...]


class SparseMatrixBinding:
    """Runtime binding of a sparse matrix's three arrays.

    Parameters
    ----------
    machine:
        Simulated multicomputer.
    matrix:
        A :class:`CSRMatrix` or :class:`CSCMatrix`; the format decides
        whether atoms are rows (CSR) or columns (CSC).
    name:
        The directive's matrix name (``smA``).
    elem_dist:
        Initial distribution of the element arrays (default HPF ``BLOCK``
        over the ``nnz`` space -- the "initially distributed using HPF's
        regular distribution primitives" state, before runtime
        redistribution).
    """

    def __init__(
        self,
        machine,
        matrix,
        name: str = "smA",
        elem_dist: Optional[Distribution] = None,
    ):
        if isinstance(matrix, CSRMatrix):
            self.fmt = "CSR"
        elif isinstance(matrix, CSCMatrix):
            self.fmt = "CSC"
        else:
            raise DirectiveSemanticError(
                "SPARSE_MATRIX binds CSR or CSC matrices, got "
                f"{type(matrix).__name__}"
            )
        self.machine = machine
        self.matrix = matrix
        self.name = name
        n_ptr = matrix.indptr.size  # n + 1
        nnz = matrix.nnz
        # the paper's pointer distribution: BLOCK((n+NP-1)/NP) with the
        # (n+1)-th element clamped onto the last processor
        n = n_ptr - 1
        k = max(1, -(-n // machine.nprocs)) if n else 1
        self.ptr = DistributedArray.from_global(
            machine,
            matrix.indptr.astype(np.float64),
            BlockK(n_ptr, machine.nprocs, k, clamp=True),
            name=f"{name}.ptr",
        )
        if elem_dist is None:
            from ..hpf.distribution import Block

            elem_dist = Block(nnz, machine.nprocs)
        self.idx = DistributedArray.from_global(
            machine,
            matrix.indices.astype(np.float64),
            elem_dist,
            name=f"{name}.idx",
        )
        # ALIGN a(:) WITH col(:) -- values ride with the index array
        self.val = DistributedArray.from_global(
            machine, matrix.data, elem_dist, name=f"{name}.val"
        )
        self.val.align_with(self.idx)
        self.atom_cuts: Optional[np.ndarray] = None
        self._plan: Optional[_PrefetchPlan] = None

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of atoms (rows for CSR, columns for CSC)."""
        return self.ptr.n - 1

    @property
    def nnz(self) -> int:
        return self.idx.n

    @property
    def elem_dist(self) -> Distribution:
        return self.idx.distribution

    def indivisable_spec(self) -> IndivisableSpec:
        """``INDIVISABLE idx(ATOM:i) :: ptr(i:i+1)`` for this trio."""
        kind = "row" if self.fmt == "CSR" else "col"
        return IndivisableSpec(
            self.matrix.indptr,
            array_name=f"{self.name}.idx",
            pointer_name=f"{self.name}.{kind}",
        )

    # ------------------------------------------------------------------ #
    # tight-binding redistribution
    # ------------------------------------------------------------------ #
    def redistribute_elements(
        self, new_dist: Distribution, charge: bool = True
    ) -> None:
        """Move ``idx`` and ``val`` together (they are one alignment group)."""
        if new_dist.n != self.nnz:
            raise DistributionError(
                f"element distribution extent {new_dist.n} != nnz {self.nnz}"
            )
        self.idx.redistribute(new_dist, charge=charge)

    def _redistribute_ptr_for_atoms(self, atom_cuts: np.ndarray, charge: bool) -> None:
        """Align the pointer array with an atom partition.

        Rank ``r`` holds pointer entries ``atom_cuts[r] : atom_cuts[r+1]``
        (plus the final fence on the last rank), so each rank can walk its
        own atoms locally.
        """
        bounds = atom_cuts.astype(np.int64).copy()
        bounds[-1] = self.ptr.n  # the n+1-th fence rides with the last rank
        self.ptr.redistribute(IrregularBlock(bounds, self.machine.nprocs), charge=charge)

    def redistribute_atoms_uniform(self, charge: bool = True) -> np.ndarray:
        """``REDISTRIBUTE idx(ATOM: BLOCK)``: even atom counts per rank."""
        dist, atom_cuts = atom_block(self.indivisable_spec(), self.machine.nprocs)
        self.redistribute_elements(dist, charge=charge)
        self._redistribute_ptr_for_atoms(atom_cuts, charge=charge)
        self.atom_cuts = atom_cuts
        return atom_cuts

    def redistribute_atoms_balanced(
        self, weights: Optional[np.ndarray] = None, charge: bool = True
    ) -> np.ndarray:
        """``REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1``.

        Atoms are chunked contiguously so per-rank nonzero counts are as
        even as possible; the element arrays and the pointer array follow
        ("the compiler ... redistributes the elements of dependent vectors
        accordingly later").
        """
        dist, atom_cuts = atom_block_balanced(
            self.indivisable_spec(), self.machine.nprocs, weights
        )
        self.redistribute_elements(dist, charge=charge)
        self._redistribute_ptr_for_atoms(atom_cuts, charge=charge)
        self.atom_cuts = atom_cuts
        return atom_cuts

    def apply_partitioner(self, partitioner: str, charge: bool = True) -> np.ndarray:
        """Dispatch a ``REDISTRIBUTE ... USING <name>`` directive."""
        key = partitioner.upper()
        if key in ("CG_BALANCED_PARTITIONER_1", "CG_BALANCED_PARTITIONER"):
            return self.redistribute_atoms_balanced(charge=charge)
        if key in ("ATOM_BLOCK", "UNIFORM"):
            return self.redistribute_atoms_uniform(charge=charge)
        raise DirectiveSemanticError(f"unknown partitioner {partitioner!r}")

    # ------------------------------------------------------------------ #
    # locality queries
    # ------------------------------------------------------------------ #
    def atom_owner_of_rows(self) -> np.ndarray:
        """Owning rank of each atom (row/column) under the pointer layout."""
        # atom i is owned by the owner of pointer element i
        return self.ptr.distribution.owners(np.arange(self.n, dtype=np.int64))

    def _prefetch_plan(self) -> _PrefetchPlan:
        """The locality inspection of the current layout, built on first use.

        The plan is rebuilt when ``ptr`` or ``idx`` holds a different
        distribution object from the one it was built for.  That one rule
        covers every layout change -- the ``redistribute_*`` methods and a
        direct ``redistribute`` of any trio member (``val`` cascades to
        ``idx`` through their alignment group) -- so there is no
        invalidation call to forget.
        """
        plan = self._plan
        if (
            plan is None
            or plan.ptr_dist is not self.ptr.distribution
            or plan.elem_dist is not self.elem_dist
        ):
            plan = self._plan = self._inspect()
        return plan

    def _inspect(self) -> _PrefetchPlan:
        """Compare every element's owner with the owner of its atom."""
        nprocs = self.machine.nprocs
        counts = np.zeros(nprocs, dtype=np.int64)
        messages = 0
        if self.nnz:
            elements = np.arange(self.nnz, dtype=np.int64)
            elem_owner = self.elem_dist.owners(elements)
            elem_atoms = self.indivisable_spec().atom_of_element(elements)
            # rank that computes with element k
            needed_by = self.atom_owner_of_rows()[elem_atoms]
            nonlocal_mask = needed_by != elem_owner
            np.add.at(counts, needed_by[nonlocal_mask], 1)
            messages = int(np.unique(
                needed_by[nonlocal_mask] * nprocs + elem_owner[nonlocal_mask]
            ).size)
        counts.setflags(write=False)
        return _PrefetchPlan(
            self.ptr.distribution, self.elem_dist, counts, messages,
            tuple(np.nonzero(counts)[0].tolist()),
        )

    def nonlocal_elements(self) -> np.ndarray:
        """Per-rank count of element entries its atoms need but does not own.

        "a processor that is responsible from a specific row may not have
        all the actual data elements (i.e., col and a) on that row.
        Therefore, additional communication is needed to bring in those
        missing elements."  This is the quantity benchmark E7 measures.
        Read from the layout's prefetch plan; the result is a fresh copy.
        """
        return self._prefetch_plan().counts.copy()

    def charge_prefetch(self, tag: str = "prefetch") -> float:
        """Charge the machine for fetching all non-local atom elements.

        Models the directive's locality rule: the compiler knows the trio
        relation and prefetches ``col``/``a`` entries for each locally
        owned ``row`` entry in bulk (index + value words per element, one
        message per source rank).  The counts come from the layout's
        prefetch plan, inspected once per layout, so an apply only charges.
        """
        plan = self._prefetch_plan()
        total_words = float(2 * plan.counts.sum())  # an index word + a value word
        if total_words == 0:
            return 0.0
        nprocs = self.machine.nprocs
        cost = self.machine.cost
        per_rank_words = 2.0 * plan.counts.astype(float)
        time = float(
            (per_rank_words * cost.t_comm).max()
            + cost.t_startup * max(1, int(np.ceil(plan.messages / nprocs)))
        )
        self.machine.charge_comm_interval(
            "prefetch", plan.messages, total_words, time, tag,
            participants=plan.participants,
        )
        return time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseMatrixBinding({self.fmt}, name={self.name!r}, n={self.n}, "
            f"nnz={self.nnz})"
        )
