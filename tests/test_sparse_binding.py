"""Tests for the SPARSE_MATRIX trio binding (Section 5.2)."""

import numpy as np
import pytest

from repro.extensions import SparseMatrixBinding
from repro.hpf import Block, Cyclic
from repro.hpf.errors import DirectiveSemanticError, DistributionError
from repro.machine import Machine
from repro.sparse import figure1_matrix, irregular_powerlaw, poisson2d


@pytest.fixture
def binding(machine4):
    return SparseMatrixBinding(machine4, figure1_matrix(), name="smA")


class TestConstruction:
    def test_csr_format_detected(self, binding):
        assert binding.fmt == "CSR"
        assert binding.n == 6
        assert binding.nnz == 15

    def test_csc_format_detected(self, machine4):
        b = SparseMatrixBinding(machine4, figure1_matrix().to_csc())
        assert b.fmt == "CSC"

    def test_other_formats_rejected(self, machine4):
        with pytest.raises(DirectiveSemanticError):
            SparseMatrixBinding(machine4, figure1_matrix().to_coo())

    def test_pointer_fence_on_last_rank(self, binding):
        """The (n+1)-th element of row is placed in the last processor."""
        assert binding.ptr.distribution.owner(6) == 3

    def test_val_aligned_with_idx(self, binding):
        assert binding.val.distribution.same_mapping(binding.idx.distribution)
        assert binding.val.group is binding.idx.group


class TestTightBinding:
    def test_element_redistribution_moves_both(self, binding):
        binding.redistribute_elements(Cyclic(15, 4))
        assert isinstance(binding.idx.distribution, Cyclic)
        assert isinstance(binding.val.distribution, Cyclic)
        # data is intact
        assert np.allclose(
            binding.val.to_global(), figure1_matrix().data.astype(float)
        )

    def test_extent_checked(self, binding):
        with pytest.raises(DistributionError):
            binding.redistribute_elements(Cyclic(10, 4))


class TestNonlocalElements:
    def test_default_block_layout_has_nonlocal_elements(self, binding):
        """Figure 2's layout: col/a BLOCK over nz does not match row owners."""
        assert binding.nonlocal_elements().sum() > 0

    def test_atom_redistribution_eliminates_them(self, binding):
        binding.redistribute_atoms_uniform()
        assert binding.nonlocal_elements().sum() == 0

    def test_balanced_redistribution_eliminates_them(self, binding):
        binding.redistribute_atoms_balanced()
        assert binding.nonlocal_elements().sum() == 0

    def test_prefetch_charges_when_nonlocal(self, machine4):
        b = SparseMatrixBinding(machine4, figure1_matrix())
        t = b.charge_prefetch()
        assert t > 0
        assert "prefetch" in machine4.stats.by_op()

    def test_prefetch_free_when_aligned(self, machine4):
        b = SparseMatrixBinding(machine4, figure1_matrix())
        b.redistribute_atoms_uniform(charge=False)
        assert b.charge_prefetch() == 0.0


class TestBalancedPartitioning:
    def test_balanced_cuts_reduce_nnz_imbalance(self):
        m = Machine(nprocs=8)
        A = irregular_powerlaw(300, seed=5).to_csr()
        b = SparseMatrixBinding(m, A)
        from repro.extensions import imbalance

        weights = np.diff(A.indptr).astype(float)
        uniform_cuts = b.redistribute_atoms_uniform(charge=False)
        uni = imbalance(weights, uniform_cuts)
        balanced_cuts = b.redistribute_atoms_balanced(charge=False)
        bal = imbalance(weights, balanced_cuts)
        assert bal <= uni

    def test_apply_partitioner_by_name(self, binding):
        cuts = binding.apply_partitioner("CG_BALANCED_PARTITIONER_1")
        assert cuts[-1] == 6

    def test_apply_partitioner_uniform_alias(self, binding):
        cuts = binding.apply_partitioner("ATOM_BLOCK")
        assert cuts[-1] == 6

    def test_unknown_partitioner(self, binding):
        with pytest.raises(DirectiveSemanticError):
            binding.apply_partitioner("MAGIC")

    def test_redistribution_charged_by_default(self):
        m = Machine(nprocs=4)
        b = SparseMatrixBinding(m, poisson2d(5, 5).to_csr())
        before = m.stats.snapshot()
        b.redistribute_atoms_balanced()
        assert before.since(m.stats).words > 0


class TestPointerConsistencyAfterAtoms:
    def test_each_rank_can_walk_its_rows_locally(self, binding):
        cuts = binding.redistribute_atoms_uniform()
        # rank r owns pointer entries for its atom range
        for r in range(4):
            lo, hi = int(cuts[r]), int(cuts[r + 1])
            local_ptr = binding.ptr.local(r)
            expected = figure1_matrix().indptr[lo:hi].astype(float)
            if r == 3:
                expected = figure1_matrix().indptr[lo:].astype(float)
            assert np.allclose(local_ptr, expected)


def _elements_cyclic(b, initial):
    b.redistribute_elements(Cyclic(b.nnz, 4))


#: every way the trio's layout can change between two prefetch charges, as
#: steps ``(binding, initial element distribution) -> None``
LAYOUT_CHANGES = {
    "elements_cyclic": [_elements_cyclic],
    "atoms_uniform": [lambda b, _: b.redistribute_atoms_uniform()],
    "atoms_balanced": [lambda b, _: b.redistribute_atoms_balanced()],
    "partitioner": [
        lambda b, _: b.apply_partitioner("CG_BALANCED_PARTITIONER_1")
    ],
    "val_cascades_to_idx": [lambda b, _: b.val.redistribute(Cyclic(b.nnz, 4))],
    "ptr_direct": [lambda b, _: b.ptr.redistribute(Cyclic(b.n + 1, 4))],
    "back_to_original_object": [
        _elements_cyclic,
        lambda b, initial: b.redistribute_elements(initial),
    ],
}


class TestPrefetchPlan:
    """The per-layout plan is rebuilt whenever the layout changes."""

    @staticmethod
    def _matrix():
        return irregular_powerlaw(200, seed=5).to_csr()

    @staticmethod
    def _charge(binding):
        """One prefetch on zeroed clocks: its full accounting."""
        m = binding.machine
        m.reset()
        t = binding.charge_prefetch(tag="probe")
        return (
            t,
            m.elapsed(),
            m.stats.total_messages,
            m.stats.total_words,
            list(m.stats.comm_records),
            binding.nonlocal_elements().tolist(),
        )

    @staticmethod
    def _fresh_like(binding):
        """A new binding, on a new machine, built with ``binding``'s layout."""
        fresh = SparseMatrixBinding(
            Machine(nprocs=4), binding.matrix, elem_dist=binding.elem_dist
        )
        fresh.ptr.redistribute(binding.ptr.distribution, charge=False)
        return fresh

    @pytest.mark.parametrize("change", sorted(LAYOUT_CHANGES))
    def test_charge_follows_layout_change(self, change):
        b = SparseMatrixBinding(Machine(nprocs=4), self._matrix())
        initial = b.elem_dist
        for step in LAYOUT_CHANGES[change]:
            stale = self._charge(b)  # builds the plan of the current layout
            step(b, initial)
        self._charge(b)  # a stale plan would be reused here
        after = self._charge(b)
        assert after == self._charge(self._fresh_like(b))
        assert after != stale  # the change is visible in the charge

    def test_val_redistribute_moves_idx(self):
        b = SparseMatrixBinding(Machine(nprocs=4), self._matrix())
        b.val.redistribute(Cyclic(b.nnz, 4))
        assert isinstance(b.idx.distribution, Cyclic)

    def test_returned_counts_do_not_alias_the_plan(self):
        b = SparseMatrixBinding(Machine(nprocs=4), self._matrix())
        before = self._charge(b)
        counts = b.nonlocal_elements()
        counts[:] = 0
        assert self._charge(b) == before
        assert b.nonlocal_elements().tolist() == before[-1]
