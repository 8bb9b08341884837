"""Edge-case tests for alignment groups and the aligned() predicate."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import hpf_cg, make_strategy
from repro.hpf import (
    AlignmentError,
    AlignmentGroup,
    Block,
    Cyclic,
    DistributedArray,
    IrregularBlock,
    aligned,
)
from repro.machine import Machine
from repro.sparse import poisson2d

#: every table name ``make_strategy`` accepts
STRATEGIES = [
    "dense_checkerboard",
    "dense_rowblock",
    "csr_halo",
    "dense_colblock_serial",
    "dense_colblock_2dtemp",
    "csr_forall",
    "csr_forall_aligned",
    "csc_serial",
    "csc_private",
    "csc_private_balanced",
]


class TestAlignmentGroupEdges:
    def test_add_is_idempotent(self, machine4):
        p = DistributedArray(machine4, 8, name="p")
        q = DistributedArray(machine4, 8, name="q").align_with(p)
        q.align_with(p)  # again
        assert len(p.group) == 2

    def test_names(self, machine4):
        p = DistributedArray(machine4, 8, name="p")
        DistributedArray(machine4, 8, name="q").align_with(p)
        assert p.group.names() == ["p", "q"]

    def test_contains(self, machine4):
        p = DistributedArray(machine4, 8, name="p")
        q = DistributedArray(machine4, 8, name="q").align_with(p)
        other = DistributedArray(machine4, 8, name="o")
        assert q in p.group
        assert other not in p.group

    def test_alignee_with_different_layout_is_moved(self, machine4, rng):
        """Joining a group relays the newcomer onto the target's layout."""
        values = rng.standard_normal(8)
        p = DistributedArray(machine4, 8, Cyclic(8, 4), name="p")
        q = DistributedArray.from_global(machine4, values, Block(8, 4), name="q")
        q.align_with(p)
        assert q.distribution.same_mapping(p.distribution)
        assert np.allclose(q.to_global(), values)

    def test_group_redistribute_uncharged_option(self, machine4):
        p = DistributedArray(machine4, 8, name="p")
        DistributedArray(machine4, 8, name="q").align_with(p)
        before = machine4.stats.snapshot()
        p.group.redistribute(Cyclic(8, 4), charge=False)
        assert before.since(machine4.stats).words == 0

    def test_new_aligned_helper(self, machine4):
        p = DistributedArray(machine4, 8, Cyclic(8, 4), name="p")
        w = p.new_aligned("w", fill=5.0)
        assert w.distribution.same_mapping(p.distribution)
        assert (w.to_global() == 5.0).all()
        assert w in p.group


class TestOwnership:
    """Groups own their members one way: arrays free by reference counting."""

    @pytest.fixture
    def no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_dropped_strategy_and_solve_leave_no_cycles(self, name, no_cyclic_gc):
        machine = Machine(4, "hypercube")
        A = poisson2d(6, 6).to_csr()
        b = np.ones(A.nrows)
        hpf_cg(make_strategy(name, machine, A), b)  # warm-up: imports, caches
        gc.collect()
        strategy = make_strategy(name, machine, A)
        binding = getattr(strategy, "binding", None)
        idx = None if binding is None else weakref.ref(binding.idx)
        del strategy, binding
        assert idx is None or idx() is None  # freed by reference counting
        assert gc.collect() == 0
        strategy = make_strategy(name, machine, A)
        gc.collect()
        hpf_cg(strategy, b)  # drops its b, x, r, p, q on return
        assert gc.collect() == 0

    def test_target_death_ungroups_a_live_member(self, machine4, rng):
        values = rng.standard_normal(8)
        p = DistributedArray(machine4, 8, Cyclic(8, 4), name="p")
        q = DistributedArray.from_global(machine4, values, name="q").align_with(p)
        layout = q.distribution
        target = weakref.ref(p)
        del p
        assert target() is None
        assert q.group is None
        assert q.distribution is layout
        assert np.array_equal(q.to_global(), values)
        q.redistribute(Block(8, 4))  # now moves alone
        assert np.array_equal(q.to_global(), values)

    def test_group_keeps_unreferenced_member_while_target_lives(self, machine4):
        p = DistributedArray(machine4, 8, name="p")
        member = weakref.ref(DistributedArray(machine4, 8, name="q").align_with(p))
        assert member() is not None and member() in p.group
        p.redistribute(Cyclic(8, 4))
        assert isinstance(member().distribution, Cyclic)
        del p
        assert member() is None


class TestAlignedPredicateEdges:
    def test_single_and_empty(self, machine4):
        p = DistributedArray(machine4, 8)
        assert aligned(p)
        assert aligned()

    def test_irregular_matching_block_counts_as_aligned(self, machine4):
        p = DistributedArray(machine4, 8, Block(8, 4))
        q = DistributedArray(machine4, 8, IrregularBlock([0, 2, 4, 6, 8]))
        assert aligned(p, q)

    def test_extent_mismatch_not_aligned(self, machine4):
        assert not aligned(
            DistributedArray(machine4, 8), DistributedArray(machine4, 9)
        )
