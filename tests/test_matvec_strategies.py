"""Tests for the distributed mat-vec strategies (Sections 4 and 5)."""

import numpy as np
import pytest

from repro.core import make_strategy
from repro.core.matvec import (
    ColBlockDenseSerial,
    ColBlockDenseTwoDimTemp,
    CscPrivateMerge,
    CscSerial,
    CsrForall,
    RowBlockDense,
)
from repro.extensions.atoms import IndivisableSpec
from repro.hpf import AlignmentError, Block, DistributedArray, IrregularBlock
from repro.machine import Machine
from repro.sparse import figure1_matrix, irregular_powerlaw, poisson2d

ALL_NAMES = [
    "dense_rowblock",
    "dense_colblock_serial",
    "dense_colblock_2dtemp",
    "csr_forall",
    "csr_forall_aligned",
    "csc_serial",
    "csc_private",
    "csc_private_balanced",
]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("nprocs,topology", [(1, "hypercube"), (3, "ring"), (4, "hypercube"), (8, "hypercube")])
class TestNumericalEquivalence:
    def test_forward_product(self, name, nprocs, topology, spd_small, rng):
        m = Machine(nprocs=nprocs, topology=topology)
        strat = make_strategy(name, m, spd_small)
        pv = rng.standard_normal(spd_small.nrows)
        p = strat.make_vector("p", pv)
        q = strat.make_vector("q")
        strat.apply(p, q)
        assert np.allclose(q.to_global(), spd_small.matvec(pv))

    def test_transpose_product(self, name, nprocs, topology, spd_small, rng):
        m = Machine(nprocs=nprocs, topology=topology)
        strat = make_strategy(name, m, spd_small)
        xv = rng.standard_normal(spd_small.nrows)
        x = strat.make_vector("x", xv)
        y = strat.make_vector("y")
        strat.apply_transpose(x, y)
        assert np.allclose(y.to_global(), spd_small.rmatvec(xv))


class TestStrategyValidation:
    def test_square_required(self, machine4, rng):
        from repro.sparse import COOMatrix

        rect = COOMatrix([0], [1], [1.0], shape=(2, 3))
        with pytest.raises(ValueError):
            RowBlockDense(machine4, rect)

    def test_foreign_vector_rejected(self, machine4, spd_small):
        strat = make_strategy("csr_forall", machine4, spd_small)
        from repro.hpf import Cyclic

        bad = DistributedArray(machine4, spd_small.nrows, Cyclic(spd_small.nrows, 4))
        good = strat.make_vector("q")
        with pytest.raises(AlignmentError):
            strat.apply(bad, good)

    def test_unknown_name(self, machine4, spd_small):
        with pytest.raises(ValueError):
            make_strategy("nonsense", machine4, spd_small)


class TestScenario1RowBlock:
    def test_apply_charges_allgather(self, spd_small, rng):
        m = Machine(nprocs=4)
        strat = RowBlockDense(m, spd_small)
        p = strat.make_vector("p", rng.standard_normal(36))
        q = strat.make_vector("q")
        before = m.stats.snapshot()
        strat.apply(p, q)
        delta = before.since(m.stats)
        ops = m.stats.by_op()
        assert "allgather" in ops
        assert delta.flops == pytest.approx(2.0 * 36 * 36)

    def test_no_result_rearrangement(self, spd_small, rng):
        """Scenario 1: q blocks are owned where produced -- no extra comm."""
        m = Machine(nprocs=4)
        strat = RowBlockDense(m, spd_small)
        p = strat.make_vector("p", rng.standard_normal(36))
        q = strat.make_vector("q")
        strat.apply(p, q)
        ops = m.stats.by_op()
        assert set(ops) == {"allgather"}

    def test_storage_is_rows_times_n(self, spd_small):
        m = Machine(nprocs=4)
        strat = RowBlockDense(m, spd_small)
        assert strat.storage_words_per_rank().tolist() == [9 * 36] * 4


class TestScenario2ColBlock:
    def test_serial_is_slower_than_rowblock(self, spd_small, rng):
        """Figure 4's point: the serial column-wise loop loses badly."""
        pv = rng.standard_normal(36)
        m1 = Machine(nprocs=4)
        s1 = RowBlockDense(m1, spd_small)
        p1, q1 = s1.make_vector("p", pv), s1.make_vector("q")
        s1.apply(p1, q1)
        m2 = Machine(nprocs=4)
        s2 = ColBlockDenseSerial(m2, spd_small)
        p2, q2 = s2.make_vector("p", pv), s2.make_vector("q")
        s2.apply(p2, q2)
        assert m2.elapsed() > m1.elapsed()

    def test_two_dim_temp_restores_parallelism(self, spd_small, rng):
        pv = rng.standard_normal(36)
        m_serial = Machine(nprocs=4)
        s = ColBlockDenseSerial(m_serial, spd_small)
        s.apply(s.make_vector("p", pv), s.make_vector("q"))
        m_temp = Machine(nprocs=4)
        t = ColBlockDenseTwoDimTemp(m_temp, spd_small)
        t.apply(t.make_vector("p", pv), t.make_vector("q"))
        assert m_temp.elapsed() < m_serial.elapsed()

    def test_two_dim_temp_charges_permanent_storage(self, spd_small):
        m = Machine(nprocs=4)
        t = ColBlockDenseTwoDimTemp(m, spd_small)
        # matrix block + the permanent n-vector temp
        assert t.storage_words_per_rank().tolist() == [9 * 36 + 36] * 4

    def test_transpose_is_cheap_direction(self, spd_small, rng):
        """Column storage makes A^T x the easy product (gather + local)."""
        m = Machine(nprocs=4)
        s = ColBlockDenseSerial(m, spd_small)
        x = s.make_vector("x", rng.standard_normal(36))
        y = s.make_vector("y")
        before = m.stats.snapshot()
        s.apply_transpose(x, y)
        ops = m.stats.by_op()
        assert "allgather" in ops and "p2p" not in ops


class TestCsrForall:
    def test_unaligned_pays_prefetch(self, spd_small, rng):
        m = Machine(nprocs=4)
        strat = CsrForall(m, spd_small, aligned=False)
        assert strat.nonlocal_element_words() > 0
        p = strat.make_vector("p", rng.standard_normal(36))
        q = strat.make_vector("q")
        strat.apply(p, q)
        assert "prefetch" in m.stats.by_op()

    def test_aligned_eliminates_prefetch(self, spd_small, rng):
        m = Machine(nprocs=4)
        strat = CsrForall(m, spd_small, aligned=True)
        assert strat.nonlocal_element_words() == 0
        p = strat.make_vector("p", rng.standard_normal(36))
        q = strat.make_vector("q")
        strat.apply(p, q)
        assert "prefetch" not in m.stats.by_op()

    def test_aligned_apply_is_cheaper(self, spd_small, rng):
        pv = rng.standard_normal(36)
        m1, m2 = Machine(nprocs=4), Machine(nprocs=4)
        s1 = CsrForall(m1, spd_small, aligned=False)
        s2 = CsrForall(m2, spd_small, aligned=True)
        s1.apply(s1.make_vector("p", pv), s1.make_vector("q"))
        s2.apply(s2.make_vector("p", pv), s2.make_vector("q"))
        assert m2.elapsed() < m1.elapsed()

    def test_transpose_uses_private_merge(self, spd_small, rng):
        m = Machine(nprocs=4)
        strat = CsrForall(m, spd_small, aligned=True)
        x = strat.make_vector("x", rng.standard_normal(36))
        y = strat.make_vector("y")
        strat.apply_transpose(x, y)
        assert "reduce_scatter" in m.stats.by_op()


class TestNoInspectionPerApply:
    """The layout is inspected at most once: later applies only charge."""

    @staticmethod
    def _spy(calls, real):
        def spy(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return spy

    @staticmethod
    def _apply_five_times_each_way(strat, rng):
        p = strat.make_vector("p", rng.standard_normal(strat.n))
        q = strat.make_vector("q")
        for _ in range(5):
            strat.apply(p, q)
            strat.apply_transpose(p, q)

    @pytest.mark.parametrize("name", ["csr_forall", "csr_forall_aligned"])
    def test_csr_forall_charges_from_its_plan(self, name, monkeypatch, rng):
        A = irregular_powerlaw(120, seed=4)
        strat = make_strategy(name, Machine(nprocs=4), A)
        calls = []
        monkeypatch.setattr(
            IndivisableSpec, "atom_of_element",
            self._spy(calls, IndivisableSpec.atom_of_element),
        )
        p = strat.make_vector("p", rng.standard_normal(120))
        strat.apply(p, strat.make_vector("q"))  # may build the plan
        calls.clear()
        self._apply_five_times_each_way(strat, rng)
        assert calls == []

    def test_csc_serial_counts_at_construction(self, monkeypatch, rng):
        A = irregular_powerlaw(120, seed=4)
        strat = CscSerial(Machine(nprocs=4), A)
        calls = []
        monkeypatch.setattr(strat._dist, "owners", self._spy(calls, strat._dist.owners))
        p = strat.make_vector("p", rng.standard_normal(120))
        strat.apply(p, strat.make_vector("q"))
        calls.clear()
        self._apply_five_times_each_way(strat, rng)
        assert calls == []


class TestCscVariants:
    def test_serial_compute_serialised(self, spd_small, rng):
        m = Machine(nprocs=4)
        strat = CscSerial(m, spd_small)
        p = strat.make_vector("p", rng.standard_normal(36))
        q = strat.make_vector("q")
        strat.apply(p, q)
        # serial: elapsed >= 2*nnz flops worth of time
        assert m.elapsed() >= 2 * spd_small.nnz * m.cost.t_flop

    def test_private_merge_parallelises(self, spd_small, rng):
        pv = rng.standard_normal(36)
        m_serial = Machine(nprocs=4)
        s = CscSerial(m_serial, spd_small)
        s.apply(s.make_vector("p", pv), s.make_vector("q"))
        m_priv = Machine(nprocs=4)
        pm = CscPrivateMerge(m_priv, spd_small)
        pm.apply(pm.make_vector("p", pv), pm.make_vector("q"))
        assert m_priv.elapsed() < m_serial.elapsed()

    def test_private_merge_needs_no_p_broadcast(self, spd_small, rng):
        """CSC + column-aligned p reads p(j) locally: no allgather."""
        m = Machine(nprocs=4)
        pm = CscPrivateMerge(m, spd_small)
        pm.apply(pm.make_vector("p", rng.standard_normal(36)), pm.make_vector("q"))
        ops = m.stats.by_op()
        assert "allgather" not in ops
        assert "reduce_scatter" in ops

    def test_private_storage_charged_per_apply(self, spd_small, rng):
        m = Machine(nprocs=4)
        pm = CscPrivateMerge(m, spd_small)
        base = m.stats.storage_words_per_rank.copy()
        pm.apply(pm.make_vector("p", rng.standard_normal(36)), pm.make_vector("q"))
        grown = m.stats.storage_words_per_rank - base
        assert (grown >= 36.0).all()

    def test_balanced_variant_uses_irregular_vectors(self):
        A = irregular_powerlaw(64, seed=2)
        m = Machine(nprocs=4)
        pm = CscPrivateMerge(m, A, balanced=True)
        assert isinstance(pm.vector_distribution(), IrregularBlock)

    def test_balanced_reduces_makespan_on_skewed_matrix(self, rng):
        A = irregular_powerlaw(200, seed=9)
        pv = rng.standard_normal(200)
        m_uni = Machine(nprocs=8)
        uni = CscPrivateMerge(m_uni, A, balanced=False)
        uni.apply(uni.make_vector("p", pv), uni.make_vector("q"))
        m_bal = Machine(nprocs=8)
        bal = CscPrivateMerge(m_bal, A, balanced=True)
        bal.apply(bal.make_vector("p", pv), bal.make_vector("q"))
        assert bal.per_rank_nnz().max() <= uni.per_rank_nnz().max()
        assert m_bal.elapsed() <= m_uni.elapsed()

    def test_per_rank_nnz_sums_to_total(self, spd_small):
        m = Machine(nprocs=4)
        pm = CscPrivateMerge(m, spd_small)
        assert pm.per_rank_nnz().sum() == spd_small.nnz
