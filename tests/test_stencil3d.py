"""27-point stencil generator, 3-D BLOCK distribution and halo plans."""

import numpy as np
import pytest

from repro.backend import process_backend_support
from repro.hpf.distribution import DistributionError, Grid3DBlock, choose_grid3d
from repro.hpcg import hpcg_solve
from repro.hpcg.program import halo_plan
from repro.sparse import stencil27

_OK, _DETAIL = process_backend_support()
BACKENDS = ["simulated", pytest.param("process", marks=pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"))]


class TestStencil27:
    def test_square_defaults(self):
        a = stencil27(4)
        assert a.shape == (64, 64)
        b = stencil27(4, 4, 4)
        assert a.nnz == b.nnz
        np.testing.assert_array_equal(a.toarray(), b.toarray())

    def test_interior_row_has_27_entries(self):
        nx = 5
        a = stencil27(nx)
        # centre point of the 5x5x5 grid: (2, 2, 2)
        row = (2 * nx + 2) * nx + 2
        dense = a.toarray()
        assert np.count_nonzero(dense[row]) == 27
        assert dense[row, row] == 26.0
        offs = dense[row].copy()
        offs[row] = 0.0
        assert np.all(offs[offs != 0.0] == -1.0)

    def test_corner_row_has_8_entries(self):
        dense = stencil27(3).toarray()
        assert np.count_nonzero(dense[0]) == 8  # itself + 7 neighbours

    def test_symmetric(self):
        dense = stencil27(3, 4, 2).toarray()
        np.testing.assert_array_equal(dense, dense.T)

    def test_positive_definite(self):
        dense = stencil27(4).toarray()
        w = np.linalg.eigvalsh(dense)
        assert w.min() > 0.0

    def test_anisotropic_shape(self):
        a = stencil27(4, 3, 2)
        assert a.shape == (24, 24)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match=">= 1"):
            stencil27(0)


class TestChooseGrid3d:
    @pytest.mark.parametrize(
        "p,expected",
        [(1, (1, 1, 1)), (2, (1, 1, 2)), (4, (1, 2, 2)), (8, (2, 2, 2)),
         (12, (2, 2, 3)), (27, (3, 3, 3))],
    )
    def test_near_cubic(self, p, expected):
        assert choose_grid3d(p) == expected

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7, 9, 16, 24])
    def test_covers(self, p):
        px, py, pz = choose_grid3d(p)
        assert px * py * pz == p

    def test_rejects_nonpositive(self):
        with pytest.raises(DistributionError):
            choose_grid3d(0)


class TestGrid3DBlock:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 12])
    def test_partitions_index_space(self, p):
        layout = Grid3DBlock((6, 5, 4), p)
        cover = np.concatenate(
            [layout.local_indices(r) for r in range(p)])
        assert sorted(cover.tolist()) == list(range(6 * 5 * 4))

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_owners_match_local_indices(self, p):
        layout = Grid3DBlock((8, 8, 8), p)
        idx = np.arange(layout.n)
        owners = layout.owners(idx)
        for r in range(p):
            np.testing.assert_array_equal(
                np.sort(layout.local_indices(r)), idx[owners == r])

    def test_global_to_local_round_trip(self):
        layout = Grid3DBlock((5, 4, 6), 4)
        for r in range(4):
            rows = layout.local_indices(r)
            # local position of each owned id equals its rank in the
            # rank's own row-major enumeration
            np.testing.assert_array_equal(
                layout.global_to_local(rows), np.arange(rows.size))

    def test_explicit_grid_must_cover(self):
        with pytest.raises(DistributionError, match="does not cover"):
            Grid3DBlock((4, 4, 4), 4, grid=(1, 1, 3))

    def test_coords_rank_round_trip(self):
        layout = Grid3DBlock((8, 8, 8), 8)
        for r in range(8):
            assert layout.rank_of(*layout.coords(r)) == r


class TestHaloPlan:
    def test_eight_way_kinds(self):
        """2x2x2 process grid: every rank sees 3 faces, 3 edges, 1 corner."""
        layout = Grid3DBlock((8, 8, 8), 8)
        for r in range(8):
            plan = halo_plan(layout, r)
            kinds = sorted(e["kind"] for e in plan)
            assert kinds == ["corner", "edge", "edge", "edge",
                             "face", "face", "face"]

    def test_single_rank_has_no_neighbours(self):
        assert halo_plan(Grid3DBlock((4, 4, 4), 1), 0) == []

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_plan_is_symmetric(self, p):
        """What rank a sends rank b is exactly what b expects from a."""
        layout = Grid3DBlock((8, 8, 8), p)
        plans = {r: {e["rank"]: e for e in halo_plan(layout, r)}
                 for r in range(p)}
        for a in range(p):
            for b, entry in plans[a].items():
                mirror = plans[b][a]
                np.testing.assert_array_equal(
                    entry["send_ids"], mirror["recv_ids"])
                np.testing.assert_array_equal(
                    entry["recv_ids"], mirror["send_ids"])
                assert entry["kind"] == mirror["kind"]

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_sends_own_cells_receives_foreign(self, p):
        layout = Grid3DBlock((8, 8, 8), p)
        for r in range(p):
            mine = set(layout.local_indices(r).tolist())
            for e in halo_plan(layout, r):
                assert set(e["send_ids"].tolist()) <= mine
                assert not (set(e["recv_ids"].tolist()) & mine)

    def test_recv_covers_stencil_reach(self):
        """Every off-rank column a rank's stencil rows touch is received."""
        layout = Grid3DBlock((8, 8, 8), 8)
        a = stencil27(8)
        indptr, indices = a.indptr, a.indices
        for r in range(8):
            rows = layout.local_indices(r)
            cols = set()
            for row in rows:
                cols.update(indices[indptr[row]:indptr[row + 1]].tolist())
            foreign = cols - set(rows.tolist())
            received = set()
            for e in halo_plan(layout, r):
                received.update(e["recv_ids"].tolist())
            assert foreign == received


class TestHaloMatvec:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_halo_matvec_matches_reference(self, p):
        """The distributed (precond=none) SpMV path equals a serial SpMV."""
        from repro.hpcg import hpcg_solve

        a = stencil27(6)
        rng = np.random.default_rng(11)
        xstar = rng.standard_normal(a.nrows)
        b = a @ xstar
        res = hpcg_solve(6, nprocs=p, precond="none", b=b, maxiter=400)
        assert res.converged
        assert np.allclose(res.x, xstar, atol=1e-6)
        halo = res.extras["hpcg"]["halo"]
        assert halo["neighbors"] >= 1


def _held_arrays(obj, out):
    """Bytes of every array ``obj`` reaches, counted once per buffer."""
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        out[id(root)] = root.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _held_arrays(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _held_arrays(item, out)
    return out


def _drive(gen, recv_payload):
    """Run one operator generator by hand: sends vanish, each ``Recv``
    is answered with ``recv_payload(source)``."""
    from repro.machine.events import Recv

    value = None
    try:
        while True:
            event = gen.send(value)
            value = (recv_payload(event.source)
                     if isinstance(event, Recv) else None)
    except StopIteration as stop:
        return stop.value


class TestSubcubeOperator:
    """The operator holds O(n/p): planes, one pad, halo maps (16^3, p=8)."""

    SHAPE = (16, 16, 16)

    def _ops(self, nprocs, a=None):
        from repro.backend.kernel import Collectives
        from repro.hpcg.program import HPCGRankProgram, SubcubeOperator

        a = stencil27(*self.SHAPE) if a is None else a
        program = HPCGRankProgram(a, np.ones(a.nrows), self.SHAPE,
                                  precond="jacobi")
        layout = Grid3DBlock(self.SHAPE, nprocs)
        return a, [SubcubeOperator(program, layout, r, Collectives(r, nprocs))
                   for r in range(nprocs)]

    @staticmethod
    def _held(op):
        shared = ("comm", "layout", "block")
        out = _held_arrays(
            [v for k, v in vars(op).items() if k not in shared], {})
        return sum(_held_arrays(vars(op.block), out).values())

    def test_held_arrays_scale_with_the_subcube(self):
        _, (whole,) = self._ops(1)
        _, ops = self._ops(8)
        for op in ops:
            maps = sum(_held_arrays(
                [op.plan, op.send_lpos, op.recv_pos], {}).values())
            volume = self._held(op) - op.pad.nbytes - maps
            assert volume <= self._held(whole) / 8
            # the pad and the halo maps are the subcube's shell
            assert maps <= 4 * op.pad.nbytes

    def test_array_planes_scale_with_the_subcube(self):
        """Varying coefficients: each rank holds 27 array planes of its own
        box in its pad's row layout (two ring cells a row, none past the
        box's last cell), and the rest as with constant planes."""
        from .test_multigrid import varying_stencil

        a = varying_stencil(self.SHAPE)
        _, (whole,) = self._ops(1)
        _, ops = self._ops(8, a)
        for op in ops:
            lz, ly, lx = op.block.shape
            planes = [p for p in op.block.planes if isinstance(p, np.ndarray)]
            assert len(planes) == 27
            for plane in planes:
                assert plane.size == lz * (ly + 2) * (lx + 2) - 2 * lx - 6
            maps = sum(_held_arrays(
                [op.plan, op.send_lpos, op.recv_pos], {}).values())
            rest = (self._held(op) - op.pad.nbytes - maps
                    - sum(plane.nbytes for plane in planes))
            assert rest <= self._held(whole) / 8

    def test_halo_apply_allocates_no_n_long_array(self):
        import tracemalloc

        a, ops = self._ops(8)
        x = np.random.default_rng(5).standard_normal(a.nrows)
        want = a.matvec(x)
        for op in ops:
            halos = {e["rank"]: x[e["recv_ids"]] for e in op.plan}
            u = x[op.rows]
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                got = _drive(op.apply(u), halos.__getitem__)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 8 * a.nrows
            assert got.tobytes() == want[op.rows].tobytes()

    def test_every_operand_path_is_the_serial_product(self):
        """Halo, replicated, allgathered and one-rank operands all fill the
        pad so that the product is bitwise ``A x`` on the subcube."""
        a, ops = self._ops(8)
        x = np.random.default_rng(6).standard_normal(a.nrows)
        want = a.matvec(x)
        for op in ops:
            op.replicated = x
            assert _drive(op.apply(None), None).tobytes() \
                == want[op.rows].tobytes()
            assert op.replicated is None
            blocks = [x[o.rows] for o in ops]

            def allgather(v, tag):
                return blocks
                yield  # pragma: no cover - a generator with no events

            op.comm.allgather = allgather
            gathered = _drive(op.apply_gathered(x[op.rows]), None)
            assert gathered.tobytes() == want[op.rows].tobytes()
        _, (whole,) = self._ops(1)
        assert _drive(whole.apply(x), None).tobytes() == want.tobytes()


class TestMatrixOverride:
    """``hpcg_solve(matrix=…)`` takes every form ``as_matrix`` does."""

    @pytest.mark.parametrize("precond", ["jacobi", "mg"])
    def test_scipy_dense_and_repro_forms_agree_bitwise(self, precond):
        from scipy.sparse import csr_matrix

        from repro.hpcg import hpcg_solve

        a = stencil27(6, 5, 4)
        forms = [a, csr_matrix((a.data, a.indices, a.indptr), shape=a.shape),
                 a.toarray()]
        xs = [hpcg_solve((6, 5, 4), nprocs=2, precond=precond,
                         matrix=m).x for m in forms]
        assert xs[0].tobytes() == xs[1].tobytes() == xs[2].tobytes()

    @pytest.mark.parametrize("row,col,message", [
        (0, 50, r"row 0 has an entry in column 50\b"),
        (7, 8, r"row 7 stores column 8 more than once"),
    ])
    def test_an_entry_the_planes_cannot_hold_is_named(self, row, col,
                                                      message):
        from repro.hpcg import hpcg_solve
        from repro.sparse import CSRMatrix

        from .test_local_kernel import with_extra_entry

        a = stencil27(6, 5, 4)
        bad = CSRMatrix(*with_extra_entry(a, row, col), shape=a.shape)
        with pytest.raises(ValueError, match=message):
            hpcg_solve((6, 5, 4), nprocs=2, precond="jacobi", matrix=bad,
                       b=np.ones(a.nrows))


class TestEmptySubcube:
    """``choose_grid3d`` ignores the grid shape, so an axis can get more
    ranks than cells.  A rank with an empty subcube exchanges no halo and
    still joins every reduction."""

    def test_empty_ranks_have_no_neighbours(self):
        layout = Grid3DBlock((8, 8, 1), 2)  # (1, 1, 2): rank 1 owns nothing
        assert layout.local_count(1) == 0
        assert halo_plan(layout, 0) == halo_plan(layout, 1) == []
        layout = Grid3DBlock((4, 4, 1), 4)  # (1, 2, 2): ranks 2, 3 empty
        assert [[e["rank"] for e in halo_plan(layout, r)]
                for r in range(4)] == [[1], [0], [], []]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape,p,precond", [
        ((8, 8, 1), 2, "jacobi"),
        ((4, 4, 1), 4, "none"),
        ((8, 8, 1), 2, "mg"),
        ((8, 8, 2), 4, "jacobi"),  # one-cell slabs, nobody empty
    ])
    def test_solves_bitwise_as_one_rank(self, backend, shape, p, precond):
        ref = hpcg_solve(shape, nprocs=1, precond=precond, reproducible=True)
        res = hpcg_solve(shape, backend=backend, nprocs=p, precond=precond,
                         reproducible=True)
        assert res.converged
        assert res.x.tobytes() == ref.x.tobytes()
