"""Bitwise pins on the canonical (row, column) order of every generated matrix.

Every generator assembles through :class:`~repro.sparse.COOMatrix`, whose
constructor sorts the triples and sums duplicate coordinates, and every
CSR/CSC conversion sorts again.  The digests below were computed before the
sort was rewritten: any change to the permutation, or to the order in which
duplicates are summed, changes a bit of ``data`` and fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.sparse import COOMatrix
from repro.sparse import generators as gen


def _digest(m) -> str:
    h = hashlib.sha256()
    for a in (m.indptr, m.indices, m.data):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (generator, args, sha256 of the CSR trio, sha256 of the CSC trio)
PINS = [
    ("figure1_matrix", (),
     "a74aeaee69603cd4c601c3625d5677b9284be03116f1e23dc45fdf7c21939e7c",
     "72653b6ab4430ed97e2441dbbdd1b1867b34302f01f39da4a1aac997d09dd3bb"),
    ("tridiagonal", (7,),
     "236ce71bf49187b8e79b932e8cc1bd2fd59d3a9013fa2f6a82f7b3f0d027285b",
     "236ce71bf49187b8e79b932e8cc1bd2fd59d3a9013fa2f6a82f7b3f0d027285b"),
    ("tridiagonal", (300,),
     "8ec927e9f7032b3137f9b25028cf6f7a05e490803be2f7d1c3e0cfa68e1385ef",
     "8ec927e9f7032b3137f9b25028cf6f7a05e490803be2f7d1c3e0cfa68e1385ef"),
    ("poisson1d", (5,),
     "2f2e8f09a5294289cb8edd06988e6efcfed64ae105975fce5655cce88c451f84",
     "2f2e8f09a5294289cb8edd06988e6efcfed64ae105975fce5655cce88c451f84"),
    ("poisson1d", (200,),
     "8656b9733c6d1b6e8b8814589ecf6f20af3ae579c778629a0776e61a1921c7d1",
     "8656b9733c6d1b6e8b8814589ecf6f20af3ae579c778629a0776e61a1921c7d1"),
    ("poisson2d", (5, 7),
     "bf85d0e67cb5f2c76cd2e3ac73a4396ea4d9ee080836dd85b0415b1c320a94aa",
     "bf85d0e67cb5f2c76cd2e3ac73a4396ea4d9ee080836dd85b0415b1c320a94aa"),
    ("poisson2d", (40,),
     "90db8bcc012b1ed218248ef268e30376a6acff7d98c557109b8887deb47a5b37",
     "90db8bcc012b1ed218248ef268e30376a6acff7d98c557109b8887deb47a5b37"),
    ("stencil27", (3, 4, 5),
     "85cd1967a234268e93ba116eb4f6be670eab67ff9a06031f16abcd5503faff61",
     "85cd1967a234268e93ba116eb4f6be670eab67ff9a06031f16abcd5503faff61"),
    ("stencil27", (12,),
     "4dc1db31869d3b43043090c4e7d968da81dc15f4c102bb272643a470b5dc1aed",
     "4dc1db31869d3b43043090c4e7d968da81dc15f4c102bb272643a470b5dc1aed"),
    ("structural_truss", (10,),
     "e4e98d7ebe8687c89de4cca7206af93dad9658d37964a92251f60c6cec48977e",
     "e4e98d7ebe8687c89de4cca7206af93dad9658d37964a92251f60c6cec48977e"),
    ("structural_truss", (500,),
     "c62162523b201425d25a6e8722014a8094fe9331f7551ee7a6d223fe449cf2ed",
     "c62162523b201425d25a6e8722014a8094fe9331f7551ee7a6d223fe449cf2ed"),
    ("circuit_nodal", (20,),
     "ca9b9ce5fc31cceef931c8fef89aacced89d9c7f9449630b38a1b1004c55aa8a",
     "ca9b9ce5fc31cceef931c8fef89aacced89d9c7f9449630b38a1b1004c55aa8a"),
    ("circuit_nodal", (400,),
     "993235c35a9ee65712126ccacd000a6cd15d5495dd3ea84d1ed0190d8ab3af84",
     "993235c35a9ee65712126ccacd000a6cd15d5495dd3ea84d1ed0190d8ab3af84"),
    ("random_sparse_symmetric", (30,),
     "130813d8f7c04af4e1271f74f25e0eb1ed3d68b5beb708a8dded05af827d75da",
     "130813d8f7c04af4e1271f74f25e0eb1ed3d68b5beb708a8dded05af827d75da"),
    ("random_sparse_symmetric", (1000,),
     "b3ae6a204cb2c64b38ba8b60c888f8d48a130bd5d65a7f26b3c50d46e711ee54",
     "b3ae6a204cb2c64b38ba8b60c888f8d48a130bd5d65a7f26b3c50d46e711ee54"),
    ("nas_cg_style", (50,),
     "502af5b15731f3a64d581adfc4291278f57c6ee12be1afbe913800cbac7bd2fd",
     "502af5b15731f3a64d581adfc4291278f57c6ee12be1afbe913800cbac7bd2fd"),
    ("nas_cg_style", (3000,),
     "61b894e0cd43d8b1a7cf407fdc0e27255c28d8cd3f16356712e2a6eb9fdb42b9",
     "61b894e0cd43d8b1a7cf407fdc0e27255c28d8cd3f16356712e2a6eb9fdb42b9"),
    ("irregular_powerlaw", (40,),
     "d4b50030aea39e455a2c154b531c2c948b7a0130e3028abbdc23196c54a02c70",
     "d4b50030aea39e455a2c154b531c2c948b7a0130e3028abbdc23196c54a02c70"),
    ("irregular_powerlaw", (2000,),
     "76b449f0e53fc080724f2f2b60e8b1f02ed0709bcdbd56c11d4b1337326bfc19",
     "76b449f0e53fc080724f2f2b60e8b1f02ed0709bcdbd56c11d4b1337326bfc19"),
    ("matrix_with_eigenvalues", ([1.0, 2.0, 2.0, 5.0, 9.0],),
     "df838ad73353e152277f020c336156ca9f982b68708c56a71411fe02b39fdf38",
     "5cc8d3b30656927a0f1b03f60dc63312417cbdd3f8aa655abb353427a669eb74"),
    ("matrix_with_eigenvalues", (list(np.linspace(1.0, 50.0, 40)),),
     "394ad21ceaca83e99f5eab37873eb59f71aada5606d4ceb51534369012b18167",
     "9c948a9e5f28e7031fd092d230f347251e7e608ad87bc9a7c20481a454731b0d"),
    ("convection_diffusion_1d", (8,),
     "88388151bc1437a4c6f38911dcb4112811c1fa63e29bbdf47867f20dd5f95836",
     "677ee2f551e3308a9180cb42eba307c7e69ca86be94fab1f727847b97350466f"),
    ("convection_diffusion_1d", (300,),
     "fe57045f5821fe1519163187e8a25216b4f25b12405fc642cb7f6d182e8ef6fb",
     "0a92a616957779c4e0f5419d7711695b28356c41fd7b8692b497a3053dcc8c50"),
    ("nonsymmetric_diag_dominant", (30,),
     "f8e0eeea26e888024e467e8d06786da6745b95feec12607e7566b777c049047e",
     "c662dfc20d09d0492abb173962cb3a6999576f06f0a4afce89ac9c6b0561056d"),
    ("nonsymmetric_diag_dominant", (1000,),
     "144dd09008ed38a2eb2f5dc881a045f950a2e4b9c2cf9078b6d6618dce59b9a7",
     "db0f7509794e7ec509fc61b1e978a0eec3e1684c328e28c22c7e7b0e03b15e37"),
]


def test_every_generator_is_pinned():
    assert {name for name, *_ in PINS} >= set(gen.__all__) - {"rhs_for_solution"}


@pytest.mark.parametrize(
    "name,args,csr_sha,csc_sha", PINS,
    ids=[f"{p[0]}-{i}" for i, p in enumerate(PINS)],
)
def test_generator_digest(name, args, csr_sha, csc_sha):
    m = getattr(gen, name)(*args).to_csr()
    assert _digest(m) == csr_sha
    assert _digest(m.to_csc()) == csc_sha


# Unsorted input with repeated coordinates.  Each repeated coordinate gets
# +BIG, -BIG and 1.0 in some order: summed in input order the result is 1.0
# only when 1.0 comes last, so any other summation order shows in the bits.
BIG = 1e16
ROWS = [2, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2]
COLS = [1, 0, 2, 0, 1, 2, 0, 1, 2, 3, 0]
DATA = [1.0, BIG, 1.0, -BIG, BIG, BIG, 1.0, -BIG, -BIG, 5.0, 7.0]


class TestHandMadeCOO:
    def test_duplicates_sum_in_input_order(self):
        m = COOMatrix(ROWS, COLS, DATA, shape=(3, 4))
        assert m.rows.tolist() == [0, 0, 1, 2, 2]
        assert m.cols.tolist() == [0, 3, 2, 0, 1]
        assert m.data.tolist() == [1.0, 5.0, 0.0, 7.0, 0.0]
        csr, csc = m.to_csr(), m.to_csc()
        assert csr.indptr.tolist() == [0, 2, 3, 5]
        assert csr.indices.tolist() == [0, 3, 2, 0, 1]
        assert csr.data.tolist() == [1.0, 5.0, 0.0, 7.0, 0.0]
        assert csc.indptr.tolist() == [0, 2, 3, 4, 5]
        assert csc.indices.tolist() == [0, 2, 2, 1, 0]
        assert csc.data.tolist() == [1.0, 7.0, 0.0, 0.0, 5.0]

    def test_conversions_keep_duplicates_in_input_order(self):
        raw = COOMatrix(ROWS, COLS, DATA, shape=(3, 4), sum_duplicates=False)
        csr, csc = raw.to_csr(), raw.to_csc()
        assert csr.indptr.tolist() == [0, 4, 7, 11]
        assert csr.indices.tolist() == [0, 0, 0, 3, 2, 2, 2, 0, 1, 1, 1]
        assert csr.data.tolist() == [
            BIG, -BIG, 1.0, 5.0, 1.0, BIG, -BIG, 7.0, 1.0, BIG, -BIG]
        assert csc.indptr.tolist() == [0, 4, 7, 10, 11]
        assert csc.indices.tolist() == [0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 0]
        assert csc.data.tolist() == [
            BIG, -BIG, 1.0, 7.0, 1.0, BIG, -BIG, 1.0, BIG, -BIG, 5.0]


class TestSortKeyBound:
    """The sort key ``major * n_minor + minor`` must fit an int64."""

    SHAPE = (2**32, 2**32)
    TRIPLES = ([5, 1, 5], [2, 7, 1], [1.0, 2.0, 3.0])

    def test_constructor_refuses_a_key_that_would_wrap(self):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            COOMatrix(*self.TRIPLES, shape=self.SHAPE)

    def test_conversions_refuse_a_key_that_would_wrap(self):
        raw = COOMatrix(*self.TRIPLES, shape=self.SHAPE, sum_duplicates=False)
        assert raw.nnz == 3 and raw.rows.tolist() == [5, 1, 5]
        with pytest.raises(ValueError, match=r"2\*\*63"):
            raw.to_csr()
        with pytest.raises(ValueError, match=r"2\*\*63"):
            raw.to_csc()

    def test_largest_shape_that_fits_still_sorts(self):
        m = COOMatrix(*self.TRIPLES, shape=(2**31 - 1, 2**32))
        assert m.rows.tolist() == [1, 5, 5]
        assert m.cols.tolist() == [7, 1, 2]
        assert m.data.tolist() == [2.0, 3.0, 1.0]


class TestDominantDiagonal:
    """Each row's diagonal slots in at its sorted position: the same trio
    as appending the diagonal to the triples and sorting them again."""

    @staticmethod
    def appended(coo, shift):
        abs_sums = np.zeros(coo.nrows)
        np.add.at(abs_sums, coo.rows, np.abs(coo.data))
        d = np.arange(coo.nrows)
        return COOMatrix(
            np.concatenate([coo.rows, d]),
            np.concatenate([coo.cols, d]),
            np.concatenate([coo.data, abs_sums + shift]),
            coo.shape,
        ).to_csr()

    # few triples per row leave empty rows first, last and in between
    @pytest.mark.parametrize("n,m,seed", [
        (1, 0, 0), (6, 0, 0), (6, 3, 1), (50, 40, 2), (400, 3000, 3)])
    def test_matches_append_and_sort(self, n, m, seed):
        rng = np.random.default_rng(seed)
        i, j = rng.integers(0, n, m), rng.integers(0, n, m)
        off = i != j
        coo = COOMatrix(i[off], j[off], rng.uniform(-1, 1, off.sum()), (n, n))
        got = gen._with_dominant_diagonal(coo, 0.1)
        assert _digest(got) == _digest(self.appended(coo, 0.1))
