"""Matrix generators for every application family the paper names.

The introduction motivates CG with "structural analysis, fluid dynamics,
aerodynamics, lattice gauge simulation, and circuit simulation" plus the
NAS/PARKBENCH benchmark matrices; Section 5.2.2 motivates irregular
distributions with "a very irregular grid model in which some grid points
may have many neighbours, while others have very few".  Each generator here
produces a deterministic instance of one of those families:

* :func:`poisson1d` / :func:`poisson2d` -- PDE model problems (CFD pressure
  solves, aerodynamics);
* :func:`stencil27` -- the HPCG-class 3-D 27-point stencil operator;
* :func:`structural_truss` -- spring/truss stiffness matrices (structural
  analysis);
* :func:`circuit_nodal` -- conductance matrices from nodal analysis of a
  random resistor network (circuit simulation);
* :func:`nas_cg_style` -- random sparse SPD matrices in the spirit of the
  NAS CG kernel;
* :func:`irregular_powerlaw` -- skewed-degree graph Laplacians that defeat
  uniform BLOCK distributions (Section 5.2.2);
* :func:`matrix_with_eigenvalues` -- dense SPD with a prescribed spectrum,
  for the "CG converges in at most n_e iterations" claim (Section 2.1);
* :func:`convection_diffusion_1d` -- nonsymmetric systems for the BiCG /
  CGS / BiCGSTAB family (Section 2.1);
* :func:`figure1_matrix` -- the exact 6x6 worked example of Figure 1.

All randomness flows through ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .coo import COOMatrix
from .csr import CSRMatrix
from .dense import DenseMatrix

__all__ = [
    "figure1_matrix",
    "tridiagonal",
    "poisson1d",
    "poisson2d",
    "stencil27",
    "structural_truss",
    "circuit_nodal",
    "nas_cg_style",
    "irregular_powerlaw",
    "matrix_with_eigenvalues",
    "convection_diffusion_1d",
    "nonsymmetric_diag_dominant",
    "random_sparse_symmetric",
    "rhs_for_solution",
]


def figure1_matrix() -> CSRMatrix:
    """The 6x6 sparse matrix of the paper's Figure 1.

    Entry ``a_ij`` is encoded as the value ``10*i + j`` (1-based), so e.g.
    ``a51 = 51.0``; this makes the CSC array contents directly checkable
    against the figure.
    """
    entries = [
        (1, 1), (1, 2), (1, 5),
        (2, 1), (2, 2), (2, 4), (2, 6),
        (3, 1), (3, 3),
        (4, 2), (4, 4),
        (5, 1), (5, 5),
        (6, 2), (6, 6),
    ]
    rows = [i - 1 for i, _ in entries]
    cols = [j - 1 for _, j in entries]
    data = [10.0 * i + j for i, j in entries]
    return COOMatrix(rows, cols, data, shape=(6, 6)).to_csr()


def tridiagonal(
    n: int, lower: float = -1.0, diag: float = 2.0, upper: float = -1.0
) -> CSRMatrix:
    """Constant-coefficient tridiagonal matrix."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows, cols, data = [], [], []
    idx = np.arange(n)
    rows.append(idx)
    cols.append(idx)
    data.append(np.full(n, diag))
    if n > 1:
        rows.append(idx[1:])
        cols.append(idx[:-1])
        data.append(np.full(n - 1, lower))
        rows.append(idx[:-1])
        cols.append(idx[1:])
        data.append(np.full(n - 1, upper))
    return COOMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data), (n, n)
    ).to_csr()


def poisson1d(n: int) -> CSRMatrix:
    """1-D Poisson (second difference) matrix: SPD, tridiag(-1, 2, -1)."""
    return tridiagonal(n, -1.0, 2.0, -1.0)


def poisson2d(nx: int, ny: Optional[int] = None) -> CSRMatrix:
    """2-D five-point Poisson operator on an ``nx x ny`` grid (SPD).

    The canonical CFD pressure-correction matrix; size ``n = nx * ny``.
    """
    if ny is None:
        ny = nx
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = nx * ny
    ids = np.arange(n).reshape(nx, ny)
    rows, cols, data = [ids.ravel()], [ids.ravel()], [np.full(n, 4.0)]

    def couple(a, b):
        rows.append(a.ravel())
        cols.append(b.ravel())
        data.append(np.full(a.size, -1.0))
        rows.append(b.ravel())
        cols.append(a.ravel())
        data.append(np.full(a.size, -1.0))

    if nx > 1:
        couple(ids[:-1, :], ids[1:, :])
    if ny > 1:
        couple(ids[:, :-1], ids[:, 1:])
    return COOMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data), (n, n)
    ).to_csr()


def stencil27(
    nx: int, ny: Optional[int] = None, nz: Optional[int] = None
) -> CSRMatrix:
    """3-D 27-point stencil operator on an ``nx x ny x nz`` grid (SPD).

    The HPCG-class workload: every interior point couples to its 26
    neighbours (faces, edges *and* corners) with weight ``-1`` and carries
    the diagonal ``26``.  Boundary rows keep the full diagonal, so every row
    is (weakly, and at the boundary strictly) diagonally dominant and the
    operator is SPD -- the same convention the HPCG reference code uses.

    Grid point ``(ix, iy, iz)`` has global id ``(iz*ny + iy)*nx + ix``,
    i.e. ``x`` is the fastest-varying axis; a 3-D BLOCK distribution over a
    process grid therefore owns subcubes of contiguous ``x``-runs, and rank
    programs exchange faces, edges and corners
    (see :class:`repro.hpf.distribution.Grid3DBlock`).
    """
    if ny is None:
        ny = nx
    if nz is None:
        nz = ny
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = nx * ny * nz
    ids = np.arange(n).reshape(nz, ny, nx)
    rows, cols, data = [ids.ravel()], [ids.ravel()], [np.full(n, 26.0)]

    def couple(a, b):
        rows.append(a.ravel())
        cols.append(b.ravel())
        data.append(np.full(a.size, -1.0))
        rows.append(b.ravel())
        cols.append(a.ravel())
        data.append(np.full(a.size, -1.0))

    def span(d):
        # (source, shifted) slices along one axis for a unit offset d
        if d == 0:
            return slice(None), slice(None)
        if d == 1:
            return slice(None, -1), slice(1, None)
        return slice(1, None), slice(None, -1)

    # 13 lexicographically-positive offsets; couple() adds both directions,
    # covering all 26 neighbours exactly once per unordered pair
    for dz in (0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if (dz, dy, dx) <= (0, 0, 0):
                    continue
                src = tuple(span(d)[0] for d in (dz, dy, dx))
                dst = tuple(span(d)[1] for d in (dz, dy, dx))
                couple(ids[src], ids[dst])
    return COOMatrix(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(data), (n, n)
    ).to_csr()


def structural_truss(n_nodes: int, seed: int = 0) -> CSRMatrix:
    """Stiffness matrix of a 1-D chain truss with random element stiffness.

    Each adjacent node pair is connected by a spring with stiffness drawn
    from ``U(0.5, 2.0)``; ends are anchored, so the assembled matrix is SPD.
    A stand-in for the structural-analysis workloads the paper cites.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.5, 2.0, size=n_nodes - 1)
    rows, cols, data = [], [], []
    for e in range(n_nodes - 1):
        i, j = e, e + 1
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        data += [k[e], k[e], -k[e], -k[e]]
    # anchor both ends (adds boundary stiffness -> strictly SPD)
    rows += [0, n_nodes - 1]
    cols += [0, n_nodes - 1]
    data += [1.0, 1.0]
    return COOMatrix(rows, cols, data, (n_nodes, n_nodes)).to_csr()


def circuit_nodal(n_nodes: int, avg_degree: float = 4.0, seed: int = 0) -> CSRMatrix:
    """Nodal-analysis conductance matrix of a random resistor network.

    Builds a connected random graph with roughly ``avg_degree`` edges per
    node, conductances drawn log-uniformly over two decades, plus a small
    conductance to ground at every node.  The result (weighted Laplacian +
    diagonal) is SPD -- the circuit-simulation workload of the paper's
    introduction.
    """
    import networkx as nx

    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    m_edges = max(n_nodes - 1, int(round(avg_degree * n_nodes / 2.0)))
    g = nx.gnm_random_graph(n_nodes, m_edges, seed=int(rng.integers(2**31)))
    # ensure connectivity by chaining components
    comps = [sorted(c) for c in nx.connected_components(g)]
    for a, b in zip(comps[:-1], comps[1:]):
        g.add_edge(a[0], b[0])
    rows, cols, data = [], [], []
    diag = np.full(n_nodes, 0.0)
    for u, v in g.edges():
        cond = 10.0 ** rng.uniform(-1.0, 1.0)
        rows += [u, v]
        cols += [v, u]
        data += [-cond, -cond]
        diag[u] += cond
        diag[v] += cond
    diag += rng.uniform(0.01, 0.1, size=n_nodes)  # conductance to ground
    rows += list(range(n_nodes))
    cols += list(range(n_nodes))
    data += list(diag)
    return COOMatrix(rows, cols, data, (n_nodes, n_nodes)).to_csr()


def _with_dominant_diagonal(coo: COOMatrix, shift: float) -> CSRMatrix:
    """CSR of ``coo`` plus the diagonal ``sum_j |a_ij| + shift`` in each row.

    ``coo`` is canonical (row-major, duplicates summed) and holds no
    ``i == j`` entry, so each row's diagonal slots in at its sorted position:
    nothing merges and nothing is sorted again.
    """
    n = coo.nrows
    abs_sums = np.zeros(n)
    np.add.at(abs_sums, coo.rows, np.abs(coo.data))
    d = np.arange(n)
    at = np.searchsorted(coo.rows * n + coo.cols, d * n + d)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.rows, minlength=n) + 1, out=indptr[1:])
    return CSRMatrix(
        indptr,
        np.insert(coo.cols, at, d),
        np.insert(coo.data, at, abs_sums + shift),
        shape=(n, n),
    )


def random_sparse_symmetric(
    n: int, nnz_per_row: float = 5.0, seed: int = 0, spd_shift: bool = True
) -> CSRMatrix:
    """Random symmetric sparse matrix, optionally shifted to be SPD.

    Off-diagonal positions are uniform random; with ``spd_shift`` the
    diagonal is set to (row absolute sum + 1) making the matrix strictly
    diagonally dominant, hence SPD.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    m = max(0, int(round(nnz_per_row * n / 2.0)))
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    mask = i != j
    i, j = i[mask], j[mask]
    v = rng.uniform(-1.0, 1.0, size=i.size)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    data = np.concatenate([v, v])
    coo = COOMatrix(rows, cols, data, (n, n))
    if spd_shift:
        return _with_dominant_diagonal(coo, 1.0)
    return coo.to_csr()


def nas_cg_style(n: int, nnz_per_row: int = 7, seed: int = 0) -> CSRMatrix:
    """Random SPD sparse matrix in the spirit of the NAS CG kernel.

    The NAS benchmark builds a random sparse SPD matrix with a prescribed
    condition through sums of sparse outer products; this simplified
    variant uses a random symmetric pattern with geometrically decaying
    off-diagonal magnitudes and a dominance shift, which preserves the
    properties CG benchmarking needs (random irregular pattern, SPD, tunable
    density).
    """
    rng = np.random.default_rng(seed)
    m = max(1, (nnz_per_row - 1) * n // 2)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    mask = i != j
    i, j = i[mask], j[mask]
    v = rng.geometric(0.3, size=i.size) ** -1.0 * rng.choice([-1.0, 1.0], size=i.size)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    data = np.concatenate([v, v])
    return _with_dominant_diagonal(COOMatrix(rows, cols, data, (n, n)), 0.1)


def irregular_powerlaw(
    n: int, exponent: float = 2.0, max_degree: Optional[int] = None, seed: int = 0
) -> CSRMatrix:
    """Graph Laplacian of a power-law (scale-free) graph: SPD, skewed rows.

    Row lengths follow a heavy-tailed degree distribution -- "some grid
    points may have many neighbours, while others have very few" (Section
    5.2.2) -- so uniform BLOCK distributions suffer the load imbalance
    experiment E11 measures.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    if max_degree is None:
        max_degree = max(2, n // 4)
    degrees = np.minimum(rng.zipf(exponent, size=n), max_degree)
    # preferential attachment-ish stub matching
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    if stubs.size % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    mask = u != v
    u, v = u[mask], v[mask]
    # guarantee connectivity with a ring backbone
    ring_u = np.arange(n)
    ring_v = (ring_u + 1) % n
    u = np.concatenate([u, ring_u])
    v = np.concatenate([v, ring_v])
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    data = -np.ones(rows.size)
    # every summed entry is negative, so |off-diagonal| sums are degrees
    return _with_dominant_diagonal(COOMatrix(rows, cols, data, (n, n)), 1.0)


def matrix_with_eigenvalues(eigenvalues: Sequence[float], seed: int = 0) -> DenseMatrix:
    """Dense symmetric matrix with exactly the given spectrum.

    ``A = Q diag(eigs) Q^T`` for a random orthogonal ``Q``.  Used by E12: CG
    converges in at most ``n_e`` iterations where ``n_e`` is the number of
    *distinct* eigenvalues.
    """
    eigs = np.asarray(eigenvalues, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-D sequence")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    return DenseMatrix((q * eigs) @ q.T)


def convection_diffusion_1d(n: int, peclet: float = 0.5) -> CSRMatrix:
    """1-D convection-diffusion: nonsymmetric tridiagonal.

    Discretising ``-u'' + 2*peclet*u'`` with central differences gives
    ``tridiag(-1 - peclet, 2, -1 + peclet)``.  Nonsymmetric for
    ``peclet != 0`` -- the case where BiCG / CGS / BiCGSTAB are needed
    because "the residual vectors employed by CG cannot be made orthogonal
    with short recurrences" (Section 2.1).
    """
    return tridiagonal(n, lower=-1.0 - peclet, diag=2.0, upper=-1.0 + peclet)


def nonsymmetric_diag_dominant(
    n: int, nnz_per_row: float = 6.0, seed: int = 0
) -> CSRMatrix:
    """Random nonsymmetric, strictly diagonally dominant sparse matrix.

    Well-conditioned by construction (Gershgorin), so the whole BiCG / CGS /
    BiCGSTAB family converges quickly -- the benign nonsymmetric workload
    for comparing the Section-2.1 algorithms on equal footing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    m = max(0, int(round((nnz_per_row - 1) * n)))
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n, size=m)
    mask = i != j
    i, j = i[mask], j[mask]
    v = rng.uniform(-1.0, 1.0, size=i.size)
    return _with_dominant_diagonal(COOMatrix(i, j, v, (n, n)), 1.0)


def rhs_for_solution(matrix, x_true: np.ndarray) -> np.ndarray:
    """Manufacture ``b = A @ x_true`` so solvers have a known answer."""
    return matrix.matvec(np.asarray(x_true, dtype=np.float64))
