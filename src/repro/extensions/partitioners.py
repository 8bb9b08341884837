"""Load-balancing sparse partitioners (Section 5.2.2).

"It is possible to specify a load-balancing heuristic that is applied to
the A, row and col arrays to cluster the rows in a way that can be
distributed among the processors in an almost even-load fashion."

The partitioners map *atoms* (whole rows or columns, weighted by their
nonzero counts) onto processors:

* :func:`cg_balanced_partitioner_1` -- the directive's
  ``CG_BALANCED_PARTITIONER_1``: the optimal *contiguous* chunking, found
  by binary search on the bottleneck weight.  Contiguity preserves "the
  continuity of the column (or row) elements", so only the ``N_P + 1``
  cut-point array needs to be stored;
* :func:`lpt_partitioner` -- the classic Longest-Processing-Time greedy
  heuristic, allowed to break contiguity (tighter balance, bigger
  distribution map);
* :func:`edge_cut_partitioner` -- a Kernighan--Lin graph bisection (via
  networkx) that also minimises the communication-inducing edge cut,
  standing in for the "problem specific structure ... identifiable to a
  human but not to a compiler".

All return either cut points or an atom->rank assignment plus
:func:`imbalance` diagnostics.
"""

from __future__ import annotations

import numpy as np

from ..hpf.errors import DistributionError

__all__ = [
    "cg_balanced_partitioner_1",
    "capacity_scaled_partitioner",
    "lpt_partitioner",
    "edge_cut_partitioner",
    "imbalance",
    "assignment_imbalance",
]


def _check_weights(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise DistributionError("weights must be 1-D")
    if (weights < 0).any():
        raise DistributionError("weights must be non-negative")
    return weights


def _prefix_sums(weights: np.ndarray):
    """Running sums from 0, and whether the weights are integers (counts)."""
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    return prefix, bool((weights == np.floor(weights)).all())


def _greedy_cuts(prefix: np.ndarray, caps, integral: bool) -> np.ndarray:
    """Contiguous chunks in rank order, chunk ``r`` weighing <= ``caps[r]``.

    Each chunk starts where the last one ended and takes atoms while its
    weight fits: one ``searchsorted`` over the prefix sums per chunk.  The
    chunking covers every atom iff ``cuts[-1] == n``.  For integer weights
    the caps are floored first, so ``prefix[start] + cap`` is an exact
    integer and cannot round up past the next prefix value; below 2**53
    the cuts are then exactly those of a running-sum greedy loop.  Other
    weights compare rounded prefix sums, so where a chunk's weight ties its
    cap to within rounding a cut may sit one atom off from such a loop.
    """
    cuts = np.zeros(len(caps) + 1, dtype=np.int64)
    for r, cap in enumerate(np.floor(caps) if integral else caps):
        cuts[r + 1] = np.searchsorted(
            prefix, prefix[cuts[r]] + cap, side="right") - 1
    return cuts


def cg_balanced_partitioner_1(weights, nparts: int) -> np.ndarray:
    """Optimal contiguous chunking minimising the bottleneck weight.

    Parameters
    ----------
    weights:
        Per-atom load (nonzeros per column/row).
    nparts:
        Number of processors.

    Returns
    -------
    numpy.ndarray
        ``nparts + 1`` cut points; rank ``r`` owns atoms
        ``cuts[r]:cuts[r+1]``.  This is "a small array in the size of the
        number of processors [that] keeps the cut-off points, and it is
        replicated over all processors".

    Notes
    -----
    Binary search on the bottleneck capacity with a greedy feasibility
    check gives the optimal contiguous partition.  Each check is
    ``nparts`` searches over the prefix sums, so the whole search costs
    ``O(n + nparts log n log(sum w / min w))``.  Integer weights (the
    nonzero counts every caller passes) give exact checks and so the
    optimum; for other weights the bottleneck is optimal to within the
    rounding of the prefix sums.
    """
    weights = _check_weights(weights)
    if nparts < 1:
        raise DistributionError("nparts must be >= 1")
    n = weights.size
    if n == 0:
        return np.zeros(nparts + 1, dtype=np.int64)
    prefix, integral = _prefix_sums(weights)
    lo = float(weights.max())
    hi = float(prefix[-1])
    if lo == 0.0:
        return _even_cuts(n, nparts)
    # binary search over achievable bottleneck values
    for _ in range(64):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if _greedy_cuts(prefix, np.full(nparts, mid), integral)[-1] == n:
            hi = mid
        else:
            lo = mid
    cuts = _greedy_cuts(prefix, np.full(nparts, hi), integral)
    if cuts[-1] != n:
        raise DistributionError("internal error: infeasible capacity")
    return cuts


def _even_cuts(n: int, nparts: int) -> np.ndarray:
    k = -(-n // nparts)
    return np.minimum(np.arange(nparts + 1, dtype=np.int64) * k, n)


def capacity_scaled_partitioner(weights, capacities) -> np.ndarray:
    """Contiguous chunking for processors of *unequal* speed.

    The degraded-mode rebalancer's workhorse: a straggler running at
    ``1/f`` of nominal speed gets capacity ``1/f``, so the optimal
    bottleneck *time* (chunk weight divided by capacity) is minimised
    instead of the bottleneck weight.  With all capacities equal this
    reduces to :func:`cg_balanced_partitioner_1`.

    Parameters
    ----------
    weights:
        Per-atom load (nonzeros per row).
    capacities:
        Per-rank relative speeds (positive; 1.0 = nominal).

    Returns
    -------
    numpy.ndarray
        ``len(capacities) + 1`` cut points, rank-ordered.
    """
    weights = _check_weights(weights)
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.ndim != 1 or capacities.size == 0:
        raise DistributionError("capacities must be a non-empty 1-D array")
    if (capacities <= 0).any():
        raise DistributionError("capacities must be positive")
    n = weights.size
    prefix, integral = _prefix_sums(weights)
    if n == 0 or prefix[-1] == 0.0:
        return _even_cuts(n, capacities.size)
    # binary search on the bottleneck completion time T
    lo = 0.0
    hi = float(prefix[-1] / capacities.min())
    for _ in range(64):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if _greedy_cuts(prefix, mid * capacities, integral)[-1] == n:
            hi = mid
        else:
            lo = mid
    cuts = _greedy_cuts(prefix, hi * capacities, integral)
    if cuts[-1] != n:
        raise DistributionError("internal error: infeasible capacity bound")
    return cuts


def lpt_partitioner(weights, nparts: int, seed: int = None) -> np.ndarray:
    """Longest-Processing-Time greedy assignment (non-contiguous).

    Sorts atoms by decreasing weight and assigns each to the currently
    lightest processor.  Returns an atom->rank assignment array.  The
    4/3-approximate makespan usually beats contiguous chunking, but the
    distribution map is O(n_atoms) -- the storage trade-off the paper's
    atom distributions avoid.
    """
    weights = _check_weights(weights)
    if nparts < 1:
        raise DistributionError("nparts must be >= 1")
    order = np.argsort(-weights, kind="stable")
    loads = np.zeros(nparts)
    assign = np.empty(weights.size, dtype=np.int64)
    for atom in order:
        r = int(np.argmin(loads))
        assign[atom] = r
        loads[r] += weights[atom]
    return assign


def edge_cut_partitioner(matrix, nparts: int, seed: int = 0) -> np.ndarray:
    """Recursive Kernighan--Lin bisection on the sparsity graph.

    Balances *vertex* counts while heuristically minimising the edge cut
    (off-processor couplings), i.e. the communication a distributed
    mat-vec would pay.  ``nparts`` must be a power of two.  Returns a
    row->rank assignment array.
    """
    import networkx as nx

    if nparts < 1 or nparts & (nparts - 1):
        raise DistributionError("edge_cut_partitioner needs a power-of-two nparts")
    coo = matrix.to_coo()
    n = matrix.nrows
    g = nx.Graph()
    g.add_nodes_from(range(n))
    off = coo.rows != coo.cols
    g.add_edges_from(zip(coo.rows[off].tolist(), coo.cols[off].tolist()))
    assign = np.zeros(n, dtype=np.int64)

    def _bisect(nodes, base: int, parts: int, level: int) -> None:
        if parts == 1 or len(nodes) <= 1:
            for v in nodes:
                assign[v] = base
            return
        sub = g.subgraph(nodes)
        half_a, half_b = nx.algorithms.community.kernighan_lin_bisection(
            sub, seed=seed + level
        )
        _bisect(sorted(half_a), base, parts // 2, level + 1)
        _bisect(sorted(half_b), base + parts // 2, parts // 2, level + 1)

    _bisect(list(range(n)), 0, nparts, 0)
    return assign


def imbalance(weights, cuts) -> float:
    """Max/mean chunk weight for contiguous cut points (1.0 = perfect)."""
    weights = _check_weights(weights)
    cuts = np.asarray(cuts, dtype=np.int64)
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    loads = prefix[cuts[1:]] - prefix[cuts[:-1]]
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def assignment_imbalance(weights, assign, nparts: int) -> float:
    """Max/mean processor load for an atom->rank assignment."""
    weights = _check_weights(weights)
    loads = np.zeros(nparts)
    np.add.at(loads, np.asarray(assign, dtype=np.int64), weights)
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)
