"""The prefix-sum partitioners cut exactly where the greedy loops cut.

``cg_balanced_partitioner_1`` and ``capacity_scaled_partitioner`` used to
check each bisection step with a Python loop over every atom.  The three
loops are kept below, verbatim, as the reference; the partitioners now find
each chunk's end with one ``searchsorted`` over the prefix sums.

What is asserted:

* **Integer weights** (nonzero counts, which is all that the solvers pass):
  identical cut arrays from both partitioners on seeded cases, edge cases,
  unequal capacities and the generators' own row/column weights, and
  identical verdicts from the chunker at caps within 1e-10 of an integer,
  where ``prefix[start] + cap`` would round up to the integer without the
  floor the chunker applies.
* **Other weights**: the cuts are valid (monotone, covering every atom)
  and the bottleneck matches the reference's to within the rounding of the
  prefix sums -- a cut may sit one atom off where a chunk's weight ties the
  capacity within rounding, so the arrays themselves are not compared.
"""

import numpy as np
import pytest

from repro.extensions import capacity_scaled_partitioner, cg_balanced_partitioner_1
from repro.extensions.partitioners import _even_cuts, _greedy_cuts, _prefix_sums
from repro.sparse import irregular_powerlaw, nas_cg_style


# ---------------------------------------------------------------------- #
# reference: the greedy loops and bisections as they were
# ---------------------------------------------------------------------- #
def _feasible(weights, nparts, cap):
    parts = 1
    acc = 0.0
    for w in weights:
        if w > cap:
            return False
        if acc + w > cap:
            parts += 1
            acc = w
            if parts > nparts:
                return False
        else:
            acc += w
    return True


def _cuts_for_cap(weights, nparts, cap):
    starts = [0]
    acc = 0.0
    for i, w in enumerate(weights):
        if acc + w > cap and acc > 0:
            starts.append(i)
            acc = w
        else:
            acc += w
    assert len(starts) <= nparts
    cuts = starts + [int(weights.size)] * (nparts + 1 - len(starts))
    return np.asarray(cuts, dtype=np.int64)


def _capacity_feasible(weights, capacities, t, cuts_out=None):
    starts = [0]
    i = 0
    n = weights.size
    for r in range(capacities.size):
        cap = t * capacities[r]
        acc = 0.0
        while i < n and acc + weights[i] <= cap:
            acc += weights[i]
            i += 1
        starts.append(i)
    if cuts_out is not None:
        cuts_out[:] = starts
    return i == n


def ref_balanced(weights, nparts):
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    if n == 0:
        return np.zeros(nparts + 1, dtype=np.int64)
    lo = float(weights.max())
    hi = float(weights.sum())
    if lo == 0.0:
        return _even_cuts(n, nparts)
    for _ in range(64):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if _feasible(weights, nparts, mid):
            hi = mid
        else:
            lo = mid
    cuts = _cuts_for_cap(weights, nparts, hi)
    cuts[0] = 0
    cuts[-1] = n
    return cuts


def ref_capacity(weights, capacities):
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    nparts = capacities.size
    n = weights.size
    if n == 0 or weights.sum() == 0.0:
        return _even_cuts(n, nparts)
    lo = 0.0
    hi = float(weights.sum() / capacities.min())
    for _ in range(64):
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if _capacity_feasible(weights, capacities, mid):
            hi = mid
        else:
            lo = mid
    cuts = [0] * (nparts + 1)
    assert _capacity_feasible(weights, capacities, hi, cuts_out=cuts)
    cuts[0], cuts[-1] = 0, n
    return np.asarray(cuts, dtype=np.int64)


# ---------------------------------------------------------------------- #
# integer-weight cases
# ---------------------------------------------------------------------- #
def _seeded_cases():
    cases = []
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 90))
        hi = int(rng.choice([2, 10, 1000, 10**6]))
        w = rng.integers(0, hi, size=n).astype(float)
        if seed % 3 == 0:  # runs of zeros
            w[rng.random(n) < 0.4] = 0.0
        cases.append((f"seed{seed}", w, int(rng.integers(1, 10))))
    return cases


EDGE_CASES = [
    ("zero-runs", np.array([0, 0, 3, 0, 0, 0, 5, 1, 0, 0, 2, 0], float), 3),
    ("all-zero", np.zeros(9), 4),
    ("nparts>n", np.array([4.0, 1.0, 7.0]), 8),
    ("one-atom", np.array([6.0]), 3),
    ("heavy-atom", np.array([1, 1, 1, 500, 1, 1, 1, 1], float), 3),
    ("heavy-first", np.array([900, 1, 2, 3, 4, 5], float), 4),
    ("heavy-last", np.array([1, 2, 3, 4, 5, 900], float), 2),
    ("uniform", np.ones(12), 4),
    ("large-counts", np.full(40, 2.0**40) + np.arange(40), 7),
]

INTEGER_CASES = EDGE_CASES + _seeded_cases()


@pytest.mark.parametrize(
    "weights,nparts", [c[1:] for c in INTEGER_CASES],
    ids=[c[0] for c in INTEGER_CASES],
)
def test_balanced_cuts_match_greedy_loops(weights, nparts):
    assert np.array_equal(
        cg_balanced_partitioner_1(weights, nparts), ref_balanced(weights, nparts)
    )


@pytest.mark.parametrize("slow", [0.25, 1.0 / 3.0])
@pytest.mark.parametrize(
    "weights,nparts", [c[1:] for c in INTEGER_CASES],
    ids=[c[0] for c in INTEGER_CASES],
)
def test_capacity_cuts_match_greedy_loops(weights, nparts, slow):
    capacities = np.ones(nparts)
    capacities[nparts // 2] = slow
    assert np.array_equal(
        capacity_scaled_partitioner(weights, capacities),
        ref_capacity(weights, capacities),
    )


@pytest.mark.parametrize("nparts", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("family", [nas_cg_style, irregular_powerlaw])
def test_generator_weights_match_greedy_loops(family, nparts):
    m = family(2000)
    for weights in (m.to_csc().col_lengths().astype(float),
                    m.to_csr().row_lengths().astype(float)):
        assert np.array_equal(
            cg_balanced_partitioner_1(weights, nparts),
            ref_balanced(weights, nparts),
        )
        capacities = np.ones(nparts)
        capacities[-1] = 0.25
        assert np.array_equal(
            capacity_scaled_partitioner(weights, capacities),
            ref_capacity(weights, capacities),
        )


@pytest.mark.parametrize("offset", [-1e-10, -1e-12, 0.0, 1e-12, 1e-10])
@pytest.mark.parametrize("base", [0.0, 1e6, 1e9])
def test_chunker_matches_loops_at_caps_near_an_integer(base, offset):
    """At a large prefix value, ``prefix[start] + (k - 1e-10)`` rounds to
    ``prefix[start] + k``: without the floor a chunk weighing exactly ``k``
    would pass a cap just below ``k``."""
    weights = np.random.default_rng(5).integers(1, 6, size=60).astype(float)
    integral = _prefix_sums(weights)[1]
    assert integral
    prefix = base + np.concatenate([[0.0], np.cumsum(weights)])  # exact
    capacities = np.array([1.0, 0.25, 1.0 / 3.0, 1.0, 3.0] * 8)
    for k in range(1, 16):
        cap = float(k) + offset
        for nparts in (2, 5, 21, 61):
            cuts = _greedy_cuts(prefix, np.full(nparts, cap), integral)
            assert (cuts[-1] == weights.size) == _feasible(weights, nparts, cap)
            if cuts[-1] == weights.size:
                assert cuts.tolist() == _cuts_for_cap(weights, nparts, cap).tolist()
        ref = [0] * (capacities.size + 1)
        ok = _capacity_feasible(weights, capacities, cap, cuts_out=ref)
        cuts = _greedy_cuts(prefix, cap * capacities, integral)
        assert (cuts[-1] == weights.size) == ok
        assert cuts.tolist() == ref


# ---------------------------------------------------------------------- #
# non-integer weights: valid cuts, bottleneck within rounding
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(25))
def test_fractional_weights_give_valid_near_identical_cuts(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 80))
    weights = rng.random(n) * float(rng.choice([0.01, 1.0, 300.0]))
    nparts = int(rng.integers(2, 9))
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    for cuts, ref in (
        (cg_balanced_partitioner_1(weights, nparts), ref_balanced(weights, nparts)),
        (capacity_scaled_partitioner(weights, np.ones(nparts)),
         ref_capacity(weights, np.ones(nparts))),
    ):
        assert cuts[0] == 0 and cuts[-1] == n and (np.diff(cuts) >= 0).all()
        got = (prefix[cuts[1:]] - prefix[cuts[:-1]]).max()
        want = (prefix[ref[1:]] - prefix[ref[:-1]]).max()
        assert got == pytest.approx(want, rel=1e-8)


def test_fractional_weights_on_one_part():
    """The old search started from ``weights.sum()``, which pairwise
    summation can round below the running sum the loop compares against:
    one part then failed as an "infeasible capacity".  The search now
    starts from the last prefix sum, the value the chunker compares."""
    for seed in (1002, 1017):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        weights = rng.random(n) * float(rng.choice([0.01, 1.0, 300.0]))
        assert weights.sum() < np.cumsum(weights)[-1]
        assert cg_balanced_partitioner_1(weights, 1).tolist() == [0, n]
        assert capacity_scaled_partitioner(weights, [0.5]).tolist() == [0, n]
