"""E23 -- Single-reduction (fused) CG vs classic two-reduction CG.

The paper's cost analysis makes the per-iteration inner-product
reductions the latency bottleneck of distributed CG; the fused
Chronopoulos--Gear recurrence (``solve --fused``) packs all of them into
**one** batched allreduce per iteration (``spmd.allreduce_vec``).  E23
pins the claim three ways:

* **counts** -- a tag-counted scheduler run shows exactly ``iters + 1``
  allreduce trees for fused vs ``2 + 2 iters`` for classic, identical
  iteration counts, and the same solution;
* **model** -- the measured simulated-time saving per iteration matches
  :func:`repro.analysis.fused_cg_saving_per_iteration`
  (``2 ceil(log2 P) t_startup - 2 (n/P) t_flop``) to well under a
  percent;
* **reality** -- on the real-process backend the fused variant stays
  bitwise cross-backend deterministic, and with a calibrated cost model
  the modelled saving is compared against measured wall clock.

The count identities are asserts here at P in {2, 4, 8} (the CI
``fused-cg`` job runs this module) and in
``tests/test_fused_cg.py::TestSingleAllreducePerIteration``; CI
byte-diffs the counted table ``e23_fused_cg``.  E23b's measured columns
vary with host load and are not diffed.
"""

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import (
    Table,
    classic_cg_iteration_time,
    fused_cg_iteration_time,
    fused_cg_saving_per_iteration,
)
from repro.backend import (
    ProcessBackend,
    SimulatedBackend,
    TagCountingProgram,
    allreduce_trees,
    calibrate_host,
    cross_validate,
    process_backend_support,
)
from repro.backend.programs import CGRankProgram
from repro.core import StoppingCriterion
from repro.machine.costmodel import CostModel
from repro.sparse import poisson2d

CRIT = StoppingCriterion(rtol=1e-8, maxiter=400)
SIDE = 16  # poisson2d(16, 16): n = 256
_OK, _DETAIL = process_backend_support()


def _problem():
    A = poisson2d(SIDE, SIDE)
    b = np.random.default_rng(23).standard_normal(A.nrows)
    return A, b


def _counted_run(backend, A, b, nprocs, fused):
    prog = TagCountingProgram(CGRankProgram(A, b, criterion=CRIT, fused=fused))
    run = backend.run(prog, nprocs)
    x = np.concatenate([r["result"][0] for r in run.results])
    iters = run.results[0]["result"][3]
    converged = run.results[0]["result"][2]
    trees = allreduce_trees(run.results, nprocs)
    return x, iters, converged, trees, run.elapsed


def test_e23_fused_vs_classic_simulated(benchmark):
    A, b = _problem()
    be = SimulatedBackend()
    cost = CostModel()
    n, nnz = A.nrows, A.nnz

    benchmark(lambda: _counted_run(be, A, b, 4, fused=True))

    t = Table(
        ["P", "iters", "allreduce classic", "allreduce fused", "ratio",
         "sim classic (s)", "sim fused (s)", "saving/iter meas",
         "saving/iter model"],
        title=f"E23  single-reduction CG vs classic (poisson2d "
        f"{SIDE}x{SIDE}, n={n})",
    )
    for nprocs in (2, 4, 8):
        xc, ic, cc, trees_c, el_c = _counted_run(be, A, b, nprocs, False)
        xf, if_, cf, trees_f, el_f = _counted_run(be, A, b, nprocs, True)
        assert cc and cf and ic == if_
        # the headline invariant: exactly one allreduce per iteration
        # (plus the single setup reduction b.b rides along in), vs two
        # per iteration plus two at setup for classic
        assert trees_f == if_ + 1, (trees_f, if_)
        assert trees_c == 2 + 2 * ic, (trees_c, ic)
        # same Krylov iterates: the recurrences agree far below rtol
        assert float(np.max(np.abs(xc - xf))) < 1e-10
        meas_saving = (el_c - el_f) / ic
        model_saving = fused_cg_saving_per_iteration(n, nprocs, cost)
        assert meas_saving == pytest.approx(model_saving, rel=0.05)
        # absolute per-iteration closed forms stay within a few percent
        # (the small residue is setup amortisation)
        assert el_c / ic == pytest.approx(
            classic_cg_iteration_time(n, nnz, nprocs, cost), rel=0.05)
        assert el_f / if_ == pytest.approx(
            fused_cg_iteration_time(n, nnz, nprocs, cost), rel=0.05)
        t.add_row(nprocs, ic, int(trees_c), int(trees_f),
                  f"{trees_f / trees_c:.3f}", f"{el_c:.3e}", f"{el_f:.3e}",
                  f"{meas_saving:.3e}", f"{model_saving:.3e}")
    record_table(
        "e23_fused_cg", t,
        notes="Fused = Chronopoulos-Gear recurrence: gamma = r.r and "
        "delta = (A r).r travel in ONE packed allreduce_vec per iteration "
        "(b.b rides along on the setup trip).  The modelled saving "
        "2 L t_startup - 2 (n/P) t_flop matches the simulator to <1%.",
    )


@pytest.mark.skipif(not _OK, reason=f"process backend unavailable: {_DETAIL}")
def test_e23b_fused_process_calibrated(benchmark):
    A, b = _problem()
    proc = ProcessBackend(timeout=120.0)

    cal = benchmark.pedantic(
        lambda: calibrate_host(repeats=5, flop_n=500_000),
        rounds=1, iterations=1,
    )
    sim = SimulatedBackend(cost=cal.as_cost_model())

    t = Table(
        ["P", "variant", "bitwise", "iters", "modelled host (s)",
         "measured (s)", "ratio"],
        title=f"E23b  fused CG on real processes, host-calibrated model "
        f"(t_startup={cal.t_startup:.2e}s, t_comm={cal.t_comm:.2e}s/word, "
        f"t_flop={cal.t_flop:.2e}s)",
    )
    for nprocs in (2, 4):
        for fused in (False, True):
            cv = cross_validate("cg", A, b, nprocs=nprocs, criterion=CRIT,
                                simulated=sim, process=proc, fused=fused)
            assert cv.bitwise_equal
            label = "fused" if fused else "classic"
            t.add_row(nprocs, label, "yes", cv.process.iterations,
                      f"{cv.modelled['total']:.3e}",
                      f"{cv.measured['total']:.3e}", f"{cv.time_ratio:.2f}")
    record_table(
        "e23b_fused_process", t,
        notes="Both variants stay bitwise-deterministic across substrates. "
        "Measured rows vary with host load and are not diffed; the "
        "deterministic allreduce counts are pinned by E23's asserts.",
    )
