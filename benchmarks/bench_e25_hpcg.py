"""E25 -- HPCG-class workload: MG-CG vs Jacobi-CG with phase accounting.

The HPCG subsystem's two quantitative claims, pinned in one run over the
``stencil27`` operator on a 16^3 grid:

* **preconditioner quality** -- geometric multigrid must converge in
  measurably fewer CG iterations than Jacobi (HPCG's whole point: the
  V-cycle wipes out the smooth error modes a diagonal scale cannot see).
  The exact counts (mg 12, jacobi 24 here) are pinned in
  ``tests/test_multigrid.py``; this run asserts mg < jacobi.
* **phase decomposition** -- an HPCG-style timing split (setup / SpMV /
  MG / dot) per configuration, so the cost of the V-cycle and of the
  superaccumulator dots is visible rather than folded into one total.

The reproducible run is also checked for its defining property here:
its per-iteration scalars are *bitwise identical* across p in {1, 4} --
the cheap end of the full matrix ``tests/test_hpcg_bitwise.py`` pins.

The CI ``hpcg-reproducible`` job runs this module and its asserts; the
phase columns are wall clock and not diffed.
"""

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import Table
from repro.hpcg import hpcg_solve

SHAPE = 16
NPROCS = 4


def _phases(res):
    return dict(res.extras["hpcg"]["phase_seconds"])


def _run(precond, reproducible=False, nprocs=NPROCS):
    return hpcg_solve(
        SHAPE, nprocs=nprocs, precond=precond, reproducible=reproducible)


def test_e25_hpcg_phases(benchmark):
    runs = {
        "none": _run("none"),
        "jacobi": _run("jacobi"),
        "mg": _run("mg"),
        "mg+repro": _run("mg", reproducible=True),
    }
    for label, res in runs.items():
        assert res.converged, f"{label} failed to converge"

    mg_iters = runs["mg"].iterations
    jacobi_iters = runs["jacobi"].iterations
    assert mg_iters < jacobi_iters

    # reproducible scalars: bitwise invariant to rank count
    repro1 = _run("mg", reproducible=True, nprocs=1)
    h4, h1 = runs["mg+repro"].extras["hpcg"], repro1.extras["hpcg"]
    assert h4["alphas"] == h1["alphas"]
    assert h4["betas"] == h1["betas"]
    assert np.array_equal(runs["mg+repro"].x, repro1.x)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    t = Table(
        ["precond", "iters", "setup (s)", "spmv (s)", "mg (s)", "dot (s)",
         "resid"],
        title=f"E25  HPCG phases (stencil27 {SHAPE}^3, P={NPROCS})",
    )
    for label, res in runs.items():
        ph = _phases(res)
        t.add_row(
            label, res.iterations, f"{ph['setup']:.3f}",
            f"{ph['spmv']:.3f}", f"{ph['mg']:.3f}", f"{ph['dot']:.3f}",
            f"{res.history.residual_norms[-1]:.2e}",
        )
    record_table(
        "e25_hpcg", t,
        notes="MG trades per-iteration V-cycle work for a large drop in "
        "iteration count; the reproducible run pays the superaccumulator "
        "tax in the dot phase and buys bitwise invariance to rank count, "
        "fusion and substrate.",
    )
