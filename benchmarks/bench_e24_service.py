"""E24 -- Warm-pool service throughput vs one-shot process execution.

The persistent solver service exists because a one-shot
:class:`ProcessBackend` run pays per solve what the warm pool pays once:
fork/spawn of P rank processes, P+1 queues, a barrier, NumPy warm-up and
a full reap.  For the small solves that dominate a multi-user stream,
that fixed tax is the bill.  E24 pins the claim:

* **throughput** -- N back-to-back solves of the same (n, P) system,
  one-shot (fresh backend per job) vs warm pool (one generation serves
  all N): warm must clear **>= 2x** solves/sec;
* **full stack** -- the same stream through :class:`SolverService`
  (queue, dispatcher, retry/breaker accounting) to show the service
  layers add negligible overhead on top of the pool;
* **determinism** -- every solve, on every path, is bitwise-identical
  (same program, same substrate; reuse must not perturb results).

The CI ``service-soak`` job re-runs this benchmark; the assert at its
end is the 2x floor.  Pool throughput across commits is judged by the
layered benchmark's ``service_stream`` workload (``jobs_per_s``), not by
a baseline committed from some other host.
"""

import time

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import Table
from repro.backend import ProcessBackend, process_backend_support
from repro.backend.solve import make_solver_program
from repro.core import StoppingCriterion
from repro.service import JobSpec, SolverService, WarmPool
from repro.sparse import poisson1d

CRIT = StoppingCriterion(rtol=1e-8, maxiter=400)
N = 64          # small on purpose: per-solve process tax must dominate
NPROCS = 2
JOBS = 8
TIMEOUT = 60.0
# ``spawn`` for every path: it is the portable start method (the only one
# on macOS/Windows) and the one a production service would use -- and it
# makes the per-job tax the warm pool amortises (fresh interpreter +
# NumPy import per rank) explicit rather than hidden behind Linux fork.
START = "spawn"
_OK, _DETAIL = process_backend_support(START)


def _problem():
    A = poisson1d(N)
    b = np.random.default_rng(24).standard_normal(A.nrows)
    return A, b


def _bitwise_equal(results, ref):
    """Per-rank ``(x_block, residuals, converged, iterations)`` equality."""
    return len(results) == len(ref) and all(
        np.array_equal(a[0], b[0])
        and list(a[1]) == list(b[1])
        and a[2] == b[2]
        and a[3] == b[3]
        for a, b in zip(results, ref)
    )


@pytest.mark.skipif(not _OK, reason=f"process backend unavailable: {_DETAIL}")
def test_e24_warm_pool_vs_one_shot(benchmark):
    A, b = _problem()
    program = make_solver_program("cg", A, b, criterion=CRIT)

    # -- one-shot: a fresh backend (fresh processes) per job ---------- #
    def one_shot_job():
        return ProcessBackend(timeout=TIMEOUT, start_method=START).run(program, NPROCS)

    ref = one_shot_job().results  # warm the imports/page cache once
    t0 = time.perf_counter()
    for _ in range(JOBS):
        run = one_shot_job()
        assert _bitwise_equal(run.results, ref)
    one_shot_s = time.perf_counter() - t0

    # -- warm pool: one generation serves every job ------------------- #
    with WarmPool(NPROCS, timeout=TIMEOUT, start_method=START) as pool:
        warm_run = pool.run(program, NPROCS)  # generation build excluded
        assert _bitwise_equal(warm_run.results, ref)  # reuse: same bits
        t0 = time.perf_counter()
        for _ in range(JOBS):
            run = pool.run(program, NPROCS)
            assert _bitwise_equal(run.results, ref)
        warm_s = time.perf_counter() - t0
        assert pool.rebuilds == 1  # the whole stream rode one generation

    # -- full service stack over the same pool ------------------------ #
    with SolverService(
        backend=WarmPool(NPROCS, timeout=TIMEOUT, start_method=START),
        target_nprocs=NPROCS
    ) as svc:
        first = svc.solve(
            JobSpec(matrix=A, b=b, nprocs=NPROCS, criterion=CRIT),
            timeout=TIMEOUT,
        )
        assert first.ok
        t0 = time.perf_counter()
        handles = [
            svc.submit(JobSpec(matrix=A, b=b, nprocs=NPROCS, criterion=CRIT))
            for _ in range(JOBS)
        ]
        results = [h.result(timeout=TIMEOUT) for h in handles]
        service_s = time.perf_counter() - t0
        assert all(r.ok for r in results)
        x_ref = np.concatenate([blk[0] for blk in ref])[:N]
        for r in results:
            assert np.array_equal(r.x, x_ref)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    one_shot_rate = JOBS / one_shot_s
    warm_rate = JOBS / warm_s
    service_rate = JOBS / service_s
    speedup = warm_rate / one_shot_rate
    service_speedup = service_rate / one_shot_rate

    t = Table(
        ["path", "jobs", "elapsed (s)", "solves/sec", "vs one-shot"],
        title=f"E24  warm-pool service throughput (poisson1d n={N}, "
        f"P={NPROCS}, {JOBS} jobs)",
    )
    t.add_row("one-shot process", JOBS, f"{one_shot_s:.3f}",
              f"{one_shot_rate:.1f}", "1.00x")
    t.add_row("warm pool", JOBS, f"{warm_s:.3f}",
              f"{warm_rate:.1f}", f"{speedup:.2f}x")
    t.add_row("service (queue+retry)", JOBS, f"{service_s:.3f}",
              f"{service_rate:.1f}", f"{service_speedup:.2f}x")
    record_table(
        "e24_service", t,
        notes="One-shot pays worker start-up (fresh interpreter + NumPy "
        "import under spawn) + queue/barrier construction + reap per "
        "solve; the warm pool pays it once per generation.  All three "
        "paths return bitwise-identical solutions.",
    )

    # the acceptance floor: a warm pool must at least double throughput
    assert speedup >= 2.0, (
        f"warm pool only {speedup:.2f}x one-shot (floor: 2.0x)"
    )
