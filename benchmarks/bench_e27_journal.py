"""E27 -- Write-ahead job journal overhead and replay cost.

PR 9 makes the service's accepted work survive a dead driver by
journaling every job lifecycle transition (``accepted`` / ``dispatched``
/ terminal) as one crash-safe frame appended to one CRC-framed log.
Durability that taxes the warm pool's throughput advantage (E24) would
defeat the point, so E27 pins two numbers:

* **journal overhead** -- the same warm-pool job stream as E24 through
  :class:`SolverService` with and without a journal.  The happy path
  writes exactly 3 records per job; with ``fsync=False`` (the bench and
  test policy the checkpoint store documents; records still survive
  process kill) the journaled stream must keep **>= 0.9x** the
  unjournaled solves/sec -- at most 10% overhead.  ``fsync=True``
  (power-loss durability) is reported informationally: its cost is the
  disk's flush latency, not the journal's bookkeeping.
* **replay cost** -- time for a fresh :class:`JobJournal` to load and
  fold a journal of L records (the restart path).  Reported as
  records/sec across journal lengths; replay must scale linearly, not
  quadratically, in journal length.

Paths are interleaved per trial (A/B/A/B, best-of over trials) so a
transient host stall cannot charge one path with the other's noise.
The CI ``service-crash-replay`` job re-runs this benchmark; the assert at
its end is the 10% gate.
"""

import time

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import Table
from repro.backend import process_backend_support
from repro.core import StoppingCriterion
from repro.service import JobJournal, JobSpec, SolverService, WarmPool
from repro.sparse import poisson1d

CRIT = StoppingCriterion(rtol=1e-8, maxiter=400)
N = 64          # the E24 stream: small solves where fixed tax dominates
NPROCS = 2
JOBS = 8
TRIALS = 3      # interleaved; best-of per path
TIMEOUT = 60.0
START = "spawn"
REPLAY_JOBS = (32, 128)   # journal lengths for the replay-cost probe
_OK, _DETAIL = process_backend_support(START)


def _problem():
    A = poisson1d(N)
    b = np.random.default_rng(27).standard_normal(A.nrows)
    return A, b


def _stream_seconds(A, b, journal_dir=None, journal_fsync=False):
    """One warmed service, JOBS timed submissions; returns elapsed s."""
    with SolverService(
        backend=WarmPool(NPROCS, timeout=TIMEOUT, start_method=START),
        target_nprocs=NPROCS,
        journal_dir=journal_dir,
        journal_fsync=journal_fsync,
    ) as svc:
        spec = dict(matrix=A, b=b, nprocs=NPROCS, criterion=CRIT)
        first = svc.solve(JobSpec(**spec), timeout=TIMEOUT)
        assert first.ok  # warm-up: generation build + imports excluded
        t0 = time.perf_counter()
        handles = [svc.submit(JobSpec(**spec)) for _ in range(JOBS)]
        results = [h.result(timeout=TIMEOUT) for h in handles]
        elapsed = time.perf_counter() - t0
        assert all(r.ok for r in results)
        for r in results:
            assert np.array_equal(r.x, first.x)  # journaling: same bits
    return elapsed


def _replay_seconds(tmp_path, jobs):
    """Build a journal of ``3 * jobs`` records; time a cold load."""
    A, b = _problem()
    path = str(tmp_path / f"journal-{jobs}")
    journal = JobJournal(path, fsync=False)
    for i in range(jobs):
        key = f"job-{i}"
        spec = JobSpec(matrix=A, b=b, nprocs=NPROCS, criterion=CRIT,
                       idempotency_key=key)
        journal.accepted(key, spec)
        journal.dispatched(key)
        if i % 2 == 0:   # half terminal, half pending: the restart mix
            journal.completed(key, None)
    t0 = time.perf_counter()
    reloaded = JobJournal(path, fsync=False)
    elapsed = time.perf_counter() - t0
    assert len(reloaded) == len(journal)
    assert len(reloaded.replayable()) == jobs // 2
    return len(reloaded), elapsed


@pytest.mark.skipif(not _OK, reason=f"process backend unavailable: {_DETAIL}")
def test_e27_journal_overhead(benchmark, tmp_path):
    A, b = _problem()

    best = {"plain": float("inf"), "journal": float("inf"),
            "fsync": float("inf")}
    for trial in range(TRIALS):
        best["plain"] = min(best["plain"], _stream_seconds(A, b))
        best["journal"] = min(best["journal"], _stream_seconds(
            A, b, journal_dir=str(tmp_path / f"j{trial}"),
        ))
        best["fsync"] = min(best["fsync"], _stream_seconds(
            A, b, journal_dir=str(tmp_path / f"jf{trial}"),
            journal_fsync=True,
        ))

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    plain_rate = JOBS / best["plain"]
    journal_rate = JOBS / best["journal"]
    fsync_rate = JOBS / best["fsync"]
    relative = journal_rate / plain_rate
    overhead_pct = max(0.0, (1.0 - relative) * 100.0)
    fsync_relative = fsync_rate / plain_rate

    replay = [_replay_seconds(tmp_path, jobs) for jobs in REPLAY_JOBS]

    t = Table(
        ["path", "jobs", "best (s)", "solves/sec", "vs no journal"],
        title=f"E27  journal overhead on the warm-pool stream "
        f"(poisson1d n={N}, P={NPROCS}, {JOBS} jobs, best of {TRIALS})",
    )
    t.add_row("no journal", JOBS, f"{best['plain']:.3f}",
              f"{plain_rate:.1f}", "1.00x")
    t.add_row("journal (fsync=False)", JOBS, f"{best['journal']:.3f}",
              f"{journal_rate:.1f}", f"{relative:.2f}x")
    t.add_row("journal (fsync=True)", JOBS, f"{best['fsync']:.3f}",
              f"{fsync_rate:.1f}", f"{fsync_relative:.2f}x")
    for records, elapsed in replay:
        t.add_row(f"replay load ({records} records)", records // 3,
                  f"{elapsed:.4f}",
                  f"{records / elapsed:.0f} rec/s", "-")
    record_table(
        "e27_journal", t,
        notes="The happy path journals 3 records/job (accepted, "
        "dispatched, terminal), each one CRC-framed append to the "
        "journal's log.  "
        "fsync=False survives process kill (the replay contract); "
        "fsync=True additionally survives power loss and pays the "
        "disk's flush latency per record.",
    )

    # the acceptance gate: durability must not tax the warm pool >10%
    assert relative >= 0.9, (
        f"journaled stream at {relative:.2f}x unjournaled throughput "
        f"({overhead_pct:.1f}% overhead; gate: <= 10%)"
    )
