"""SIGKILL the *service driver* mid-stream; replay from the journal.

The service-level mirror of ``test_resilient_hpcg.py``'s driver-restart
test: a child process runs a journaled :class:`SolverService`, submits a
keyed job stream, and SIGKILLs itself after a fixed number of
completions — deterministically leaving a mix of terminal, queued, and
possibly in-flight jobs in the journal.  A fresh service opened on the
same ``journal_dir`` must then complete **every accepted job exactly
once**: already-terminal jobs answer resubmissions from their recorded
results (never re-run), the rest replay and converge, and with
``reproducible=True`` every answer — recorded or replayed — is
bitwise-identical to an independent reference solve.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np

from repro.backend.chaos import _chaos_problem
from repro.backend.simulated import SimulatedBackend
from repro.backend.solve import backend_solve
from repro.core.stopping import StoppingCriterion
from repro.service import JobJournal, JobSpec, JobStatus, SolverService
from repro.service.journal import COMPLETED

JOBS = 8
KILL_AFTER = 3  # completions witnessed before the child SIGKILLs itself
N = 32
NPROCS = 4

_KILLED_DRIVER = textwrap.dedent("""
    import os, signal
    from repro.backend.chaos import _chaos_problem
    from repro.backend.simulated import SimulatedBackend
    from repro.core.stopping import StoppingCriterion
    from repro.service import JobSpec, SolverService

    JOBS, KILL_AFTER, N = %(jobs)d, %(kill_after)d, %(n)d
    A, b = _chaos_problem(N)
    svc = SolverService(
        backend=SimulatedBackend(),
        journal_dir=os.environ["JOURNAL_DIR"],
    ).start()
    handles = [
        svc.submit(JobSpec(
            matrix=A, b=b, tenant=f"t{i %% 2}", nprocs=%(nprocs)d,
            criterion=StoppingCriterion(rtol=1e-10, atol=0.0),
            reproducible=True, idempotency_key=f"job-{i}",
        ))
        for i in range(JOBS)
    ]
    # wait for the first KILL_AFTER completions, then die the hard way:
    # no drain, no park, no close -- the journal is all that survives
    for h in handles[:KILL_AFTER]:
        assert h.result(timeout=60.0).ok
    os.kill(os.getpid(), signal.SIGKILL)
    raise SystemExit("unreachable: the driver should have been killed")
""") % {"jobs": JOBS, "kill_after": KILL_AFTER, "n": N, "nprocs": NPROCS}


def test_sigkill_service_driver_then_replay(tmp_path):
    journal_dir = str(tmp_path / "journal")
    env = dict(os.environ, JOURNAL_DIR=journal_dir,
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_DRIVER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    # the dead driver journaled every accepted job; some are terminal
    journal = JobJournal(journal_dir)
    assert os.listdir(journal_dir) == ["journal.log"]
    keys = [f"job-{i}" for i in range(JOBS)]
    states = {k: journal.state(k) for k in keys}
    assert all(s is not None for s in states.values()), "lost accepted jobs"
    done_before = [k for k in keys if states[k].terminal == COMPLETED]
    pending = [k for k in keys if states[k].terminal is None]
    assert len(done_before) >= KILL_AFTER  # the witnessed completions
    assert pending, "kill came too late: nothing left to replay"
    assert len(done_before) + len(pending) == JOBS

    # an independent reference: reproducible reductions make the answer
    # bitwise-identical no matter which driver generation computes it
    A, b = _chaos_problem(N)
    crit = StoppingCriterion(rtol=1e-10, atol=0.0)
    ref = backend_solve("cg", A, b, backend="simulated", nprocs=NPROCS,
                        criterion=crit, reproducible=True).x

    # restart on the same journal: pending jobs replay, terminal jobs
    # answer resubmissions from the record -- each job exactly once
    with SolverService(backend=SimulatedBackend(),
                       journal_dir=journal_dir) as svc:
        assert svc.counters.replayed == len(pending)
        resubmitted = [
            svc.submit(JobSpec(
                matrix=A, b=b, tenant=f"t{i % 2}", nprocs=NPROCS,
                criterion=crit, reproducible=True,
                idempotency_key=f"job-{i}",
            ))
            for i in range(JOBS)
        ]
        results = {k: h.result(timeout=120.0)
                   for k, h in zip(keys, resubmitted)}
    # every resubmission joined an existing (live or recorded) job
    assert svc.counters.deduped == JOBS
    assert svc.counters.submitted == 0
    # no duplicated completions: only the pending jobs ran this time
    assert svc.counters.completed == len(pending)
    assert svc.counters.quarantined == 0

    for key in keys:
        res = results[key]
        assert res.status == JobStatus.OK, (key, res.status, res.error)
        np.testing.assert_array_equal(res.x, ref)  # bitwise, both paths

    # the journal agrees: every job has exactly one terminal record path
    final = JobJournal(journal_dir)
    assert all(final.state(k).terminal == COMPLETED for k in keys)
    assert final.replayable() == []

    # a third generation finds nothing to do
    with SolverService(backend=SimulatedBackend(),
                       journal_dir=journal_dir) as svc3:
        assert svc3.counters.replayed == 0
