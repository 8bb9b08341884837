"""Write-ahead job journal: lifecycle records, replay, dedupe, quarantine.

Fast deterministic coverage on the simulated backend; the real
SIGKILL-the-driver test lives in ``test_service_crash_replay.py``.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.backend.base import ExecutionBackend, WorkerCrashedError
from repro.backend.chaos import _chaos_problem
from repro.backend.simulated import SimulatedBackend
from repro.core.stopping import StoppingCriterion
from repro.hpcg import hpcg_solve
from repro.service import (
    JobJournal,
    JobQuarantinedError,
    JobSpec,
    JobStatus,
    RetryPolicy,
    ServiceOverloadedError,
    SolverService,
    TenantFairQueue,
    new_idempotency_key,
)
from repro.service.journal import (
    _MAGIC,
    ACCEPTED,
    COMPLETED,
    DISPATCHED,
    FAILED,
    QUARANTINED,
)


def _spec(tenant="t0", key=None, **kw):
    A, b = _chaos_problem(32)
    return JobSpec(matrix=A, b=b, tenant=tenant, nprocs=4,
                   criterion=StoppingCriterion(rtol=1e-10, atol=0.0),
                   idempotency_key=key, **kw)


def _service(tmp_path, **kw):
    kw.setdefault("backend", SimulatedBackend())
    kw.setdefault("journal_dir", str(tmp_path / "journal"))
    return SolverService(**kw)


class TestRecordLifecycle:
    def test_happy_path_is_three_records(self, tmp_path):
        with _service(tmp_path) as svc:
            assert svc.solve(_spec(key="k"), timeout=30.0).ok
        journal = JobJournal(str(tmp_path / "journal"))
        assert len(journal) == 3  # accepted + dispatched + completed
        state = journal.state("k")
        assert state.terminal == COMPLETED
        assert state.dispatches == 1
        assert state.attempts == []  # ok attempts are not journaled
        assert state.condemnations == 0
        assert os.listdir(tmp_path / "journal") == ["journal.log"]

    def test_failed_attempts_are_journaled(self, tmp_path):
        class AlwaysCrash(ExecutionBackend):
            name = "crash"

            def run(self, program, nprocs, *, checkpoints=None, options=None):
                raise WorkerCrashedError(0, "injected")

        with _service(
            tmp_path, backend=AlwaysCrash(),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                              max_delay=0.002),
        ) as svc:
            res = svc.solve(_spec(key="k"), timeout=30.0)
        assert res.status == JobStatus.FAILED
        journal = JobJournal(str(tmp_path / "journal"))
        state = journal.state("k")
        assert state.terminal == FAILED
        assert [a["outcome"] for a in state.attempts] == [
            "worker_crashed", "worker_crashed"
        ]
        # no pool on this backend: crashes are not condemnation evidence
        assert state.condemnations == 0

    def test_overload_rejection_does_not_poison_the_key(self, tmp_path):
        # a transient queue-full must not permanently fail the key: the
        # rejection is non-terminal for idempotency, so a resubmission
        # re-attempts instead of deduping to the stale rejection
        svc = _service(tmp_path, queue=TenantFairQueue(max_depth=1))
        svc.start()
        try:
            rejected_key = None
            for i in range(50):
                try:
                    svc.submit(_spec(key=f"k{i}"))
                except ServiceOverloadedError:
                    rejected_key = f"k{i}"
                    break
            assert rejected_key is not None
            # the key was released, not bound to the rejection
            assert svc.handle_for(rejected_key) is None
            handle = None
            for _ in range(200):
                try:
                    handle = svc.submit(_spec(key=rejected_key))
                    break
                except ServiceOverloadedError:
                    time.sleep(0.02)
            assert handle is not None, "resubmission never accepted"
            assert svc.counters.deduped == 0
            assert handle.result(timeout=30.0).ok
        finally:
            svc.shutdown()
        journal = JobJournal(str(tmp_path / "journal"))
        assert journal.state(rejected_key).terminal == COMPLETED

    def test_rejected_job_is_replayed_by_restart(self, tmp_path):
        # without a resubmission, the rejected job's ACCEPTED record
        # stays non-terminal -- parked-like, a restart completes it
        svc = _service(tmp_path, queue=TenantFairQueue(max_depth=1))
        svc.start()
        rejected_key = None
        try:
            for i in range(50):
                try:
                    svc.submit(_spec(key=f"k{i}"))
                except ServiceOverloadedError:
                    rejected_key = f"k{i}"
                    break
            assert rejected_key is not None
        finally:
            svc.shutdown()
        journal = JobJournal(str(tmp_path / "journal"))
        assert journal.state(rejected_key).terminal is None
        with _service(tmp_path) as svc2:
            assert svc2.counters.replayed == 1
            assert svc2.handle_for(rejected_key).result(timeout=30.0).ok

    def test_auto_keys_are_unique(self):
        keys = {new_idempotency_key() for _ in range(64)}
        assert len(keys) == 64
        assert all(k.startswith("auto-") for k in keys)


class TestParentRecordReplays:
    """A record written before ``JobSpec`` moved still replays.

    The bytes below are one ``accepted`` record as the service wrote it,
    as its own ``jrn-<seq>.rec`` file, when ``JobSpec`` lived in
    ``repro.service.service``: its spec pickled under that class path.
    It is a 4x4x4 stencil27 job on 2 ranks, Jacobi-preconditioned, rtol
    1e-10, key ``parent-record``.  Without its 8-byte sequence key after
    the magic it is one frame of the append-only log.
    """

    _PARENT_RECORD = (
        b'RPJRNL1\n\x00\x00\x00\x00\x00\x00\x00\x00!\x02\x00\x00\x00'
        b'\x00\x00\x00\xd7\x17\xa90\x80\x05\x95\x16\x02\x00\x00\x00'
        b'\x00\x00\x00}\x94(\x8c\x05event\x94\x8c\x08accepted\x94\x8c'
        b'\x03key\x94\x8c\rparent-record\x94\x8c\x04spec\x94\x8c\x15r'
        b'epro.service.service\x94\x8c\x07JobSpec\x94\x93\x94)\x81'
        b'\x94}\x94(\x8c\x06matrix\x94N\x8c\x01b\x94N\x8c\x06tenant'
        b'\x94\x8c\x02t0\x94\x8c\x06solver\x94\x8c\x02cg\x94\x8c\x06n'
        b'procs\x94K\x02\x8c\x02x0\x94N\x8c\tcriterion\x94\x8c\x13rep'
        b'ro.core.stopping\x94\x8c\x11StoppingCriterion\x94\x93\x94)'
        b'\x81\x94}\x94(\x8c\x04rtol\x94G=\xdb|\xdf\xd9\xd7\xbd\xbb'
        b'\x8c\x04atol\x94G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\x07ma'
        b'xiter\x94Nub\x8c\x05fused\x94\x89\x8c\x06faults\x94N\x8c\nr'
        b'esilience\x94N\x8c\x06policy\x94\x8c\x07respawn\x94\x8c\tmi'
        b'n_ranks\x94K\x01\x8c\x08deadline\x94N\x8c\x12straggler_dead'
        b'line\x94N\x8c\x12heartbeat_interval\x94N\x8c\x13crash_on_ch'
        b'eckpoint\x94}\x94\x8c\x08scenario\x94\x8c\tstencil27\x94'
        b'\x8c\x05shape\x94K\x04K\x04K\x04\x87\x94\x8c\x07precond\x94'
        b'\x8c\x06jacobi\x94\x8c\x0creproducible\x94\x89\x8c\x04abft'
        b'\x94\x89\x8c\x0echeckpoint_dir\x94N\x8c\x0fidempotency_key'
        b'\x94h\x04ubh\rh\x0eu.'
    )

    def test_per_record_directory_is_refused(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "jrn-0000000000.rec").write_bytes(
            self._PARENT_RECORD)
        with pytest.raises(ValueError, match="jrn-0000000000.rec"):
            JobJournal(str(journal_dir))

    def test_replays_and_solves_bitwise(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "journal.log").write_bytes(
            self._PARENT_RECORD[:8] + self._PARENT_RECORD[16:])
        assert type(JobJournal(str(journal_dir)).state(
            "parent-record").spec) is JobSpec
        with _service(tmp_path) as svc:
            res = svc.handle_for("parent-record").result(timeout=30.0)
        assert res.ok and res.nprocs_final == 2
        ref = hpcg_solve((4, 4, 4), backend="simulated", nprocs=2,
                         precond="jacobi",
                         criterion=StoppingCriterion(rtol=1e-10, atol=0.0))
        assert res.x.tobytes() == ref.x.tobytes()


class TestDedupe:
    def test_live_dedupe_returns_same_handle(self, tmp_path):
        with _service(tmp_path) as svc:
            h1 = svc.submit(_spec(key="same"))
            h2 = svc.submit(_spec(key="same"))
            assert h2 is h1
            assert svc.counters.deduped == 1
            assert h1.result(timeout=30.0).ok
        # deduped submit wrote no second ACCEPTED record
        journal = JobJournal(str(tmp_path / "journal"))
        assert len(journal) == 3

    def test_restart_answers_from_recorded_result(self, tmp_path):
        with _service(tmp_path) as svc:
            r1 = svc.solve(_spec(key="k", reproducible=True), timeout=30.0)
        with _service(tmp_path) as svc2:
            r2 = svc2.submit(_spec(key="k", reproducible=True)).result(
                timeout=5.0
            )
        assert svc2.counters.deduped == 1
        assert svc2.counters.submitted == 0  # nothing re-ran
        assert r2.status == JobStatus.OK
        assert np.array_equal(r1.x, r2.x)  # bitwise: the recorded answer

    def test_unkeyed_jobs_never_dedupe(self, tmp_path):
        with _service(tmp_path) as svc:
            h1 = svc.submit(_spec())
            h2 = svc.submit(_spec())
            assert h1 is not h2 and h1.key != h2.key
            assert h1.result(timeout=30.0).ok
            assert h2.result(timeout=30.0).ok
        assert svc.counters.deduped == 0


class TestReplay:
    def test_accepted_jobs_replay_in_original_fair_order(self, tmp_path):
        # journal a dead driver's backlog by hand: tenant a floods, b
        # squeezes one in -- replay must preserve the accept order so
        # the fair queue re-serves b second, exactly as before the death
        journal = JobJournal(str(tmp_path / "journal"))
        order = [("a", "a0"), ("a", "a1"), ("b", "b0"), ("a", "a2")]
        for tenant, key in order:
            journal.accepted(key, _spec(tenant=tenant, key=key))

        served = []
        with _service(tmp_path) as svc:
            assert svc.counters.replayed == 4
            for tenant, key in order:
                res = svc.handle_for(key).result(timeout=30.0)
                assert res.status == JobStatus.OK
                served.append((res.queued, key))
        # the dispatcher dequeues sequentially, so time spent queued
        # orders the jobs as served: a0, b0 (one cycle in), a1, a2
        by_service = [k for _, k in sorted(served)]
        assert by_service == ["a0", "b0", "a1", "a2"]

    def test_dispatched_job_is_rerun(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        journal.accepted("k", _spec(key="k"))
        journal.dispatched("k")  # driver died mid-job: one open dispatch
        with _service(tmp_path) as svc:
            res = svc.handle_for("k").result(timeout=30.0)
        assert res.status == JobStatus.OK
        assert svc.counters.replayed == 1
        # the interrupted dispatch was counted as condemnation evidence
        journal2 = JobJournal(str(tmp_path / "journal"))
        assert journal2.state("k").terminal == COMPLETED

    def test_terminal_jobs_are_not_rerun(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.solve(_spec(key="done"), timeout=30.0)
        with _service(tmp_path) as svc2:
            assert svc2.counters.replayed == 0
            assert svc2.handle_for("done").done()

    def test_corrupt_record_is_skipped_not_fatal(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.solve(_spec(key="k0"), timeout=30.0)
            svc.submit(_spec(key="k1"))
            svc.drain(timeout=30.0)
        log = tmp_path / "journal" / "journal.log"
        # flip bytes in k1's terminal record, the last frame: k1 loses
        # its terminal event and becomes replayable again -- degraded,
        # not poisoned
        raw = bytearray(log.read_bytes())
        victim = raw.rfind(_MAGIC)
        raw[(victim + len(raw)) // 2] ^= 0xFF
        log.write_bytes(bytes(raw))
        journal = JobJournal(str(log.parent))
        assert journal.skipped_records == [victim]
        # __len__ counts folded records: the corrupt one must not
        # inflate the telemetry count
        assert len(journal) == 5
        assert journal.state("k0").terminal == COMPLETED
        # the next append truncates the damaged tail before writing
        with _service(tmp_path) as svc2:
            assert svc2.counters.replayed == 1
            assert svc2.handle_for("k1").result(timeout=30.0).ok
        reloaded = JobJournal(str(log.parent))
        assert reloaded.skipped_records == []
        assert reloaded.state("k1").terminal == COMPLETED

    def test_bitflip_mid_log_skips_one_record(self, tmp_path):
        jdir = str(tmp_path / "journal")
        journal = JobJournal(jdir, fsync=False)
        log = os.path.join(jdir, "journal.log")
        offsets = []
        for key in ("a", "b", "c"):
            offsets.append(os.path.getsize(log) if offsets else 0)
            journal.accepted(key, None)
        with open(log, "r+b") as fh:
            fh.seek(offsets[2] - 3)  # inside b's pickled body
            byte = fh.read(1)[0]
            fh.seek(offsets[2] - 3)
            fh.write(bytes([byte ^ 0x01]))
        reloaded = JobJournal(jdir, fsync=False)
        assert reloaded.skipped_records == [offsets[1]]
        assert [s.key for s in reloaded.states()] == ["a", "c"]
        assert len(reloaded) == 2
        # a skipped frame in the middle is kept, and appends go after it
        reloaded.accepted("d", None)
        again = JobJournal(jdir, fsync=False)
        assert again.skipped_records == [offsets[1]]
        assert [s.key for s in again.states()] == ["a", "c", "d"]


class TestConcurrency:
    def test_concurrent_appends_lose_no_records(self, tmp_path):
        # submit() journals ACCEPTED from client threads while the
        # dispatcher journals everything else; the journal's lock keeps
        # the log order and the fold order the same
        journal = JobJournal(str(tmp_path / "journal"), fsync=False)
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)

        def writer(t):
            barrier.wait()
            for i in range(per_thread):
                journal.accepted(f"t{t}-{i}", None)

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        total = n_threads * per_thread
        assert len(journal) == total
        reloaded = JobJournal(str(tmp_path / "journal"))
        assert reloaded.skipped_records == []
        assert len(reloaded) == total
        assert len(reloaded.states()) == total


class TestReplayEdgeCases:
    def test_terminal_record_without_result_still_resolves(self, tmp_path):
        # a terminal record whose result payload is None must not leave
        # an unfulfilled handle (a deduped resubmission would block
        # until timeout) -- it resolves with a synthesized result
        journal = JobJournal(str(tmp_path / "journal"))
        journal.accepted("k", _spec(key="k"))
        journal.dispatched("k")
        journal.completed("k", None)
        journal.accepted("q", _spec(key="q"))
        journal.quarantined("q", None)
        with _service(tmp_path) as svc:
            assert svc.counters.replayed == 0
            hk, hq = svc.handle_for("k"), svc.handle_for("q")
            assert hk.done() and hq.done()
            rk = hk.result(timeout=1.0)
            rq = hq.result(timeout=1.0)
            # dedupe resolves immediately instead of blocking
            r2 = svc.submit(_spec(key="k")).result(timeout=1.0)
        assert rk.classification == "journal_result_missing"
        assert rk.status == JobStatus.FAILED  # lost payload can't claim ok
        assert rq.status == JobStatus.QUARANTINED
        assert r2 is rk and svc.counters.deduped == 1

    def test_terminal_replay_does_not_consume_job_ids(self, tmp_path):
        # the recorded job_id is reused; the fallback _new_job_id() must
        # be lazy, not evaluated for every replayed terminal record
        with _service(tmp_path) as svc:
            first = svc.solve(_spec(key="k"), timeout=30.0)
        with _service(tmp_path) as svc2:
            assert svc2.handle_for("k").result(timeout=1.0).job_id \
                == first.job_id
            assert svc2._next_job_id == 0


class TestQuarantine:
    def test_interrupted_dispatches_quarantine_at_replay(self, tmp_path):
        # two driver deaths with this job in flight = the bound (2):
        # never allowed to condemn a third generation
        journal = JobJournal(str(tmp_path / "journal"))
        journal.accepted("poison", _spec(key="poison"))
        journal.dispatched("poison")
        journal.dispatched("poison")  # re-dispatch: death #1; open: #2
        assert JobJournal(str(tmp_path / "journal")).condemnations(
            "poison"
        ) == 2
        with _service(tmp_path) as svc:
            res = svc.handle_for("poison").result(timeout=5.0)
        assert res.status == JobStatus.QUARANTINED
        assert res.classification == "quarantined"
        assert "JobQuarantinedError" in res.error
        assert svc.counters.quarantined == 1
        assert svc.counters.replayed == 0  # never reached the queue
        # terminal now: a third restart replays nothing and dedupes
        with _service(tmp_path) as svc2:
            r2 = svc2.submit(_spec(key="poison")).result(timeout=5.0)
        assert r2.status == JobStatus.QUARANTINED
        assert svc2.counters.deduped == 1
        assert svc2.counters.quarantined == 0  # not re-quarantined

    def test_condemned_attempts_quarantine_mid_retry(self, tmp_path):
        # evidence from journaled condemned attempts (pool generations
        # burned) reaches the bound while the job is still retrying
        journal = JobJournal(str(tmp_path / "journal"))
        journal.accepted("poison", _spec(key="poison"))
        journal.dispatched("poison")
        journal.attempt("poison", 1, "worker_crashed", condemned=True)
        journal.attempt("poison", 2, "worker_crashed", condemned=True)
        state = JobJournal(str(tmp_path / "journal")).state("poison")
        assert state.condemnations == 2 and state.replayable
        with _service(tmp_path) as svc:
            res = svc.handle_for("poison").result(timeout=5.0)
        assert res.status == JobStatus.QUARANTINED

    def test_one_condemnation_is_not_poison(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        journal.accepted("k", _spec(key="k"))
        journal.dispatched("k")  # one driver death: below the bound
        with _service(tmp_path) as svc:
            assert svc.handle_for("k").result(timeout=30.0).ok
        assert svc.counters.quarantined == 0

    def test_quarantine_after_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SolverService(backend=SimulatedBackend(), quarantine_after=0)
        err = JobQuarantinedError("k", 3, 2)
        assert err.key == "k" and err.condemnations == 3 and err.bound == 2


class TestDeadlineExpiry:
    def test_expired_deadline_fast_fails_at_dequeue(self, tmp_path):
        # deadline 0: by dequeue time the job has spent its whole budget
        # queued, so it must fail without touching the backend
        class CountingBackend(ExecutionBackend):
            name = "counting"

            def __init__(self):
                self.runs = 0
                self.inner = SimulatedBackend()

            def run(self, program, nprocs, *, checkpoints=None, options=None):
                self.runs += 1
                return self.inner.run(program, nprocs,
                                      checkpoints=checkpoints,
                                      options=options)

        be = CountingBackend()
        with _service(tmp_path, backend=be) as svc:
            res = svc.solve(_spec(key="late", deadline=0.0), timeout=30.0)
        assert res.status == JobStatus.EXPIRED
        assert res.classification == "deadline_expired"
        assert res.attempts == []
        assert be.runs == 0  # the pool was never touched
        assert svc.counters.expired == 1
        # journaled terminal: a restart does not replay it
        journal = JobJournal(str(tmp_path / "journal"))
        assert journal.state("late").terminal == FAILED
        with _service(tmp_path) as svc2:
            assert svc2.counters.replayed == 0

    def test_expiry_works_without_journal(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            res = svc.solve(_spec(deadline=0.0), timeout=30.0)
        assert res.status == JobStatus.EXPIRED
        assert svc.counters.expired == 1


class TestGracefulDrain:
    def test_parked_jobs_replay_exactly_once(self, tmp_path):
        svc = _service(tmp_path)
        svc.start()
        handles = [svc.submit(_spec(key=f"k{i}", tenant=f"t{i % 2}"))
                   for i in range(8)]
        summary = svc.graceful_drain(timeout=30.0)
        assert summary["drained"] and summary["cancelled"] == 0
        statuses = [h.result(timeout=5.0).status for h in handles]
        parked = [i for i, s in enumerate(statuses)
                  if s == JobStatus.PARKED]
        done = [i for i, s in enumerate(statuses) if s == JobStatus.OK]
        assert len(parked) + len(done) == 8
        assert len(parked) == summary["parked"] == svc.counters.parked
        # restart: exactly the parked jobs replay, each completing once
        with _service(tmp_path) as svc2:
            assert svc2.counters.replayed == len(parked)
            for i in range(8):
                assert svc2.handle_for(f"k{i}").result(timeout=30.0).ok
        assert svc2.counters.completed == len(parked)  # done jobs not re-run

    def test_drain_without_journal_cancels(self):
        svc = SolverService(backend=SimulatedBackend())
        svc.start()
        handles = [svc.submit(_spec()) for _ in range(6)]
        summary = svc.graceful_drain(timeout=30.0)
        assert summary["parked"] == 0 and summary["journal"] is None
        statuses = [h.result(timeout=5.0).status for h in handles]
        assert set(statuses) <= {JobStatus.OK, JobStatus.CANCELLED}
        assert statuses.count(JobStatus.CANCELLED) == summary["cancelled"]

    def test_submit_refused_after_drain(self, tmp_path):
        svc = _service(tmp_path)
        svc.start()
        svc.graceful_drain(timeout=10.0)
        with pytest.raises(RuntimeError):
            svc.submit(_spec(key="late"))


class TestStatusSnapshot:
    def test_journal_section(self, tmp_path):
        with _service(tmp_path) as svc:
            svc.solve(_spec(key="k"), timeout=30.0)
            st = svc.status()
        assert st["journal"]["records"] == 3
        assert st["journal"]["jobs"] == 1
        assert st["journal"]["skipped_records"] == 0

    def test_no_journal_section_without_journal(self):
        with SolverService(backend=SimulatedBackend()) as svc:
            assert svc.status()["journal"] is None

    def test_journal_events_exported(self):
        assert ACCEPTED == "accepted" and DISPATCHED == "dispatched"
        assert COMPLETED == "completed" and QUARANTINED == "quarantined"
