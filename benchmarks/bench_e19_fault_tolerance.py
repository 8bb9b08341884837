"""E19 -- Fault-tolerant CG on the simulated multicomputer.

The paper's target machines (iPSC/860, Paragon, CM-5 class systems) ran
message-passing CG on hundreds of nodes where lost packets and node
failures were operational reality.  E19 measures what fault tolerance
costs on the simulated machine:

* a *loss sweep* -- the SPMD CG under increasing message-drop
  probability, with the stop-and-wait reliable transport retransmitting;
  the overhead is visible as retransmitted words and extra simulated time;
* a *mid-solve crash* -- one rank fail-stops partway through the solve;
  the recovery driver reruns it from the newest complete coordinated
  checkpoint and pays the replayed iterations;
* a *silent corruption* in the HPF solver -- the sanity audit catches the
  broken ``r = b - A x`` invariant and rolls back.

``spmd_cg``'s fault mode is ``ResilientCGProgram`` under
``run_with_recovery`` -- the launch every backend solve uses -- so every
faulty SPMD run must land on the fault-free ``x`` bit for bit, and every
run is bit-identical when repeated with the same seed.
"""

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import Table
from repro.baselines import spmd_cg
from repro.core import ResilienceConfig, StoppingCriterion, hpf_cg, make_strategy
from repro.machine import FaultPlan, Machine, RankCrash, StateCorruption
from repro.sparse import poisson2d

CRIT = StoppingCriterion(rtol=1e-8, maxiter=500)
NPROCS = 4


def _problem():
    A = poisson2d(8, 8)
    b = np.random.default_rng(19).standard_normal(A.nrows)
    return A, b


def _run_spmd(A, b, plan=None):
    m = Machine(nprocs=NPROCS)
    res = spmd_cg(m, A, b, criterion=CRIT, faults=plan,
                  resilience=ResilienceConfig() if plan is not None else None)
    return m, res


def test_e19_message_loss_sweep(benchmark):
    A, b = _problem()
    m_ref, ref = _run_spmd(A, b)

    benchmark(lambda: _run_spmd(A, b, FaultPlan(seed=19, drop_prob=0.02)))

    t = Table(
        ["loss prob", "iterations", "retransmissions", "retransmitted words",
         "total words", "sim time (s)", "time overhead"],
        title=f"E19  SPMD CG under message loss (poisson2d 8x8, N_P={NPROCS})",
    )
    t.add_row("fault-free", ref.iterations, 0, 0.0,
              m_ref.stats.total_words, ref.machine_elapsed, "1.00x")
    for loss in (0.01, 0.02, 0.05):
        plan = FaultPlan(seed=19, drop_prob=loss)
        m, res = _run_spmd(A, b, plan)
        assert res.converged
        # the recovered answer is the fault-free one, bit for bit
        assert np.array_equal(res.x, ref.x)
        rel = res.extras["resilience"]["telemetry"]
        # whole-run sums: every injected drop was retransmitted by some rank
        assert rel["retransmissions"] >= res.extras["injected_faults"]["dropped"] > 0
        # the protection is paid for on the wire and on the clock
        assert m.stats.total_words > m_ref.stats.total_words
        assert res.machine_elapsed > ref.machine_elapsed
        t.add_row(f"{loss:.0%}", res.iterations, rel["retransmissions"],
                  rel["retransmitted_words"], m.stats.total_words,
                  res.machine_elapsed,
                  f"{res.machine_elapsed / ref.machine_elapsed:.2f}x")
    record_table(
        "e19_loss_sweep", t,
        notes="Stop-and-wait retransmission masks loss completely -- same "
        "iteration count and the bitwise-identical answer -- at a simulated-"
        "time cost that grows with the loss rate: each drop costs the "
        "sender its ack timeout (ReliableConfig's 2 ms) plus the resend.  "
        "Drops are injected at the Comm boundary and never reach the wire, "
        "so each retransmission replaces a lost copy and total words barely "
        "move with the loss rate; their step up from the fault-free row is "
        "the ARQ's acks and packet headers plus the guard's audits.",
    )


def test_e19_mid_solve_crash(benchmark):
    A, b = _problem()
    m_ref, ref = _run_spmd(A, b)
    crash_at = 0.4 * ref.machine_elapsed

    def run_crash():
        plan = FaultPlan(crashes=[RankCrash(rank=2, at_time=crash_at)])
        return _run_spmd(A, b, plan)

    m, res = benchmark(run_crash)
    assert res.converged
    assert np.array_equal(res.x, ref.x)
    recovery = res.extras["recovery"]
    assert recovery["crashes_recovered"] == [2]
    # resumed from a coordinated checkpoint, not a cold restart
    (resumed_from,) = recovery["restart_iterations"]
    assert resumed_from >= 0

    # determinism: the same plan replays bit-identically
    m2, res2 = run_crash()
    assert res2.x.tobytes() == res.x.tobytes()
    assert m2.elapsed() == m.elapsed()
    assert m2.stats.total_words == m.stats.total_words

    t = Table(
        ["scenario", "iterations", "resumed from", "crash restarts",
         "total words", "sim time (s)", "time overhead"],
        title=f"E19b  rank 2 fail-stop at 40% of the fault-free solve",
    )
    t.add_row("fault-free", ref.iterations, "-", 0,
              m_ref.stats.total_words, ref.machine_elapsed, "1.00x")
    t.add_row("crash + restart", res.iterations, resumed_from,
              len(recovery["crashes_recovered"]), m.stats.total_words,
              res.machine_elapsed,
              f"{res.machine_elapsed / ref.machine_elapsed:.2f}x")
    record_table(
        "e19b_crash", t,
        notes="The recovery driver reruns the crashed solve from the newest "
        "complete coordinated checkpoint (resumed from = its iteration) and "
        "lands on the fault-free x bit for bit.  The simulator detects the "
        "dead rank when the survivors stall on it, so the overhead is the "
        "replayed iterations plus checkpoint and audit work -- no ARQ "
        "exhaustion against the dead rank.",
    )


def test_e19_silent_corruption_hpf(benchmark):
    A, b = _problem()
    m_ref = Machine(nprocs=NPROCS)
    ref = hpf_cg(make_strategy("csr_forall_aligned", m_ref, A), b,
                 criterion=CRIT)

    def run_corrupted():
        plan = FaultPlan(
            seed=19,
            state_corruptions=[StateCorruption(iteration=10, target="x")],
        )
        m = Machine(nprocs=NPROCS)
        res = hpf_cg(make_strategy("csr_forall_aligned", m, A), b,
                     criterion=CRIT, faults=plan)
        return m, res

    m, res = benchmark(run_corrupted)
    assert res.converged
    assert np.linalg.norm(res.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)
    ov = res.extras["resilience"]
    assert ov["corruptions_detected"] == 1
    assert ov["restarts"] == 1

    t = Table(
        ["scenario", "iterations", "audits", "rollbacks",
         "sim time (s)", "time overhead"],
        title="E19c  silent corruption of x at iteration 10 (HPF CG)",
    )
    t.add_row("fault-free", ref.iterations, 0, 0, ref.machine_elapsed, "1.00x")
    t.add_row("corrupted + rollback", res.iterations, ov["audits"],
              ov["restarts"], res.machine_elapsed,
              f"{res.machine_elapsed / ref.machine_elapsed:.2f}x")
    record_table(
        "e19c_corruption", t,
        notes="The periodic sanity audit recomputes ||b - A x|| and catches "
        "the broken recurrence; rollback to the last checkpoint replays a "
        "handful of iterations and the final answer is genuine.",
    )
