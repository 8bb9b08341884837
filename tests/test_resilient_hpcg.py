"""ResilientHPCGProgram: parity, recovery policies, ABFT, durable resume.

The fault-free resilient program must reproduce the plain HPCG program
*bitwise* (checkpoints, audits and ABFT duplicate slots are overhead, not
perturbation); under injected faults it must converge to the same answer
through respawn, shrink, rollback or ARQ retransmission; and a durable
checkpoint store must let a freshly started driver -- including one whose
predecessor died by SIGKILL -- resume from the newest complete checkpoint.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.backend import process_backend_support
from repro.backend.chaos import chaos_run
from repro.backend.simulated import SimulatedBackend
from repro.backend.store import DurableCheckpointStore
from repro.core.resilience import ResilienceConfig
from repro.core.stopping import StoppingCriterion
from repro.hpcg.program import ResilientHPCGProgram
from repro.hpcg.solve import hpcg_solve
from repro.machine.faults import (
    FaultPlan,
    RankCrash,
    RankFailedError,
    StateCorruption,
)
from repro.machine.reliable import ReliableConfig

SHAPE = (6, 6, 6)
CRIT = StoppingCriterion(rtol=1e-10, atol=0.0)


def _plain(precond="jacobi", **kw):
    return hpcg_solve(SHAPE, backend="simulated", nprocs=4, precond=precond,
                      criterion=CRIT, **kw)


def _resilient(precond="jacobi", **kw):
    kw.setdefault("resilience", ResilienceConfig(
        checkpoint_interval=3, sanity_interval=3, max_restarts=8,
        reliable=ReliableConfig(base_timeout=0.05, max_retries=8),
    ))
    return hpcg_solve(SHAPE, backend="simulated", nprocs=4, precond=precond,
                      criterion=CRIT, **kw)


# ---------------------------------------------------------------------- #
# fault-free parity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("precond", ["none", "jacobi", "mg"])
@pytest.mark.parametrize("reproducible", [False, True])
def test_fault_free_bitwise_parity(precond, reproducible):
    ref = _plain(precond, reproducible=reproducible)
    res = _resilient(precond, reproducible=reproducible)
    assert res.converged and ref.converged
    np.testing.assert_array_equal(res.x, ref.x)
    assert res.extras["resilience"]["rollbacks"] == 0
    assert res.extras["resilience"]["checkpoints_published"] >= 1


def test_fault_free_parity_reproducible_abft():
    """ABFT duplicate slots and checksummed halo SpMV leave the exact
    superaccumulator trajectory untouched."""
    ref = _plain("jacobi", reproducible=True)
    res = _resilient("jacobi", reproducible=True, abft=True)
    assert res.converged
    np.testing.assert_array_equal(res.x, ref.x)
    assert res.extras["hpcg"]["abft"] is True


# ---------------------------------------------------------------------- #
# recovery policies on the 3-D grid
# ---------------------------------------------------------------------- #
def test_crash_respawn_resumes_from_checkpoint():
    ref = _plain("jacobi")
    plan = FaultPlan(seed=1, crashes=[RankCrash(2, 0.004)])
    res = _resilient("jacobi", faults=plan)
    assert res.converged
    np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)
    recov = res.extras["recovery"]
    assert recov["attempts"] >= 2
    assert recov["final_nprocs"] == 4


@pytest.mark.parametrize("precond", ["jacobi", "mg"])
def test_crash_shrink_refactorizes_grid(precond):
    ref = _plain(precond)
    plan = FaultPlan(seed=2, crashes=[RankCrash(1, 0.002)])
    res = _resilient(precond, faults=plan, policy="shrink")
    assert res.converged
    assert res.extras["recovery"]["final_nprocs"] == 3
    np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("backend", ["simulated", pytest.param(
    "process", marks=pytest.mark.skipif(
        not process_backend_support()[0],
        reason="process backend unavailable"))])
def test_shrink_onto_an_empty_subcube(backend):
    """Three survivors re-factorise to ``(1, 1, 3)`` over ``nz = 2``: one
    owns nothing, exchanges no halo and still joins the reductions."""
    shape = (16, 16, 2)
    ref = hpcg_solve(shape, nprocs=1, precond="jacobi", reproducible=True)
    res = hpcg_solve(shape, backend=backend, nprocs=4, policy="shrink",
                     precond="jacobi", reproducible=True,
                     faults=FaultPlan(crashes=[RankCrash(3, 1.0e-4)]))
    assert res.converged
    assert res.extras["recovery"]["final_nprocs"] == 3
    assert res.extras["hpcg"]["grid"] == (1, 1, 3)
    assert res.x.tobytes() == ref.x.tobytes()


def test_state_corruption_rolls_back():
    ref = _plain("jacobi")
    plan = FaultPlan(
        seed=3,
        state_corruptions=[StateCorruption(iteration=4, target="x", rank=1)],
    )
    res = _resilient("jacobi", faults=plan)
    assert res.converged
    assert res.extras["resilience"]["rollbacks"] >= 1
    np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)


def test_rebalance_policy_rejected():
    with pytest.raises(ValueError, match="respawn.*shrink"):
        _resilient("jacobi", policy="rebalance",
                   faults=FaultPlan(seed=0, drop_prob=0.01))


# ---------------------------------------------------------------------- #
# reliable halo exchange (satellite: ARQ + rank/face-naming errors)
# ---------------------------------------------------------------------- #
def test_arq_masks_halo_message_faults():
    """Jacobi keeps real halo traffic; drops/dups must be retransmitted
    away without perturbing the answer."""
    ref = _plain("jacobi")
    plan = FaultPlan(seed=4, drop_prob=0.05, duplicate_prob=0.05)
    res = _resilient("jacobi", faults=plan)
    assert res.converged
    np.testing.assert_allclose(res.x, ref.x, rtol=1e-9, atol=1e-12)
    telemetry = res.extras["resilience"]["telemetry"]
    assert telemetry["retransmissions"] > 0


def test_halo_failure_names_both_ranks_and_face():
    """When ARQ gives up, the error says which link died: both ranks and
    the halo kind (face/edge/corner)."""
    # max_restarts=0: the recovery driver re-raises instead of retrying
    plan = FaultPlan(seed=5, drop_prob=1.0)
    with pytest.raises(Exception, match=r"halo (face|edge|corner) exchange "
                                        r"between rank \d+ and rank \d+"):
        hpcg_solve(
            SHAPE, backend="simulated", nprocs=4, precond="jacobi",
            criterion=CRIT, faults=plan,
            resilience=ResilienceConfig(
                max_restarts=0,
                reliable=ReliableConfig(base_timeout=1e-4, max_retries=1),
            ),
        )


# ---------------------------------------------------------------------- #
# durable checkpoints: driver restart and SIGKILL
# ---------------------------------------------------------------------- #
def test_durable_store_resume_bitwise(tmp_path):
    root = str(tmp_path / "ck")
    ref = _plain("jacobi", reproducible=True)

    # first driver: stops early (maxiter) after publishing checkpoints
    first = DurableCheckpointStore(root, fsync=False)
    partial = _resilient("jacobi", reproducible=True, maxiter=5, store=first)
    assert not partial.converged
    assert len(first) >= 1 and os.listdir(root) == ["checkpoints.log"]

    # second driver: fresh store object, same directory -> resumes
    second = DurableCheckpointStore(root, fsync=False)
    res = _resilient("jacobi", reproducible=True, store=second)
    assert res.converged
    assert res.extras["resilience"]["restarted_from"] is not None
    assert res.extras["resilience"]["restarted_from"] >= 3
    # exact reductions: the resumed trajectory matches start-to-finish
    np.testing.assert_array_equal(res.x, ref.x)


_KILLED_CHILD = textwrap.dedent("""
    import os, signal
    from repro.backend.store import DurableCheckpointStore
    from repro.core.resilience import ResilienceConfig
    from repro.core.stopping import StoppingCriterion
    from repro.hpcg.solve import hpcg_solve

    class KillingStore(DurableCheckpointStore):
        # SIGKILL the driver mid-checkpoint after a few records: the
        # hardest crash point (some ranks published, some not)
        def __init__(self, path):
            super().__init__(path, fsync=False)
            self.records = 0
        def _write_record(self, iteration, rank, payload):
            super()._write_record(iteration, rank, payload)
            self.records += 1
            if iteration >= 3 and self.records >= 6:
                os.kill(os.getpid(), signal.SIGKILL)

    hpcg_solve(
        (6, 6, 6), backend="simulated", nprocs=4, precond="jacobi",
        criterion=StoppingCriterion(rtol=1e-10, atol=0.0),
        resilience=ResilienceConfig(checkpoint_interval=3, sanity_interval=3),
        reproducible=True, store=KillingStore(os.environ["CKPT_DIR"]),
    )
    raise SystemExit("unreachable: the solve should have been killed")
""")


def test_sigkill_mid_solve_then_resume(tmp_path):
    """Acceptance: SIGKILL the driver mid-solve; a rerun with the same
    --checkpoint-dir resumes from the newest complete checkpoint and
    converges to the same answer (bitwise, reproducible reductions)."""
    root = str(tmp_path / "ck")
    env = dict(os.environ, CKPT_DIR=root,
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    store = DurableCheckpointStore(root, fsync=False)
    assert os.listdir(root) == ["checkpoints.log"]
    assert len(store) >= 1  # the dead driver left usable checkpoints

    res = hpcg_solve(
        SHAPE, backend="simulated", nprocs=4, precond="jacobi",
        criterion=CRIT, reproducible=True, store=store,
    )
    assert res.converged
    assert res.extras["resilience"]["restarted_from"] is not None
    ref = _plain("jacobi", reproducible=True)
    np.testing.assert_array_equal(res.x, ref.x)


# ---------------------------------------------------------------------- #
# chaos scenario integration
# ---------------------------------------------------------------------- #
def test_chaos_stencil27_smoke():
    out = chaos_run(0, backend="simulated", scenario="stencil27",
                    precond="mg", reproducible=True)
    assert out.ok
    assert out.scenario == "stencil27" and out.precond == "mg"
    assert out.max_abs_err == 0.0
    d = out.to_dict()
    assert d["scenario"] == "stencil27" and d["precond"] == "mg"


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="scenario"):
        chaos_run(0, scenario="poisson3d")
