"""E26 -- resilient HPCG: checkpoint overhead, durable store, chaos contract.

Three deterministic claims about the fault-tolerant stencil27 path, pinned
in one run (everything below executes on the simulated backend, so every
number is a property of the code, not of the host):

* **checkpoint/audit overhead is bounded and bitwise-free** -- the
  fault-free resilient solve reproduces the plain solve's solution
  *bitwise* at every checkpoint interval, and its simulated-time overhead
  (checkpoint memory traffic + audit SpMVs + reductions) shrinks as the
  interval grows.  The table prints every ratio at full precision, so
  CI's byte-diff of it pins them exactly.
* **the durable store is a true drop-in** -- journalling checkpoints
  through :class:`~repro.backend.store.DurableCheckpointStore` (one
  append-only, CRC-framed log) changes nothing observable: same solution
  bits, same iteration count, same checkpoint set as the in-memory dict
  store, and the directory holds exactly the one log.
* **the chaos contract holds on the HPCG workload** -- a seeded sweep of
  message faults, state corruptions and crashes over ``stencil27``/``mg``
  with ABFT armed and reproducible reductions must end every run either
  converged **bitwise-equal** to the fault-free reference or failed with
  a classified error.

Parity, store equivalence and the contract are asserts here; CI runs
this module and byte-diffs ``e26_resilient_hpcg.txt``.
"""

import os
import tempfile

import numpy as np
import pytest

from _harness import record_table
from repro.analysis import Table
from repro.backend.chaos import chaos_sweep
from repro.backend.store import DurableCheckpointStore
from repro.core.resilience import ResilienceConfig
from repro.core.stopping import StoppingCriterion
from repro.hpcg import hpcg_solve

SHAPE = (8, 8, 8)
NPROCS = 4
PRECOND = "jacobi"  # keeps real halo traffic in the resilient path
CRIT = StoppingCriterion(rtol=1e-10, atol=0.0)
INTERVALS = (2, 5, 10)
CHAOS_SEEDS = range(8)


def _plain():
    return hpcg_solve(SHAPE, nprocs=NPROCS, precond=PRECOND,
                      criterion=CRIT, reproducible=True)


def _resilient(interval, store=None):
    return hpcg_solve(
        SHAPE, nprocs=NPROCS, precond=PRECOND, criterion=CRIT,
        reproducible=True,
        resilience=ResilienceConfig(
            checkpoint_interval=interval, sanity_interval=interval,
        ),
        store=store if store is not None else {},
    )


def test_e26_resilient_hpcg(benchmark):
    plain = _plain()
    assert plain.converged

    # -------------------------------------------------------------- #
    # checkpoint-interval overhead sweep (simulated time, deterministic)
    # -------------------------------------------------------------- #
    sweep = {}
    for interval in INTERVALS:
        res = _resilient(interval)
        assert res.converged and res.iterations == plain.iterations
        bitwise = bool(np.array_equal(res.x, plain.x))
        assert bitwise, f"interval={interval} perturbed the solution"
        sweep[interval] = {
            "iterations": res.iterations,
            "sim_time_ratio": res.machine_elapsed / plain.machine_elapsed,
            "message_ratio": res.comm["messages"] / plain.comm["messages"],
            "checkpoints": res.extras["resilience"]["checkpoints_published"],
            "audits": res.extras["resilience"]["audits"],
            "bitwise_equal_to_plain": bitwise,
        }

    # -------------------------------------------------------------- #
    # durable store vs in-memory dict: observationally identical
    # -------------------------------------------------------------- #
    mem_store = {}
    mem = _resilient(5, store=mem_store)
    with tempfile.TemporaryDirectory() as root:
        durable_store = DurableCheckpointStore(root, fsync=False)
        dur = _resilient(5, store=durable_store)
        durable_matches = (
            bool(np.array_equal(mem.x, dur.x))
            and mem.iterations == dur.iterations
            and sorted(mem_store) == sorted(durable_store)
            and os.listdir(root) == ["checkpoints.log"]
        )
    assert durable_matches

    # -------------------------------------------------------------- #
    # chaos contract on the HPCG workload (bitwise under reproducible)
    # -------------------------------------------------------------- #
    outcomes = chaos_sweep(
        CHAOS_SEEDS, backends=("simulated",), nprocs=NPROCS,
        scenario="stencil27", precond="mg", reproducible=True,
    )
    ok = sum(1 for o in outcomes if o.ok)
    assert ok == len(outcomes)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    t = Table(
        ["interval", "iters", "ckpts", "audits", "sim-time x", "msgs x",
         "bitwise"],
        title=(f"E26  resilient HPCG overhead (stencil27 "
               f"{SHAPE[0]}^3, P={NPROCS}, {PRECOND}, reproducible)"),
    )
    for interval in INTERVALS:
        row = sweep[interval]
        t.add_row(
            interval, row["iterations"], row["checkpoints"], row["audits"],
            repr(row["sim_time_ratio"]), repr(row["message_ratio"]),
            "yes" if row["bitwise_equal_to_plain"] else "NO",
        )
    record_table(
        "e26_resilient_hpcg", t,
        notes="Checkpoints are charged as local memory traffic and audits "
        "as full SpMV + reductions, so the simulated-time ratio is the "
        "honest price of resilience; it must fall as the interval grows "
        "and never perturb a single bit of the solution. "
        f"Durable-store parity: {durable_matches}; chaos contract "
        f"(stencil27/mg, ABFT, bitwise): {ok}/{len(outcomes)}.",
    )
