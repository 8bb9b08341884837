"""E21 -- Chaos sweep: seeded fault schedules on both backends.

The robustness contract under test: with the fault-tolerance stack on
(Comm-level injection, reliable ARQ transport, ABFT checksums, sanity
audits + rollbacks, respawn-from-checkpoint recovery), every seeded
fault schedule either converges to the fault-free reference or fails
with a classified typed error -- on the simulated machine AND on real OS
processes, where the crashes are genuine SIGKILLs.

The seed set is fixed so the *simulated* columns of the table are fully
deterministic; process-backend retransmission counts and recovery
wall-clock vary with host timing.
"""

import pytest

from _harness import record_table
from repro.analysis import Table
from repro.backend import process_backend_support
from repro.backend.chaos import chaos_sweep, format_report
from repro.backend.process import crash_injection_support

_OK, _DETAIL = process_backend_support()
if _OK:
    _OK, _DETAIL = crash_injection_support()
pytestmark = pytest.mark.skipif(
    not _OK, reason=f"crash injection unavailable: {_DETAIL}"
)

SEEDS = list(range(8))


def test_e21_chaos_sweep(benchmark):
    outcomes = benchmark.pedantic(
        lambda: chaos_sweep(SEEDS, backends=("simulated", "process"),
                            nprocs=4, n=48, timeout=60.0),
        rounds=1, iterations=1,
    )
    assert all(o.ok for o in outcomes), format_report(outcomes)

    t = Table(
        ["seed", "backend", "outcome", "max|err|", "attempts", "rollbacks",
         "retransmissions", "crashes recovered", "recovery wall (s)",
         "injected d/D/c/y"],
        title="E21  chaos sweep: fault-tolerant CG under seeded schedules "
        "(poisson1d n=48, P=4)",
    )
    for o in outcomes:
        inj = o.injected
        if o.backend == "simulated":
            resent = inj.get("dropped", 0) + inj.get("corrupted", 0)
            assert o.retransmissions >= resent, o
        t.add_row(
            o.seed, o.backend, o.outcome, f"{o.max_abs_err:.1e}",
            o.attempts, o.rollbacks, int(o.retransmissions),
            len(o.crashes_recovered), f"{o.recovery_wall:.3f}",
            f"{inj.get('dropped', 0)}/{inj.get('duplicated', 0)}"
            f"/{inj.get('corrupted', 0)}/{inj.get('delayed', 0)}",
        )
    record_table(
        "e21_chaos", t,
        notes="Every run satisfied the chaos contract (converged to the "
        "fault-free reference or raised a classified typed error).  "
        "Simulated recovery is bitwise-exact; process-backend crashes are "
        "real SIGKILLs recovered by respawn + checkpoint restart.  The "
        "injected-fault column counts drops/duplicates/corruptions/delays "
        "actually applied; crash-free seeds agree across backends up to "
        "timing-dependent retransmission counts.  Retransmissions are "
        "summed over the ranks' ARQ endpoints, so each simulated row "
        "resends at least every drop and corruption it injected.",
    )
