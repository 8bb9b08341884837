"""Chaos harness: seeded schedules, outcome classification, the contract.

Small fixed seed set here; the fuller sweep lives in benchmark E21 and
the CI chaos job.  Process-backend cases carry support-probe skips so
the suite stays green on hosts without real crash injection.
"""

import numpy as np
import pytest

from repro.backend import process_backend_support
from repro.backend.abft import AbftChecksumError
from repro.backend.base import (
    BackendTimeoutError,
    WorkerCrashedError,
    WorkerFailedError,
)
from repro.backend.chaos import (
    CHAOS_BACKENDS,
    ChaosOutcome,
    chaos_plan,
    chaos_run,
    chaos_sweep,
    classify_failure,
    format_report,
    judge,
)
from repro.backend.process import crash_injection_support
from repro.core.resilience import RecoveryExhaustedError
from repro.machine.faults import RankFailedError
from repro.machine.scheduler import DeadlockError

_OK, _DETAIL = process_backend_support()
needs_process = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_DETAIL}"
)
_KOK, _KDETAIL = crash_injection_support()
needs_crash = pytest.mark.skipif(
    not _KOK, reason=f"crash injection unavailable: {_KDETAIL}"
)


class TestClassifyFailure:
    @pytest.mark.parametrize("exc,label", [
        (RecoveryExhaustedError("x"), "recovery_exhausted"),
        (AbftChecksumError("x"), "abft_detected"),
        (RankFailedError("x"), "rank_failed"),
        (WorkerCrashedError(1), "worker_crashed"),
        (BackendTimeoutError("x"), "timeout"),
        (DeadlockError("x"), "deadlock"),
    ])
    def test_typed_errors(self, exc, label):
        assert classify_failure(exc) == label

    def test_worker_failed_message_is_scanned(self):
        exc = WorkerFailedError(
            "rank 2 failed: Traceback ... AbftChecksumError: dot mismatch"
        )
        assert classify_failure(exc) == "abft_detected"
        assert classify_failure(WorkerFailedError("boom")) == "worker_failed"

    def test_unknown_is_none(self):
        assert classify_failure(ValueError("nope")) is None


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        a, b = chaos_plan(7, nprocs=4), chaos_plan(7, nprocs=4)
        assert a["planned"] == b["planned"]
        assert a["crash_on_checkpoint"] == b["crash_on_checkpoint"]
        assert a["plan"].seed == b["plan"].seed

    def test_no_crash_flag(self):
        drawn = chaos_plan(4, nprocs=4, crash_prob=0.0)
        assert drawn["crash_on_checkpoint"] == {}
        assert not drawn["plan"].crash_schedule()

    # (drop, dup, corrupt, delay, corruptions, crash, straggler,
    #  crash_on_checkpoint, straggler ranks) for seeds 0..7 at nprocs=4,
    # captured from the draw before the probabilities became parameters
    _DEFAULT = [
        (0.0255, 0.0108, 0.0016, 0.0007, 0, False, False, {}, []),
        (0.0205, 0.038, 0.0058, 0.0379, 1, False, False, {}, []),
        (0.0105, 0.0119, 0.0326, 0.0037, 0, False, False, {}, []),
        (0.0034, 0.0095, 0.0321, 0.0233, 1, False, False, {}, []),
        (0.0377, 0.0205, 0.039, 0.0032, 0, True, False, {2: 3}, []),
        (0.0322, 0.0323, 0.0206, 0.0114, 1, True, False, {0: 1}, []),
        (0.0215, 0.0137, 0.0148, 0.015, 0, False, False, {}, []),
        (0.025, 0.0359, 0.031, 0.009, 1, False, False, {}, []),
    ]
    _STRAGGLERS = [
        (0.0255, 0.0108, 0.0016, 0.0007, 0, False, False, {}, []),
        (0.0205, 0.038, 0.0058, 0.0379, 1, False, True, {}, [1]),
        (0.0105, 0.0119, 0.0326, 0.0037, 0, False, True, {}, [3]),
        (0.0034, 0.0095, 0.0321, 0.0233, 1, False, True, {}, [0]),
        (0.0377, 0.0205, 0.039, 0.0032, 0, True, False, {2: 3}, []),
        (0.0322, 0.0323, 0.0206, 0.0114, 1, True, True, {0: 1}, [3]),
        (0.0215, 0.0137, 0.0148, 0.015, 0, False, False, {}, []),
        (0.025, 0.0359, 0.031, 0.009, 1, False, True, {}, [3]),
    ]
    _NO_CRASH = [
        (0.0255, 0.0108, 0.0016, 0.0007, 0, False, False, {}, []),
        (0.0205, 0.038, 0.0058, 0.0379, 1, False, False, {}, []),
        (0.0105, 0.0119, 0.0326, 0.0037, 0, False, False, {}, []),
        (0.0034, 0.0095, 0.0321, 0.0233, 1, False, False, {}, []),
        (0.0377, 0.0205, 0.039, 0.0032, 0, False, False, {}, []),
        (0.0322, 0.0323, 0.0206, 0.0114, 1, False, False, {}, []),
        (0.0215, 0.0137, 0.0148, 0.015, 0, False, False, {}, []),
        (0.025, 0.0359, 0.031, 0.009, 1, False, False, {}, []),
    ]

    @pytest.mark.parametrize("kwargs,pinned", [
        ({}, _DEFAULT),
        ({"straggler_prob": 0.6}, _STRAGGLERS),
        ({"crash_prob": 0.0}, _NO_CRASH),
    ], ids=["defaults", "stragglers", "no-crash"])
    def test_draw_stream_is_pinned(self, kwargs, pinned):
        # E21, E22 and E26 schedules depend on this exact stream
        for seed, row in enumerate(pinned):
            drawn = chaos_plan(seed, 4, **kwargs)
            p = drawn["planned"]
            got = tuple(p[k] for k in (
                "drop_prob", "duplicate_prob", "corrupt_prob", "delay_prob",
                "state_corruptions", "crash", "straggler",
            )) + (
                drawn["crash_on_checkpoint"],
                [s.rank for s in drawn["plan"].slowdown_schedule()],
            )
            assert got == row, f"seed {seed}"

    def test_message_and_corruption_can_be_switched_off(self):
        for seed in range(16):
            drawn = chaos_plan(seed, 4, message_prob=0.0,
                               corruption_prob=0.0)
            p = drawn["planned"]
            assert p["drop_prob"] == p["duplicate_prob"] == 0.0
            assert p["corrupt_prob"] == p["delay_prob"] == 0.0
            assert not drawn["plan"].message_faults_enabled
            assert p["state_corruptions"] == 0
            assert not drawn["plan"].state_corruption_schedule()

    def test_corruptions_target_auditable_state(self):
        # only x and r corruptions are detectable by the sanity audit;
        # the harness must never schedule an invisible one
        for seed in range(30):
            for c in chaos_plan(seed, nprocs=4)["plan"].state_corruption_schedule():
                assert c.target in ("x", "r")


class TestJudge:
    """Bitwise unless the layout changed; bitwise always when reproducible."""

    REF = np.linspace(1.0, 2.0, 16)
    ERRS = (0.0, 4e-15, 1e-3)
    # verdicts for max|err| = 0, 4e-15, 1e-3 at rtol=1e-8
    CASES = [
        (False, "none", (True, False, False)),
        (False, "respawn", (True, False, False)),
        (False, "shrink", (True, True, False)),
        (False, "rebalance", (True, True, False)),
        (True, "none", (True, False, False)),
        (True, "respawn", (True, False, False)),
        (True, "shrink", (True, False, False)),
        (True, "rebalance", (True, False, False)),
    ]

    @pytest.mark.parametrize("reproducible,action,verdicts", CASES)
    def test_verdict_table(self, reproducible, action, verdicts):
        log = [] if action == "none" else [
            {"attempt": 1, "outcome": "straggler", "action": action}
        ]
        for err, expect in zip(self.ERRS, verdicts):
            x = self.REF.copy()
            x[5] += err
            ok, max_err = judge(x, self.REF, log, reproducible, 1e-8)
            assert ok is expect, f"max|err|={err:g}"
            assert max_err == pytest.approx(err, rel=0.1, abs=0.0)


class TestChaosRunSimulated:
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_contract_holds(self, seed):
        out = chaos_run(seed, backend="simulated")
        assert out.ok
        assert out.outcome == "converged"
        assert out.converged_to_reference
        assert out.max_abs_err == 0.0  # simulated recovery is bitwise-exact

    def test_crash_seed_recovers(self):
        # seed 4 draws a crash (see chaos_plan's RNG stream)
        out = chaos_run(4, backend="simulated")
        assert out.planned["crash"]
        assert out.attempts == 2
        assert len(out.crashes_recovered) == 1

    def test_faults_actually_injected(self):
        out = chaos_run(1, backend="simulated")
        injected = sum(
            out.injected.get(k, 0)
            for k in ("dropped", "duplicated", "corrupted", "delayed")
        )
        assert injected > 0


@needs_crash
class TestChaosRunProcess:
    def test_crash_seed_recovers_for_real(self):
        out = chaos_run(4, backend="process", timeout=60.0)
        assert out.ok and out.outcome == "converged"
        assert out.planned["crash"]
        assert out.attempts == 2
        assert out.converged_to_reference


class TestReport:
    def test_format_report_lists_every_run(self):
        outs = chaos_sweep([0, 1], backends=["simulated"])
        text = format_report(outs)
        assert "seed" in text and "outcome" in text
        assert text.count("simulated") == 2
        assert "contract held on 2/2" in text

    def test_backends_constant(self):
        assert CHAOS_BACKENDS == ("simulated", "process")

    def test_classified_failure_counts_as_ok(self):
        out = ChaosOutcome(
            seed=0, backend="simulated", nprocs=4, n=48,
            outcome="recovery_exhausted", converged_to_reference=False,
            max_abs_err=float("nan"), iterations=0, elapsed=0.0,
        )
        assert out.ok
        out.outcome = "converged"
        assert not out.ok  # converged but not to reference: contract broken
