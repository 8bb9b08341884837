"""Retry policy and circuit breaker: deterministic, sleep-free tests.

Every test here runs on a fake clock and a recording fake sleep -- no
wall-clock time passes, yet the full trip / half-open / reset state
machine and the seeded jitter stream are exercised exactly.
"""

import pytest

from repro.backend import (
    AbftChecksumError,
    ProcessBackend,
    classify_failure,
    process_backend_support,
)
from repro.backend.base import (
    BackendTimeoutError,
    WorkerCrashedError,
    WorkerFailedError,
)
from repro.core.resilience import RecoveryExhaustedError
from repro.machine.events import Compute
from repro.machine.faults import StragglerDetectedError
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    is_retryable,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ------------------------------------------------------------------ #
# retryability
# ------------------------------------------------------------------ #
class TestIsRetryable:
    def test_infrastructure_failures_are_retryable(self):
        for exc in (
            WorkerCrashedError(1, "gone"),
            WorkerFailedError("rank 1 failed"),
            StragglerDetectedError(rank=2, lag=3.0),
            BackendTimeoutError("deadline"),
            RecoveryExhaustedError("gave up"),
        ):
            assert is_retryable(exc), type(exc).__name__

    def test_logic_errors_are_not(self):
        for exc in (ValueError("bad input"), KeyError("x"),
                    ZeroDivisionError()):
            assert not is_retryable(exc), type(exc).__name__

    # one failure table, two readers: the same fault gets the same answer
    # raised raw (simulated backend) and relayed by a worker (process)
    @staticmethod
    def _relayed(type_name, message):
        return WorkerFailedError(
            f"rank 1 failed on the process backend:\n{type_name}: {message}\n"
            "Traceback (most recent call last):\n  ..."
        )

    def test_detected_corruption_is_retryable_in_both_spellings(self):
        raw = AbftChecksumError("mat-vec checksum mismatch")
        relayed = self._relayed("AbftChecksumError", "mat-vec checksum mismatch")
        for exc in (raw, relayed):
            assert classify_failure(exc) == "abft_detected"
            assert is_retryable(exc)

    @pytest.mark.parametrize("type_name", ["ValueError", "TypeError"])
    def test_bad_input_is_not_retried_in_either_spelling(self, type_name):
        raw = {"ValueError": ValueError, "TypeError": TypeError}[type_name]("b")
        relayed = self._relayed(type_name, "b must have shape (4,)")
        assert not is_retryable(raw)
        assert not is_retryable(relayed)
        assert classify_failure(relayed) == "worker_failed"

    def test_silent_worker_death_stays_retryable(self):
        exc = WorkerFailedError(
            "process backend workers died without reporting: ['repro-rank-1']"
        )
        assert is_retryable(exc)
        # a listed infrastructure type relayed by a worker is retried too
        assert is_retryable(self._relayed("RecvTimeoutError", "no message"))

    @pytest.mark.skipif(not process_backend_support()[0],
                        reason="process backend unavailable")
    def test_relayed_spelling_is_what_the_process_backend_sends(self):
        for program, retry in ((_BadInputProgram(), False),
                               (_ChecksumProgram(), True)):
            with pytest.raises(WorkerFailedError) as excinfo:
                ProcessBackend(timeout=30.0).run(program, nprocs=1)
            assert is_retryable(excinfo.value) is retry, str(excinfo.value)


class _BadInputProgram:
    def __call__(self, rank, size):
        yield Compute(1.0)
        raise ValueError("b must have shape (4,), got (3,)")


class _ChecksumProgram:
    def __call__(self, rank, size):
        yield Compute(1.0)
        raise AbftChecksumError("mat-vec checksum mismatch")


# ------------------------------------------------------------------ #
# backoff schedule
# ------------------------------------------------------------------ #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_preview_ladder_is_exponential_and_capped(self):
        p = RetryPolicy(max_attempts=6, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5)
        assert p.preview_delays() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_first_attempt_never_waits(self):
        assert RetryPolicy(seed=7).delay_before(1) == 0.0

    def test_jitter_is_seeded_deterministic(self):
        a = [RetryPolicy(seed=42, max_attempts=5).delay_before(k)
             for k in (2, 3, 4)]
        b = [RetryPolicy(seed=42, max_attempts=5).delay_before(k)
             for k in (2, 3, 4)]
        c = [RetryPolicy(seed=43, max_attempts=5).delay_before(k)
             for k in (2, 3, 4)]
        assert a == b  # same seed: identical delay sequence
        assert a != c  # different seed: decorrelated

    def test_jitter_bounds(self):
        p = RetryPolicy(seed=0, base_delay=0.1, multiplier=2.0,
                        max_delay=10.0, jitter=0.25, max_attempts=10)
        for attempt in range(2, 10):
            base = min(10.0, 0.1 * 2.0 ** (attempt - 2))
            d = p.delay_before(attempt)
            assert base <= d <= base * 1.25

    def test_should_retry_respects_budget_and_type(self):
        p = RetryPolicy(max_attempts=3)
        crash = WorkerCrashedError(0, "gone")
        assert p.should_retry(1, crash)
        assert p.should_retry(2, crash)
        assert not p.should_retry(3, crash)  # budget exhausted
        assert not p.should_retry(1, ValueError("bad"))  # not retryable

    def test_backoff_uses_injected_sleep_only(self):
        slept = []
        p = RetryPolicy(seed=1, base_delay=0.25, sleep=slept.append)
        d = p.backoff(2)
        assert slept == [d] and d >= 0.25
        assert p.backoff(1) == 0.0
        assert slept == [d]  # attempt 1: no sleep call at all


# ------------------------------------------------------------------ #
# circuit breaker state machine
# ------------------------------------------------------------------ #
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)

    def test_trips_after_threshold_consecutive_failures(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=3, reset_timeout=5.0,
                            clock=clk)
        assert br.state == CLOSED
        br.record_failure()
        br.record_failure()
        assert br.state == CLOSED and br.allow()
        br.record_failure()  # third consecutive: trip
        assert br.state == OPEN
        assert not br.allow()
        assert br.trips == 1

    def test_success_resets_the_consecutive_count(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=2, clock=clk)
        br.record_failure()
        br.record_success()  # interleaved success: streak broken
        br.record_failure()
        assert br.state == CLOSED  # 1 < 2, no trip
        assert br.trips == 0

    def test_check_raises_typed_error_with_retry_after(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                            clock=clk)
        br.record_failure()
        clk.advance(2.0)
        with pytest.raises(CircuitOpenError) as err:
            br.check()
        assert err.value.retry_after == pytest.approx(3.0)

    def test_half_open_admits_exactly_one_probe(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                            clock=clk)
        br.record_failure()
        assert not br.allow()
        clk.advance(5.0)  # reset window elapsed
        assert br.state == HALF_OPEN
        assert br.allow()       # the single probe
        assert not br.allow()   # a second concurrent job is refused
        assert br.state == HALF_OPEN

    def test_probe_success_closes(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                            clock=clk)
        br.record_failure()
        clk.advance(1.0)
        assert br.allow()
        br.record_success()
        assert br.state == CLOSED
        assert br.allow() and br.retry_after() == 0.0
        assert br.trips == 1  # the original trip; closing doesn't add one

    def test_probe_failure_reopens_full_window(self):
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=2, reset_timeout=4.0,
                            clock=clk)
        br.record_failure()
        br.record_failure()  # trip 1
        clk.advance(4.0)
        assert br.allow()    # probe admitted
        br.record_failure()  # probe failed: immediate re-open (trip 2)
        assert br.state == OPEN
        assert br.trips == 2
        assert br.retry_after() == pytest.approx(4.0)  # full fresh window
        clk.advance(3.9)
        assert not br.allow()
        clk.advance(0.2)
        assert br.allow()  # next probe after the full window

    def test_no_real_clock_involved(self):
        # the whole state machine above ran on the fake clock; verify the
        # breaker never needs wall time by running a full cycle at t=0
        clk = FakeClock()
        br = CircuitBreaker(failure_threshold=1, reset_timeout=0.5,
                            clock=clk)
        br.record_failure()
        clk.advance(0.5)
        assert br.allow()
        br.record_success()
        assert br.state == CLOSED
