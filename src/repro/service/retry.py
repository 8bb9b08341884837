"""Retry policy: exponential backoff with deterministic jitter.

The retry contract follows the reproducibility argument of PAPERS.md
("Reproducibility of Parallel Preconditioned Conjugate Gradient"): a
re-executed job is verifiably equivalent to the original (bitwise on an
unchanged rank count), so automating retries is safe -- the only
questions left are *which* failures deserve a retry and *when* to issue
it.

Which: infrastructure failures only -- crashes, stragglers, timeouts,
worker faults, detected corruption, exhausted in-attempt recovery: the
rows of :data:`repro.backend.chaos.FAILURE_LABELS`, the table the outcome
classifier reads too.  A ``ValueError`` from bad input will fail
identically on every attempt, raised raw or relayed by a worker process;
retrying it just burns the pool.

When: exponential backoff (``base * multiplier**(attempt-1)`` capped at
``max_delay``) plus decorrelating jitter drawn from a *seeded* generator,
so tests replay the exact delay sequence and a thundering herd of
same-moment failures still spreads out.

Both the clock and the sleep are injectable: the unit tests drive a fake
clock and assert trip/backoff sequences without ever sleeping for real.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

# the failures a retry can plausibly cure -- the fault was in the substrate
# (dead worker, stale heartbeat, lost message, wedged run), not in the
# problem statement -- are the rows of the one failure table
from ..backend.chaos import is_retryable

__all__ = ["RetryPolicy", "is_retryable"]


@dataclass
class RetryPolicy:
    """Exponential backoff + jitter schedule for service-level retries.

    ``max_attempts`` bounds total executions (1 = no retries).  The delay
    before attempt ``k`` (k >= 2) is::

        min(max_delay, base_delay * multiplier**(k - 2)) * (1 + U * jitter)

    with ``U ~ Uniform[0, 1)`` from a generator seeded with ``seed`` --
    deterministic given the seed, decorrelated across policies.

    ``sleep`` and ``clock`` default to the real ``time`` module; tests
    inject fakes so no wall-clock time passes.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    # -------------------------------------------------------------- #
    def delay_before(self, attempt: int) -> float:
        """The backoff delay to sleep before executing ``attempt``.

        ``attempt`` is 1-based; the first attempt never waits.  Each call
        advances the jitter stream, so asking twice for the same attempt
        gives different jitter (by design: a *new* failure, a new draw).
        """
        if attempt <= 1:
            return 0.0
        exp = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 2),
        )
        return float(exp * (1.0 + float(self._rng.random()) * self.jitter))

    def preview_delays(self) -> List[float]:
        """The undithered backoff ladder (no jitter, no stream advance)."""
        return [
            min(self.max_delay, self.base_delay * self.multiplier ** k)
            for k in range(self.max_attempts - 1)
        ]

    def should_retry(self, attempt: int, exc: BaseException) -> bool:
        """Retry after ``attempt`` failed with ``exc``?"""
        return attempt < self.max_attempts and is_retryable(exc)

    def backoff(self, attempt: int) -> float:
        """Sleep the attempt's backoff delay; returns the slept seconds."""
        delay = self.delay_before(attempt)
        if delay > 0:
            self.sleep(delay)
        return delay
