"""Fit the simulator's cost model to the host machine.

The paper's formulas price everything with three constants:
``t_startup`` (per-message latency), ``t_comm`` (per-word transfer time)
and ``t_flop`` (per floating-point operation).  The defaults model a
mid-1990s multicomputer; this module *measures* the three on the machine
you are sitting at, so that simulated times become predictions of real
process-backend times rather than just relative rankings.

* ``t_flop`` -- time a large DAXPY in-process and divide by its 2n flops
  (NumPy-achievable flop rate, which is what the rank programs run).
* ``t_startup``/``t_comm`` -- run the two-rank
  :class:`~repro.backend.programs.PingPongProgram` on the process
  backend, take the best-of-``repeats`` round trip per message size, and
  least-squares fit ``rt/2 = t_startup + m · t_comm``.  Best-of filters
  scheduler noise, the regression separates the fixed from the per-word
  cost exactly as the paper defines them.

The fitted :class:`~repro.machine.costmodel.CostModel` plugs straight
into a :class:`~repro.backend.simulated.SimulatedBackend`, which is how
benchmark E20 produces modelled-vs-measured tables in host units.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine.costmodel import CostModel
from .process import ProcessBackend
from .programs import PING_PONG_SIZES, PingPongProgram

__all__ = ["Calibration", "measure_t_flop", "measure_message_costs",
           "calibrate_host", "fit_message_model"]


@dataclass
class Calibration:
    """Host-fitted cost parameters plus the raw samples behind them."""

    t_startup: float
    t_comm: float
    t_flop: float
    #: (words, best one-way seconds) ping-pong samples
    message_samples: List[Tuple[int, float]] = field(default_factory=list)
    #: measured DAXPY flop rate (flop/s), informational
    flop_rate: float = 0.0

    def as_cost_model(self) -> CostModel:
        return CostModel(
            t_startup=self.t_startup, t_comm=self.t_comm, t_flop=self.t_flop
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "t_startup": self.t_startup,
            "t_comm": self.t_comm,
            "t_flop": self.t_flop,
            "flop_rate": self.flop_rate,
        }


def measure_t_flop(n: int = 1_000_000, repeats: int = 5) -> float:
    """Seconds per flop of an in-process DAXPY (best of ``repeats``)."""
    if n < 1 or repeats < 1:
        raise ValueError("n and repeats must be positive")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = y + 1.000000001 * x  # 2n flops, fresh output defeats caching tricks
        best = min(best, time.perf_counter() - t0)
    return best / (2.0 * n)


def fit_message_model(
    samples: Sequence[Tuple[int, float]]
) -> Tuple[float, float]:
    """Least-squares ``(t_startup, t_comm)`` from (words, one-way seconds).

    Robust to the noise a loaded host injects into ping-pong timing:

    * samples with non-finite, zero or negative times are discarded
      outright (a clock can step backwards under NTP adjustment);
    * a Theil-Sen baseline (median of pairwise slopes, median intercept)
      -- which a single wild sample cannot drag, unlike least squares --
      flags samples whose measured time exceeds 10x its prediction as
      scheduler hiccups, and the final least-squares fit runs on the
      survivors (never discarding below two samples).

    Clamps both constants to a tiny positive floor: on a fast host the
    intercept of a noisy fit can dip below zero, and the cost model
    rejects negative constants.
    """
    clean = [
        (int(m), float(t))
        for m, t in samples
        if np.isfinite(t) and t > 0.0 and m >= 0
    ]
    if len(clean) < 2:
        raise ValueError(
            "need at least two usable (words, time) samples to fit; got "
            f"{len(clean)} after discarding non-finite/non-positive times "
            f"from {len(list(samples))}"
        )

    m = np.array([p[0] for p in clean], dtype=float)
    t = np.array([p[1] for p in clean], dtype=float)
    pair_slopes = [
        (t[j] - t[i]) / (m[j] - m[i])
        for i in range(len(clean))
        for j in range(i + 1, len(clean))
        if m[j] != m[i]
    ]
    if pair_slopes:
        ts_slope = float(np.median(pair_slopes))
        ts_intercept = float(np.median(t - ts_slope * m))
        predicted = np.maximum(ts_intercept + ts_slope * m, 1.0e-12)
        keep = t <= 10.0 * predicted
    else:  # all sizes identical: no slope information to gate on
        keep = np.ones(len(clean), dtype=bool)
    if keep.sum() < 2:
        keep[:] = True
    slope, intercept = np.polyfit(m[keep], t[keep], 1)
    floor = 1.0e-12
    return max(float(intercept), floor), max(float(slope), floor)


def measure_message_costs(
    sizes: Sequence[int] = PING_PONG_SIZES,
    repeats: int = 7,
    backend: Optional[ProcessBackend] = None,
) -> List[Tuple[int, float]]:
    """Ping-pong the process backend; returns (words, one-way seconds) samples."""
    be = backend if backend is not None else ProcessBackend(timeout=60.0)
    run = be.run(PingPongProgram(sizes=sizes, repeats=repeats), nprocs=2)
    round_trips = run.results[0]
    return [(m, rt / 2.0) for m, rt in round_trips]


def calibrate_host(
    sizes: Sequence[int] = PING_PONG_SIZES,
    repeats: int = 7,
    flop_n: int = 1_000_000,
    backend: Optional[ProcessBackend] = None,
) -> Calibration:
    """Measure ``t_startup``/``t_comm``/``t_flop`` on this host."""
    samples = measure_message_costs(sizes=sizes, repeats=repeats, backend=backend)
    t_startup, t_comm = fit_message_model(samples)
    t_flop = measure_t_flop(n=flop_n)
    return Calibration(
        t_startup=t_startup,
        t_comm=t_comm,
        t_flop=t_flop,
        message_samples=samples,
        flop_rate=1.0 / t_flop if t_flop > 0 else 0.0,
    )
