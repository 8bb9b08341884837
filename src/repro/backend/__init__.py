"""Execution backends: the same SPMD programs, simulated or real.

The paper's claims live on a modelled multicomputer; this package makes
them testable against wall-clock reality.  One generator-op protocol
(:mod:`repro.machine.events`), two substrates:

* :class:`SimulatedBackend` -- the deterministic discrete-event scheduler
  with the ``t_startup + m·t_comm`` cost model (the paper's machine);
* :class:`ProcessBackend` -- one OS process per rank, real queues, real
  ``perf_counter`` timing, hard timeouts, per-rank stats mirrored into
  the simulator's :class:`~repro.machine.stats.MachineStats` shape.

On top: :func:`cross_validate` proves both produce bitwise-identical
solver output and reports modelled-vs-measured time (benchmark E20), and
:func:`calibrate_host` fits the cost model's three constants to the host
so the simulator predicts this machine instead of a 1996 one.

The fault-tolerance layer (DESIGN.md §8) is backend-agnostic: one seeded
:class:`~repro.machine.faults.FaultPlan` drives Comm-level message faults
(:mod:`~repro.backend.faulty`), in-program state corruption and substrate
crash injection identically on both backends;
:class:`ResilientCGProgram` + :func:`run_with_recovery` survive them via
ABFT checksums (:mod:`~repro.backend.abft`), sanity audits/rollbacks and
respawn-from-checkpoint restarts; :mod:`~repro.backend.chaos` sweeps
seeded randomized schedules to enforce the converge-or-classified-error
contract.

Degraded-mode execution (DESIGN.md §9) extends the layer to losses the
respawn protocol cannot mask: under ``policy="shrink"`` a crashed or
deadline-stale rank (:class:`~repro.machine.faults.StragglerDetectedError`)
is dropped, the survivors run an online ``REDISTRIBUTE`` of every CG
operand onto a balanced smaller layout, and the solve continues from the
re-sliced checkpoint; ``policy="rebalance"`` instead re-cuts the row
space around a slow-but-alive rank with the capacity-scaled partitioner.
"""

from .abft import (
    AbftChecksumError,
    check_matvec,
    column_checksums,
    decode_dot,
    encode_dot,
)
from .base import (
    BackendError,
    BackendRun,
    BackendTimeoutError,
    ExecutionBackend,
    RecvTimeoutError,
    WorkerCrashedError,
    WorkerFailedError,
)
from .calibrate import (
    Calibration,
    calibrate_host,
    fit_message_model,
    measure_message_costs,
    measure_t_flop,
)
from .counting import TagCountingProgram, allreduce_trees, tally_send_tags
from .chaos import (
    ChaosOutcome,
    chaos_plan,
    chaos_run,
    chaos_sweep,
    classify_failure,
    format_report,
)
from .faulty import (
    FaultInjectingProgram,
    FaultInjector,
    SlowdownProgram,
)
from .process import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_RUN_DEADLINE,
    ProcessBackend,
    crash_injection_support,
    default_start_method,
    process_backend_support,
)
from .programs import (
    CGRankProgram,
    PCGRankProgram,
    PingPongProgram,
    ResilientCGProgram,
)
from .simulated import SimulatedBackend
from .solve import (
    BACKENDS,
    RecoveryPolicy,
    backend_solve,
    make_backend,
    make_solver_program,
    reslice_snapshots,
    run_with_recovery,
)
from .reproducible import Superaccumulator
from .validate import (
    BackendMismatchError,
    CrossValidation,
    FaultSequenceParity,
    cross_validate,
    fault_sequence_parity,
    hpcg_cross_validate,
)

__all__ = [
    "BACKENDS",
    "AbftChecksumError",
    "BackendError",
    "BackendMismatchError",
    "Superaccumulator",
    "BackendRun",
    "BackendTimeoutError",
    "CGRankProgram",
    "Calibration",
    "ChaosOutcome",
    "CrossValidation",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_RUN_DEADLINE",
    "ExecutionBackend",
    "FaultInjectingProgram",
    "FaultInjector",
    "FaultSequenceParity",
    "PCGRankProgram",
    "PingPongProgram",
    "ProcessBackend",
    "RecoveryPolicy",
    "RecvTimeoutError",
    "ResilientCGProgram",
    "SimulatedBackend",
    "SlowdownProgram",
    "TagCountingProgram",
    "WorkerCrashedError",
    "WorkerFailedError",
    "allreduce_trees",
    "backend_solve",
    "calibrate_host",
    "chaos_plan",
    "chaos_run",
    "chaos_sweep",
    "check_matvec",
    "classify_failure",
    "column_checksums",
    "crash_injection_support",
    "cross_validate",
    "hpcg_cross_validate",
    "decode_dot",
    "default_start_method",
    "encode_dot",
    "fault_sequence_parity",
    "fit_message_model",
    "format_report",
    "make_backend",
    "make_solver_program",
    "measure_message_costs",
    "measure_t_flop",
    "process_backend_support",
    "reslice_snapshots",
    "run_with_recovery",
    "tally_send_tags",
]
