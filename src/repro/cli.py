"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package, paper and machine-model summary.
``solve``
    Run one distributed CG solve and print the result plus the
    communication bill (options: matrix family, size, processors,
    topology, strategy, solver).  ``--backend process`` runs the SPMD
    rank program on real OS processes with measured wall-clock time
    instead of the simulated cost model.
``strategies``
    List the available mat-vec strategies with their paper references.
``gantt``
    Trace one mat-vec under a chosen strategy and print the ASCII Gantt
    chart (``--json PATH`` additionally writes a Chrome trace-event file
    for chrome://tracing / Perfetto).
``calibrate``
    Measure this host's ``t_startup``/``t_comm``/``t_flop`` with a
    process-backend ping-pong and a timed DAXPY, and print the fitted
    cost model.
``chaos``
    Run seeded randomized fault schedules through the fault-tolerant
    distributed CG on one or both backends and print the per-seed
    report; exits non-zero if any run breaks the chaos contract
    (converge to reference, or fail with a classified typed error).
    ``--stragglers`` adds seeded slowdown faults with deadline detection;
    ``--policy shrink|rebalance`` selects degraded-mode recovery (online
    REDISTRIBUTE onto the survivors / capacity-aware re-partitioning).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

STRATEGIES = {
    "dense_rowblock": "Scenario 1 / Figure 3: A(BLOCK,*), broadcast of p",
    "dense_colblock_serial": "Scenario 2 / Figure 4: serial column loop",
    "dense_colblock_2dtemp": "Scenario 2 + permanent 2-D temp + SUM merge",
    "csr_forall": "Figure 2: CSR FORALL (naive col/a layout)",
    "csr_forall_aligned": "Figure 2 + Section 5.2.1 whole-row atoms",
    "csc_serial": "Section 5.1 baseline: serialised CSC scatter",
    "csc_private": "Section 5.1: ON PROCESSOR + PRIVATE/MERGE",
    "csc_private_balanced": "Section 5.2.2: CG_BALANCED_PARTITIONER_1",
    "csr_halo": "HPF-2 SHADOW halo exchange (ablation)",
}

MATRICES = {
    "poisson2d": "2-D five-point Poisson (CFD pressure solve)",
    "poisson1d": "1-D Poisson chain",
    "truss": "random-stiffness truss (structural analysis)",
    "circuit": "resistor-network conductance (circuit simulation)",
    "nas_cg": "NAS-CG-style random sparse SPD",
    "powerlaw": "irregular power-law Laplacian (Section 5.2.2)",
}

SOLVERS = ("cg", "pcg", "bicg", "cgs", "bicgstab", "gmres")


def _make_matrix(family: str, n: int):
    from . import (
        circuit_nodal,
        irregular_powerlaw,
        nas_cg_style,
        poisson1d,
        poisson2d,
        structural_truss,
    )

    if family == "poisson2d":
        side = max(2, int(round(np.sqrt(n))))
        return poisson2d(side, side)
    if family == "poisson1d":
        return poisson1d(n)
    if family == "truss":
        return structural_truss(n, seed=0)
    if family == "circuit":
        return circuit_nodal(n, seed=0)
    if family == "nas_cg":
        return nas_cg_style(n, seed=0)
    if family == "powerlaw":
        return irregular_powerlaw(n, seed=0)
    raise ValueError(f"unknown matrix family {family!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'HPF and Possible Extensions to support "
            "Conjugate Gradient Algorithms' (Dincer et al., 1995/96)"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="package / paper / machine-model summary")
    sub.add_parser("strategies", help="list mat-vec strategies")

    solve = sub.add_parser("solve", help="run one distributed solve")
    solve.add_argument("--matrix", choices=sorted(MATRICES), default="poisson2d")
    solve.add_argument("--n", type=int, default=256, help="problem size")
    solve.add_argument("-p", "--nprocs", type=int, default=8)
    solve.add_argument(
        "--topology", choices=("hypercube", "ring", "mesh2d", "complete"),
        default="hypercube",
    )
    solve.add_argument("--strategy", choices=sorted(STRATEGIES),
                       default="csr_forall_aligned")
    solve.add_argument("--solver", choices=SOLVERS, default="cg")
    solve.add_argument(
        "--fused", action="store_true",
        help="single-reduction (communication-avoiding) recurrence: all "
             "per-iteration inner products in one batched allreduce "
             "(cg/pcg, either backend)",
    )
    solve.add_argument(
        "--scenario", choices=("stencil27",), default=None,
        help="HPCG-class workload: 3-D 27-point stencil on a subcube "
             "process grid with halo exchange (overrides --matrix/"
             "--solver/--strategy; use --shape/--precond/--reproducible)",
    )
    solve.add_argument(
        "--shape", default="8", metavar="NX[xNYxNZ]",
        help="stencil27 grid dimensions, e.g. '16' (cube) or '16x16x8'",
    )
    solve.add_argument(
        "--precond", choices=("none", "jacobi", "mg"), default="mg",
        help="stencil27 preconditioner: geometric multigrid V-cycle "
             "(default), local Jacobi, or none",
    )
    solve.add_argument(
        "--reproducible", action="store_true",
        help="bitwise-reproducible reductions: inner products ride a "
             "fixed-point superaccumulator, making the solution invariant "
             "to rank count, topology, backend and fusion (backend-"
             "portable solvers: cg/pcg/--scenario stencil27)",
    )
    solve.add_argument("--rtol", type=float, default=1e-8)
    solve.add_argument("--maxiter", type=int, default=None)
    solve.add_argument(
        "--backend", choices=("simulated", "process"), default="simulated",
        help="simulated = event simulator with the paper's cost model "
             "(default); process = real OS processes, measured wall time "
             "(cg/pcg only)",
    )
    solve.add_argument(
        "--timeout", type=float, default=None,
        help="hard wall-clock bound for --backend process (seconds; "
             "default $REPRO_RUN_DEADLINE, else 120)",
    )
    solve.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="process-backend worker liveness cadence (seconds; default "
             "$REPRO_HEARTBEAT_INTERVAL, else 0.5)",
    )
    solve.add_argument(
        "--policy", choices=("respawn", "shrink", "rebalance"),
        default="respawn",
        help="degraded-mode recovery policy (--backend process; "
             "respawn|shrink for --scenario stencil27)",
    )
    solve.add_argument(
        "--straggler-deadline", type=float, default=None,
        help="arm straggler detection: flag a rank whose heartbeat stays "
             "stale this many seconds (--backend process)",
    )
    solve.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="stencil27 only: run the fault-tolerant program and journal "
             "coordinated checkpoints durably to DIR; re-running with the "
             "same DIR after a crash (even SIGKILL of this driver) resumes "
             "from the newest complete checkpoint",
    )

    gantt = sub.add_parser("gantt", help="ASCII Gantt of one mat-vec")
    gantt.add_argument("--matrix", choices=sorted(MATRICES), default="poisson2d")
    gantt.add_argument("--n", type=int, default=256)
    gantt.add_argument("--nprocs", type=int, default=4)
    gantt.add_argument("--strategy", choices=sorted(STRATEGIES),
                       default="csc_private")
    gantt.add_argument("--width", type=int, default=72)
    gantt.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the trace as Chrome trace-event JSON to PATH",
    )

    cal = sub.add_parser(
        "calibrate",
        help="fit t_startup/t_comm/t_flop to this host (process backend)",
    )
    cal.add_argument("--repeats", type=int, default=7,
                     help="ping-pong repetitions per message size")
    cal.add_argument("--max-words", type=int, default=262144,
                     help="largest ping-pong message (8-byte words)")
    cal.add_argument("--flop-n", type=int, default=1_000_000,
                     help="DAXPY length for the t_flop measurement")
    cal.add_argument("--json", metavar="PATH", default=None,
                     help="write the fitted constants as JSON to PATH")

    chaos = sub.add_parser(
        "chaos",
        help="seeded randomized fault schedules through fault-tolerant CG",
    )
    chaos.add_argument(
        "--seeds", default="0:8", metavar="SPEC",
        help="comma list and/or start:stop ranges, e.g. '0:8' or '1,5,9'",
    )
    chaos.add_argument(
        "--backends", default="simulated,process",
        help="comma list drawn from {simulated, process}",
    )
    chaos.add_argument("-p", "--nprocs", type=int, default=4)
    chaos.add_argument("--n", type=int, default=48, help="problem size")
    chaos.add_argument(
        "--scenario", choices=("poisson1d", "stencil27"), default="poisson1d",
        help="workload under chaos: 1-D Poisson CG (default) or the "
             "HPCG-class 27-point stencil solve with ABFT checks armed "
             "(use --precond/--shape; same seeded fault draw either way)",
    )
    chaos.add_argument(
        "--precond", choices=("none", "jacobi", "mg"), default="mg",
        help="stencil27 preconditioner (ignored for poisson1d)",
    )
    chaos.add_argument(
        "--shape", default=None, metavar="NX[xNYxNZ]",
        help="stencil27 grid dimensions (default 6x6x6; overrides --n)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-run wall-clock bound for the process backend (seconds)",
    )
    chaos.add_argument(
        "--no-crash", action="store_true",
        help="disable fail-stop crash injection (message/state faults only)",
    )
    chaos.add_argument(
        "--policy", choices=("respawn", "shrink", "rebalance"),
        default="respawn",
        help="recovery policy when a rank is lost or flagged as straggler",
    )
    chaos.add_argument(
        "--stragglers", action="store_true",
        help="also draw straggler (slowdown) faults and arm deadline "
             "detection on both backends",
    )
    chaos.add_argument(
        "--straggler-deadline", type=float, default=1.0,
        help="process-backend heartbeat staleness deadline in seconds "
             "(the simulated deadline is fixed in virtual time)",
    )
    chaos.add_argument(
        "--reproducible", action="store_true",
        help="sharpen the contract: solves run over superaccumulator "
             "reductions and an OK outcome (converged or degraded) must "
             "match the reference bitwise, not merely to rtol",
    )
    chaos.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the per-seed report table to PATH",
    )
    chaos.add_argument(
        "--json", metavar="PATH", default=None, dest="json_path",
        help="write structured per-seed outcomes (outcome, classification, "
             "attempts, injected faults) as JSON to PATH ('-' for stdout)",
    )

    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant job stream through the persistent "
             "solver service (warm pool, retries, chaos soak)",
    )
    serve.add_argument("--jobs", type=int, default=32,
                       help="number of jobs in the stream")
    serve.add_argument("--seed", type=int, default=0,
                       help="soak seed (job fault draws are derived from it)")
    serve.add_argument("--backend", choices=("process", "simulated"),
                       default="process")
    serve.add_argument("-p", "--nprocs", type=int, default=4)
    serve.add_argument("--n", type=int, default=48, help="problem size")
    serve.add_argument("--tenants", type=int, default=4,
                       help="number of tenants sharing the queue")
    serve.add_argument("--policy", choices=("respawn", "shrink", "rebalance"),
                       default="shrink",
                       help="mid-stream recovery policy")
    serve.add_argument("--crash-prob", type=float, default=0.3,
                       help="per-job probability of an injected crash")
    serve.add_argument("--straggler-prob", type=float, default=0.2,
                       help="per-job probability of an injected straggler")
    serve.add_argument("--deadline", type=float, default=60.0,
                       help="per-job wall-clock SLA on the process pool "
                            "(seconds)")
    serve.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="write-ahead job journal directory; accepted jobs survive a "
             "dead driver (restart with the same DIR replays them) and "
             "SIGTERM/SIGINT triggers a graceful drain that parks queued "
             "jobs there instead of dropping them",
    )
    serve.add_argument(
        "--json", metavar="PATH", default=None, dest="json_path",
        help="write the full soak report as JSON to PATH ('-' for stdout)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit one solve to an ephemeral service instance and "
             "print its result with full attempt telemetry",
    )
    submit.add_argument("--matrix", choices=sorted(MATRICES),
                        default="poisson2d")
    submit.add_argument("--n", type=int, default=256,
                        help="problem size (rows)")
    submit.add_argument("-p", "--nprocs", type=int, default=4)
    submit.add_argument("--backend", choices=("process", "simulated"),
                        default="process")
    submit.add_argument("--solver", default="cg")
    submit.add_argument("--rtol", type=float, default=1e-8)
    submit.add_argument("--maxiter", type=int, default=None)
    submit.add_argument("--tenant", default="cli")
    submit.add_argument("--deadline", type=float, default=60.0,
                        help="per-attempt wall-clock SLA (seconds, "
                             "process backend)")
    submit.add_argument("--retries", type=int, default=3,
                        help="max service-level attempts")
    submit.add_argument("--policy",
                        choices=("respawn", "shrink", "rebalance"),
                        default="respawn")
    submit.add_argument("--fused", action="store_true",
                        help="single-reduction CG recurrence")
    submit.add_argument(
        "--scenario", choices=("cg", "stencil27"), default="cg",
        help="job kind: row-block solve of --matrix (default) or the "
             "HPCG 27-point stencil built from --shape",
    )
    submit.add_argument(
        "--shape", default="8", metavar="NX[xNYxNZ]",
        help="stencil27 grid dimensions, e.g. '8' (cube) or '16x16x8'",
    )
    submit.add_argument(
        "--precond", choices=("none", "jacobi", "mg"), default="mg",
        help="stencil27 preconditioner",
    )
    submit.add_argument(
        "--reproducible", action="store_true",
        help="bitwise-reproducible reductions",
    )
    submit.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="journal checkpoints durably to DIR; resubmitting after a "
             "service crash resumes from the newest complete checkpoint",
    )
    submit.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="write-ahead job journal directory for the ephemeral "
             "service; with --idempotency-key, a resubmission returns "
             "the recorded result instead of re-running",
    )
    submit.add_argument(
        "--idempotency-key", metavar="KEY", default=None,
        help="exactly-once key for the job (requires --journal-dir to "
             "persist across invocations)",
    )
    submit.add_argument(
        "--json", metavar="PATH", default=None, dest="json_path",
        help="write the job result (with attempt telemetry) as JSON to "
             "PATH ('-' for stdout)",
    )
    return parser


def _cmd_info() -> int:
    from . import __version__
    from .machine import CostModel

    cost = CostModel()
    print("repro", __version__)
    print("paper : Dincer, Hawick, Choudhary, Fox -- 'High Performance")
    print("        Fortran and Possible Extensions to support Conjugate")
    print("        Gradient Algorithms', NPAC SCCS-703 / HPDC 1996")
    print(f"model : t_startup={cost.t_startup:.1e}s  t_comm={cost.t_comm:.1e}s/word"
          f"  t_flop={cost.t_flop:.1e}s")
    print("docs  : README.md, DESIGN.md, EXPERIMENTS.md")
    print("bench : pytest benchmarks/ --benchmark-only   (E1..E17)")
    return 0


def _cmd_strategies() -> int:
    width = max(len(k) for k in STRATEGIES)
    for name in sorted(STRATEGIES):
        print(f"{name:<{width}}  {STRATEGIES[name]}")
    return 0


def _parse_shape(spec: str):
    """Parse ``--shape``: '16' -> (16,16,16); '16x16x8' -> (16,16,8)."""
    parts = [int(p) for p in spec.lower().split("x") if p]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) == 3:
        return tuple(parts)
    raise ValueError(f"--shape wants NX or NXxNYxNZ, got {spec!r}")


def _job_spec(args: argparse.Namespace, **fields):
    """The job ``repro solve`` / ``submit`` runs, and its problem line.

    Raises ``ValueError`` (a usage error) for flags the job cannot take.
    """
    from .backend.job import JobSpec

    if args.scenario == "stencil27":
        if args.policy == "rebalance":
            raise ValueError("stencil27 jobs support --policy respawn|shrink")
        shape = _parse_shape(args.shape)
        problem = (f"stencil27 {'x'.join(str(s) for s in shape)} "
                   f"precond={args.precond}")
        return JobSpec(scenario="stencil27", shape=shape,
                       precond=args.precond, **fields), problem
    A = _make_matrix(args.matrix, args.n)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.nrows)
    problem = f"{args.matrix} n={A.nrows} nnz={A.nnz}"
    return JobSpec(matrix=A, b=b, solver=args.solver, **fields), problem


def _cmd_solve_backend(args: argparse.Namespace) -> int:
    """``repro solve`` on an execution backend: one job, one entry."""
    from . import StoppingCriterion
    from .backend import (ProcessBackend, SimulatedBackend,
                          default_start_method, process_backend_support)
    from .backend.job import solve
    from .backend.solve import SOLVER_PROGRAMS

    try:
        spec, problem = _job_spec(
            args, nprocs=args.nprocs,
            criterion=StoppingCriterion(rtol=args.rtol, maxiter=args.maxiter),
            fused=args.fused, reproducible=args.reproducible,
            policy=args.policy, deadline=args.timeout,
            heartbeat_interval=args.heartbeat_interval,
            straggler_deadline=args.straggler_deadline,
            checkpoint_dir=args.checkpoint_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flags = "--backend process" if args.backend == "process" else "/".join(
        f for f, on in (("--fused", args.fused),
                        ("--reproducible", args.reproducible)) if on
    )
    if spec.solver not in SOLVER_PROGRAMS:
        print(f"error: {flags} supports solvers "
              f"{sorted(set(SOLVER_PROGRAMS))}, not {spec.solver!r}",
              file=sys.stderr)
        return 2
    degraded = args.policy != "respawn" or args.straggler_deadline is not None
    if degraded and spec.solver != "cg":
        print("error: --policy/--straggler-deadline run the fault-tolerant "
              "program and support --solver cg only", file=sys.stderr)
        return 2
    if args.backend == "process":
        ok, detail = process_backend_support()
        if not ok:
            print(f"error: process backend unavailable on this platform: "
                  f"{detail}", file=sys.stderr)
            return 2
        backend = ProcessBackend()
        machine = f"{args.nprocs} OS processes"
        start = f" ({backend.start_method or default_start_method()} start)"
        clock = "wall time"
    else:
        backend = SimulatedBackend(topology=args.topology)
        machine = f"{args.nprocs} procs, {args.topology} (simulated)"
        start = ""
        clock = "sim time "
    result = solve(spec, backend)

    marks = "".join(
        m for m, on in ((" [fused]", args.fused),
                        (" [reproducible]", args.reproducible)) if on
    )
    timing = [f"{clock} : {result.machine_elapsed * 1e3:.3f} ms"]
    hp = result.extras.get("hpcg")
    if hp is not None:
        _print_result(result, [
            f"scenario  : stencil27 {'x'.join(str(s) for s in spec.shape)} "
            f"(n={result.x.size}, 27-point)",
            f"machine   : {machine}, process grid "
            f"{'x'.join(str(g) for g in hp['grid'])}",
            f"solver    : hpcg cg / precond={hp['precond']}"
            + (f" depth={hp['mg_depth']}" if hp["precond"] == "mg" else "")
            + marks,
        ], timing)
        halo = hp["halo"]
        print(f"halo      : {halo['neighbors']} neighbors "
              f"({halo['faces']}f/{halo['edges']}e/{halo['corners']}c), "
              f"{halo['words_per_exchange']} words per exchange")
        print("phases    : " + "  ".join(
            f"{k}={hp['phase_seconds'][k] * 1e3:.2f}ms"
            for k in ("setup", "spmv", "mg", "dot")))
        resil = result.extras.get("resilience")
        if resil:
            restarted = resil.get("restarted_from")
            print(f"resilience: checkpoints="
                  f"{resil.get('checkpoints_published', 0)} "
                  f"audits={resil.get('audits', 0)} "
                  f"rollbacks={resil.get('rollbacks', 0)}"
                  + (f" resumed from iteration {restarted}"
                     if restarted is not None else ""))
    else:
        if args.backend == "process":
            times = result.extras["timings"]
            timing = [f"{timing[0]} (measured)"] + [
                f"  {key:<7} : {times.get(key, 0.0) * 1e3:.3f} ms"
                for key in ("compute", "comm", "send")]
        _print_result(result, [
            f"matrix    : {problem}",
            f"machine   : {machine}{start}",
            f"solver    : {result.solver} / {result.strategy}{marks}",
        ], timing)
    recovery = result.extras.get("recovery")
    if recovery and args.backend == "process":
        print(f"recovery  : policy={recovery['policy']} "
              f"attempts={recovery['attempts']} "
              f"final ranks={recovery['final_nprocs']}")
        for shrink in recovery.get("shrinks", []):
            print(f"  {shrink['summary']}")
    return 0 if result.converged else 1


def _print_result(result, head: List[str], timing: List[str]) -> None:
    """``repro solve``'s report: ``head``, convergence, ``timing``, traffic."""
    for line in head:
        print(line)
    print(f"converged : {result.converged} in {result.iterations} iterations")
    print(f"residual  : {result.final_residual:.3e}")
    for line in timing:
        print(line)
    print(f"comm      : {result.comm['messages']} messages, "
          f"{result.comm['words']:.0f} words")


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.checkpoint_dir and args.scenario != "stencil27":
        print("error: --checkpoint-dir needs --scenario stencil27",
              file=sys.stderr)
        return 2
    if args.backend == "simulated" and (
            args.policy != "respawn" or args.straggler_deadline is not None
            or args.heartbeat_interval is not None
            or args.timeout is not None):
        print("error: --policy/--straggler-deadline/--heartbeat-interval/"
              "--timeout need --backend process; for the simulated "
              "substrate use 'repro chaos --stragglers --policy shrink'",
              file=sys.stderr)
        return 2
    if (args.backend == "process" or args.scenario or args.fused
            or args.reproducible):
        # real processes, the HPCG stencil, and the fused and reproducible
        # modes live in the backend-portable SPMD rank programs
        return _cmd_solve_backend(args)

    from . import (
        JacobiPreconditioner,
        Machine,
        StoppingCriterion,
        hpf_bicg,
        hpf_bicgstab,
        hpf_cg,
        hpf_cgs,
        hpf_gmres,
        hpf_pcg,
        make_strategy,
    )

    A = _make_matrix(args.matrix, args.n)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.nrows)

    machine = Machine(nprocs=args.nprocs, topology=args.topology)
    strategy = make_strategy(args.strategy, machine, A)
    crit = StoppingCriterion(rtol=args.rtol, maxiter=args.maxiter)

    if args.solver == "pcg":
        result = hpf_pcg(strategy, b, JacobiPreconditioner(A), criterion=crit)
    else:
        hpf_solver = {"cg": hpf_cg, "bicg": hpf_bicg, "cgs": hpf_cgs,
                      "bicgstab": hpf_bicgstab}.get(args.solver, hpf_gmres)
        result = hpf_solver(strategy, b, criterion=crit)

    _print_result(result, [
        f"matrix    : {args.matrix} n={A.nrows} nnz={A.nnz}",
        f"machine   : {args.nprocs} procs, {args.topology}",
        f"solver    : {result.solver} / {result.strategy}",
    ], [f"sim time  : {result.machine_elapsed * 1e3:.3f} ms"])
    for op, agg in sorted(machine.stats.by_op().items()):
        print(f"  {op:<15} {agg['words']:>12.0f} words  {agg['time'] * 1e3:8.3f} ms")
    return 0 if result.converged else 1


def _cmd_gantt(args: argparse.Namespace) -> int:
    from . import Machine, make_strategy
    from .machine import Tracer

    A = _make_matrix(args.matrix, args.n)
    machine = Machine(nprocs=args.nprocs)
    tracer = Tracer.attach(machine)
    strategy = make_strategy(args.strategy, machine, A)
    p = strategy.make_vector("p", np.linspace(0, 1, A.nrows))
    q = strategy.make_vector("q")
    strategy.apply(p, q)
    print(f"{args.strategy} on {args.matrix} n={A.nrows}, N_P={args.nprocs}")
    print(tracer.ascii_gantt(width=args.width))
    util = tracer.utilization()
    print(f"utilization: {np.round(util, 2).tolist()}")
    if args.json:
        path = tracer.write_chrome_trace(args.json, process_name=args.strategy)
        print(f"chrome trace: {path} (load in chrome://tracing or Perfetto)")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .backend import calibrate_host, process_backend_support
    from .backend.programs import PING_PONG_SIZES
    from .machine import CostModel

    ok, detail = process_backend_support()
    if not ok:
        print(f"error: process backend unavailable on this platform: {detail}",
              file=sys.stderr)
        return 2

    sizes = tuple(m for m in PING_PONG_SIZES if m <= args.max_words)
    cal = calibrate_host(sizes=sizes, repeats=args.repeats, flop_n=args.flop_n)
    default = CostModel()
    print("ping-pong samples (best of "
          f"{args.repeats}, one-way):")
    for words, sec in cal.message_samples:
        print(f"  {words:>7d} words  {sec * 1e6:10.2f} us")
    print("fitted host constants vs simulator defaults:")
    print(f"  t_startup : {cal.t_startup:.3e} s   (default {default.t_startup:.3e})")
    print(f"  t_comm    : {cal.t_comm:.3e} s/word (default {default.t_comm:.3e})")
    print(f"  t_flop    : {cal.t_flop:.3e} s      (default {default.t_flop:.3e})")
    print(f"  flop rate : {cal.flop_rate / 1e9:.2f} Gflop/s")
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(cal.as_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _parse_seed_spec(spec: str) -> List[int]:
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(part))
    return seeds


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .backend import process_backend_support
    from .backend.chaos import CHAOS_BACKENDS, chaos_sweep, format_report
    from .backend.process import crash_injection_support

    seeds = _parse_seed_spec(args.seeds)
    if not seeds:
        print("error: --seeds selected no seeds", file=sys.stderr)
        return 2
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    for b in backends:
        if b not in CHAOS_BACKENDS:
            print(f"error: unknown backend {b!r}; choose from "
                  f"{CHAOS_BACKENDS}", file=sys.stderr)
            return 2
    if "process" in backends:
        ok, detail = process_backend_support()
        if ok and not args.no_crash:
            ok, detail = crash_injection_support()
        if not ok:
            print(f"note: skipping process backend: {detail}", file=sys.stderr)
            backends = [b for b in backends if b != "process"]
    if not backends:
        print("error: no usable backend remains", file=sys.stderr)
        return 2

    shape = None
    if args.shape is not None:
        try:
            shape = _parse_shape(args.shape)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.scenario == "stencil27" and args.policy == "rebalance":
        print("error: --scenario stencil27 supports --policy respawn|shrink "
              "(rebalancing would break the subcube halo)", file=sys.stderr)
        return 2

    outcomes = chaos_sweep(
        seeds, backends=backends, nprocs=args.nprocs, n=args.n,
        timeout=args.timeout, allow_crash=not args.no_crash,
        policy=args.policy, stragglers=args.stragglers,
        straggler_deadline=args.straggler_deadline,
        reproducible=args.reproducible,
        scenario=args.scenario, precond=args.precond, shape=shape,
    )
    report = format_report(outcomes)
    out = _human_stream(args)
    print(report, file=out)
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(report + "\n")
        print(f"wrote {args.report}", file=out)
    if args.json_path:
        payload = {
            "config": {
                "seeds": seeds,
                "backends": backends,
                "nprocs": args.nprocs,
                "n": args.n,
                "policy": args.policy,
                "allow_crash": not args.no_crash,
                "stragglers": args.stragglers,
                "straggler_deadline": args.straggler_deadline,
                "scenario": args.scenario,
                "precond": (
                    args.precond if args.scenario == "stencil27" else ""
                ),
                "shape": list(shape) if shape else None,
            },
            "contract_held": all(o.ok for o in outcomes),
            "outcomes": [o.to_dict() for o in outcomes],
        }
        _emit_json(payload, args.json_path)
    return 0 if all(o.ok for o in outcomes) else 1


def _human_stream(args: argparse.Namespace):
    """Stdout normally; stderr when ``--json -`` claims stdout for JSON.

    Keeps ``repro <cmd> --json - | jq`` parseable while the table stays
    visible on the terminal.
    """
    return sys.stderr if args.json_path == "-" else sys.stdout


def _emit_json(payload, path: str) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        from pathlib import Path

        Path(path).write_text(text + "\n")
        print(f"wrote {path}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .backend import process_backend_support
    from .backend.process import crash_injection_support
    from .service import soak_run

    if args.backend == "process":
        ok, detail = process_backend_support()
        if ok:
            ok, detail = crash_injection_support()
        if not ok:
            print(f"error: process service unavailable: {detail}",
                  file=sys.stderr)
            return 2

    # Graceful drain on SIGTERM/SIGINT: the handler only sets an event
    # (it must not touch the queue lock the interrupted main thread may
    # hold); a watcher thread does the actual drain.  Queued jobs park
    # in the journal (replayed by the next `repro serve --journal-dir`),
    # the in-flight job finishes, and we exit 0.
    wake = threading.Event()
    state: dict = {"service": None, "signalled": False, "drain": None}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        state["signalled"] = True
        wake.set()

    def _watch():
        wake.wait()
        svc = state["service"]
        if state["signalled"] and svc is not None:
            state["drain"] = svc.graceful_drain(timeout=4 * args.deadline)

    watcher = threading.Thread(
        target=_watch, name="repro-drain-watcher", daemon=True
    )
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    watcher.start()
    try:
        report = soak_run(
            jobs=args.jobs, seed=args.seed, backend=args.backend,
            nprocs=args.nprocs, n=args.n, tenants=args.tenants,
            crash_prob=args.crash_prob, straggler_prob=args.straggler_prob,
            policy=args.policy, deadline=args.deadline,
            journal_dir=args.journal_dir,
            on_service=lambda svc: state.__setitem__("service", svc),
        )
    finally:
        wake.set()  # release the watcher if no signal ever arrived
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if state["signalled"]:
        # the watcher drains with timeout=4*deadline; join at least that
        # long (plus slack) so the summary reports the real outcome
        # instead of racing the drain to process exit
        watcher.join(timeout=4 * args.deadline + 10.0)
        drain = state["drain"]
        if drain is None:
            print(
                "graceful drain: still in progress at exit "
                "(parked/cancelled counts unavailable)",
                file=sys.stderr,
            )
        else:
            print(
                f"graceful drain: parked={drain.get('parked', 0)} "
                f"cancelled={drain.get('cancelled', 0)} "
                f"journal={drain.get('journal') or '-'}",
                file=sys.stderr,
            )
    out = _human_stream(args)
    header = (
        f"{'job':>4} {'tenant':<10} {'fault':<15} {'status':<9} "
        f"{'class':<18} {'att':>3} {'ranks':>5} {'bitwise':<7} "
        f"{'elapsed':>8}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for v in report.verdicts:
        print(
            f"{v.job_id:>4} {v.tenant:<10} {v.fault:<15} {v.status:<9} "
            f"{v.classification or '-':<18} {v.attempts:>3} "
            f"{v.nprocs_final or '-':>5} "
            f"{'yes' if v.bitwise else 'no':<7} {v.elapsed:>7.2f}s",
            file=out,
        )
    print("-" * len(header), file=out)
    print(report.summary(), file=out)
    c = report.counters
    print(
        f"service: retries={c.get('retries', 0)} "
        f"rebuilds={c.get('pool_rebuilds', 0)} heals={c.get('heals', 0)} "
        f"breaker_trips={c.get('breaker_trips', 0)} "
        f"busy={c.get('busy_time', 0.0):.2f}s",
        file=out,
    )
    if args.json_path:
        _emit_json(report.as_dict(), args.json_path)
    if state["signalled"]:
        # a drained service exits cleanly: parked jobs are journaled,
        # not lost, so the drain itself is not a failure
        return 0
    return 0 if report.contract_held else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from . import StoppingCriterion
    from .backend import process_backend_support
    from .backend.simulated import SimulatedBackend
    from .service import (
        RetryPolicy,
        ServiceOverloadedError,
        SolverService,
        WarmPool,
    )
    from .service.telemetry import summarize_attempts

    if args.backend == "process":
        ok, detail = process_backend_support()
        if not ok:
            print(f"error: process backend unavailable: {detail}",
                  file=sys.stderr)
            return 2
        backend = WarmPool(args.nprocs, timeout=args.deadline)
    else:
        backend = SimulatedBackend()

    try:
        spec, problem_desc = _job_spec(
            args, tenant=args.tenant, nprocs=args.nprocs,
            criterion=StoppingCriterion(rtol=args.rtol, maxiter=args.maxiter),
            policy=args.policy, fused=args.fused,
            reproducible=args.reproducible,
            deadline=args.deadline if args.backend == "process" else None,
            checkpoint_dir=args.checkpoint_dir,
            idempotency_key=args.idempotency_key,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deduped = False
    with SolverService(
        backend=backend, target_nprocs=args.nprocs,
        retry=RetryPolicy(max_attempts=args.retries),
        journal_dir=args.journal_dir,
    ) as svc:
        try:
            handle = svc.submit(spec)
            deduped = svc.counters.deduped > 0
            result = handle.result(timeout=10 * args.deadline)
        except ServiceOverloadedError as exc:  # pragma: no cover - depth 64
            print(f"rejected: {exc}", file=sys.stderr)
            return 1

    out = _human_stream(args)
    print(f"job       : #{result.job_id} tenant={result.tenant}", file=out)
    if deduped:
        print("dedupe    : answered from the journal (idempotency key "
              "already terminal)", file=out)
    print(f"problem   : {problem_desc}", file=out)
    print(f"status    : {result.status}"
          + (f" [{result.classification}]" if result.classification else ""),
          file=out)
    print(f"ranks     : requested={result.nprocs_requested} "
          f"final={result.nprocs_final}", file=out)
    print(f"iterations: {result.iterations}", file=out)
    print(f"attempts  : {summarize_attempts(result.attempts)}", file=out)
    print(f"time      : queued {result.queued * 1e3:.1f} ms, "
          f"executed {result.elapsed * 1e3:.1f} ms", file=out)
    if result.error:
        print(f"error     : {result.error}", file=out)
    if args.json_path:
        _emit_json(result.as_dict(), args.json_path)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "info":
        return _cmd_info()
    if args.command == "strategies":
        return _cmd_strategies()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "gantt":
        return _cmd_gantt(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
