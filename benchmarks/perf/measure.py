"""Measure one workload in this process (the child of ``run.py``).

One run alternates **set-up repetitions** with **solve rounds** until the
time budget is spent, so that both metrics sample the host's slow waves
over the whole run.  The first set-up becomes the long-lived state the
solves run on; every later set-up is timed, then torn down at once.

The gated value of every timing is its **best-quartile mean**: the mean
of the fastest quarter (at least three) of the samples -- for rates the
highest quarter.  Scheduler noise on a small shared host only ever adds
time, so the fast tail repeats where the median does not (A/A evidence
in the README).  Median, maximum and sample count are printed beside it.

A traced run (``--trace 1``) alternates traced and untraced rounds, which
yields ``trace.overhead_frac`` from one process, and runs the workload's
probes after the first round.  End-to-end metrics are only ever reported by untraced runs.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing as mp  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_ENV = "REPRO_BENCH_INHERITED_ENV"

#: per-layer metric <- (root span, span name, self time only)
SPAN_METRICS = {
    "sparse.generate_s": ("setup", "sparse.generate", False),
    "core.strategy_build_s": ("setup", "core.strategy_build", False),
    "extensions.partitioner_build_s":
        ("setup", "extensions.partitioner_build", False),
    "pool.heal_s": ("setup", "pool.heal", False),
    "service.start_s": ("setup", "service.start", False),
    "pool.shutdown_s": ("teardown", "pool.shutdown", False),
    "core.hpf_cg_csr_forall_s": ("solve", "core.hpf_cg_csr_forall", False),
    "core.hpf_cg_csc_private_s": ("solve", "core.hpf_cg_csc_private", False),
    "core.matvec_apply_s": ("solve", "core.matvec_apply", False),
    "hpf.array_ops_s": ("solve", "hpf.array_ops", False),
    "backend.program_build_s": ("solve", "backend.program_build", False),
    "backend.rank_wall_s": ("solve", "backend.rank_wall", False),
    "backend.compute_s": ("solve", "backend.compute", False),
    "backend.comm_wait_s": ("solve", "backend.comm_wait", False),
    "backend.assemble_s": ("solve", "backend.assemble", False),
    "pool.dispatch_s": ("solve", "pool.run", True),
    "hpcg.mg_build_s": ("solve", "hpcg.mg_build", False),
    "hpcg.phase_mg_s": ("solve", "hpcg.phase_mg", False),
    "hpcg.phase_spmv_s": ("solve", "hpcg.phase_spmv", False),
    "hpcg.phase_dot_s": ("solve", "hpcg.phase_dot", False),
    "hpcg.phase_setup_s": ("solve", "hpcg.phase_setup", False),
    "service.journal_append_s": ("solve", "service.journal_append", False),
}
#: counts that repeat exactly within a run and are reported as they are
EXACT_METRICS = (
    "core.iterations", "machine.messages", "machine.words",
    "machine.modelled_elapsed_s", "backend.iterations", "backend.messages",
    "backend.words", "backend.flops", "hpcg.halo_words_per_exchange",
    "hpcg.halo_neighbors",
    "pool.rebuilds", "service.journal_records_per_job", "service.retries",
    "service.failed",
)
#: the traced run must attribute at least three quarters of ``solve_s``
MAX_UNATTRIBUTED = 0.25
#: the value an exact count must have, where the issue fixes one
REQUIRED_EXACT = {
    "pool.rebuilds": 1,
    "service.retries": 0,
    "service.failed": 0,
    "service.journal_records_per_job": 3,
}


def best_quartile(values: List[float], higher_is_better: bool = False) -> float:
    """Mean of the best quarter (at least three) of ``values``."""
    k = min(len(values), max(3, math.ceil(len(values) / 4)))
    return statistics.fmean(sorted(values, reverse=higher_is_better)[:k])


def summary(values: List[float], higher_is_better: bool = False) -> Dict[str, Any]:
    return {
        "value": best_quartile(values, higher_is_better),
        "median": statistics.median(values),
        "worst": min(values) if higher_is_better else max(values),
        "n": len(values),
    }


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def header(args, np, scipy) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "allowed_cores": (sorted(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "start_method": "fork",
    }


def inherited_env_solve(args) -> float:
    """Time one solve in a subprocess that keeps the caller's BLAS env."""
    env = dict(os.environ)
    for var, value in json.loads(env.pop(INHERITED_ENV, "{}")).items():
        if value is None:
            env.pop(var, None)
        else:
            env[var] = value
    cmd = [sys.executable, os.path.abspath(__file__), "--inherited-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", args.scratch]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"inherited-env probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def print_table(title: str, rows: List[List[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(f"\n{title}")
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


class Rounds:
    """What the measuring loop collected."""

    def __init__(self) -> None:
        self.setups: List[float] = []
        self.plain: List[Any] = []    # samples of untraced solves
        self.traced: List[Any] = []   # samples of traced solves
        self.calib: List[float] = []
        self.probes: Dict[str, float] = {}


def run_rounds(args, wl, rec, calib_kernel) -> Rounds:
    """Alternate set-up repetitions and solve rounds until time is up."""
    from spans import ROOT_LAYER
    from workloads import ProcWorkload

    out = Rounds()
    min_rounds = 2 if args.smoke else 3
    long_lived = None
    longest = 0.0
    try:
        wl.prepare()
        while True:
            r0 = time.perf_counter()
            index = len(out.setups)
            with rec.span("setup", ROOT_LAYER, job=f"setup-{index}",
                          root=True):
                t0 = time.perf_counter()
                state = wl.setup()
                out.setups.append(time.perf_counter() - t0)
            if long_lived is None:
                long_lived = state
            else:
                with rec.span("teardown", ROOT_LAYER,
                              job=f"teardown-{index}", root=True):
                    wl.teardown(state)
            is_traced = bool(args.trace) and index % 2 == 0
            (out.traced if is_traced else out.plain).extend(
                wl.solve_round(long_lived, is_traced))
            out.calib.append(calib_kernel())
            now = time.perf_counter()
            longest = max(longest, now - r0)
            if args.trace and index == 0:
                # probes go first so that rounds fill whatever time is left
                out.probes = wl.probes(long_lived)
                if isinstance(wl, ProcWorkload):
                    out.probes["backend.inherited_env_solve_s"] = \
                        inherited_env_solve(args)
                now = time.perf_counter()
            if (len(out.setups) >= min_rounds
                    and now - _T_START + longest > args.seconds):
                break
    finally:
        if long_lived is not None:
            with rec.span("teardown", ROOT_LAYER, job="teardown-0",
                          root=True):
                wl.teardown(long_lived)
    return out


def check(args, wl, rounds: Rounds) -> List[str]:
    """Everything that makes a run incorrect, as messages."""
    from repro.service import leaked_pool_workers

    problems = []
    # nothing this process started may outlive it
    leftovers = [p.name for p in mp.active_children()]
    if leftovers or leaked_pool_workers():
        problems.append(f"processes left running: {leftovers}")
        for p in mp.active_children():
            p.kill()
            p.join(5.0)
    for name, seen in sorted(wl.exact.items()):
        if len(seen) != 1:
            problems.append(f"{name} did not repeat exactly: {sorted(seen)}")
        elif name in REQUIRED_EXACT and seen != {REQUIRED_EXACT[name]}:
            problems.append(
                f"{name} = {next(iter(seen))}, must be {REQUIRED_EXACT[name]}")
    if not (rounds.plain or (args.trace and rounds.traced)):
        problems.append("no verified solve was measured")
    problems.extend(f"failed operation: {m}" for m in wl.failures)
    return problems


def end_to_end(rounds: Rounds):
    """The gated metrics (and the host kernel) with their ungated detail."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    solves = rounds.plain or rounds.traced
    detail = {
        "setup_s": summary(rounds.setups),
        "solve_s": summary([s.seconds for s in solves]),
        "jobs_per_s": summary([s.rate for s in solves], True),
        "host.calib_kernel_s": summary(rounds.calib),
    }
    values = {name: d["value"] for name, d in detail.items()}
    values["peak_rss_mib"] = rss / 1024.0
    return values, detail


def per_layer(wl, rec, rounds: Rounds, solve_s: float, budget) -> Dict[str, float]:
    """The traced run's metrics: spans, exact counts, probes, ratios."""
    from spans import ROOT_LAYER
    from workloads import ProcWorkload

    values: Dict[str, float] = {}
    for name, (root, span, self_time) in SPAN_METRICS.items():
        per_root = [v for v in rec.per_root(root, span, self_time) if v]
        values[name] = statistics.median(per_root) if per_root else 0.0
    for name in EXACT_METRICS:
        if wl.exact.get(name):
            values[name] = float(max(wl.exact[name]))
    values.update(rounds.probes)
    if "machine.modelled_elapsed_s" in values:
        values["machine.host_s_per_modelled_s"] = (
            solve_s / values["machine.modelled_elapsed_s"])
    if "backend.p1_solve_s" in values:
        values["backend.speedup_p2"] = values["backend.p1_solve_s"] / solve_s
    if "backend.t_flop_s" in values:
        # the paper-style prediction for one rank of a balanced solve
        values["backend.modelled_s"] = (
            values["backend.flops"] * values["backend.t_flop_s"]
            + values["backend.messages"] * values["backend.t_startup_s"]
            + values["backend.words"] * values["backend.t_comm_s_per_word"]
        ) / ProcWorkload.NPROCS
    f = wl.fields
    if f["latency"]:
        overhead = [lat - q - e for lat, q, e in
                    zip(f["latency"], f["queued"], f["elapsed"])]
        values["service.queue_wait_p50_s"] = statistics.median(f["queued"])
        values["service.exec_p50_s"] = statistics.median(f["elapsed"])
        values["service.overhead_p50_s"] = statistics.median(overhead)
        values["service.job_p95_s"] = statistics.quantiles(
            f["latency"], n=20)[-1]
        values["service.job_max_s"] = max(f["latency"])
        values["backend.iterations"] = statistics.median(f["iterations"])
    if rounds.traced and rounds.plain:
        values["trace.overhead_frac"] = (
            best_quartile([s.seconds for s in rounds.traced])
            / best_quartile([s.seconds for s in rounds.plain]) - 1.0)
    values["trace.unattributed_frac"] = budget["rows"].get(
        ROOT_LAYER, {"share": 1.0})["share"]
    return values


def report(args, wl, rounds: Rounds, units, values, detail, budget) -> None:
    from spans import ROOT_LAYER

    rows = [["metric", "value", "unit", "median", "worst", "n"]]
    idle = 0
    for name in list(units) + ([] if args.trace else ["host.calib_kernel_s"]):
        d = detail.get(name, {})
        if args.trace and not values.get(name):
            idle += 1  # a layer this workload does not touch reads 0
            continue
        rows.append([
            name, f"{values.get(name, 0.0):.6g}", units.get(name, "s"),
            f"{d['median']:.6g}" if d else "", f"{d['worst']:.6g}" if d else "",
            str(d["n"]) if d else "",
        ])
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print_table(f"{args.workload}: {kind} metrics, seed {args.seed}", rows)
    if idle:
        print(f"  ({idle} metrics of layers this workload leaves idle read 0 "
              f"and are not listed)")
    print(f"\n  rounds {len(rounds.setups)}  ops_attempted {wl.attempted}  "
          f"ops_failed {wl.failed}  ranks pinned: {wl.pinned}  "
          f"wall {time.perf_counter() - _T_START:.1f} s")
    if budget is None:
        return
    rows = [["layer", "calls", "self s/solve", "share of solve"]]
    for layer, row in sorted(budget["rows"].items(),
                             key=lambda kv: -kv[1]["self_s"]):
        rows.append([layer, str(row["calls"]), f"{row['self_s']:.6f}",
                     f"{100 * row['share']:.1f} %"])
    print_table(
        f"{args.workload}: budget of {budget['roots']} traced solves, "
        f"{budget['root_s']:.6f} s each (layer '{ROOT_LAYER}' is the share "
        f"no span accounts for)", rows)


def measure(args) -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    import scipy

    from spans import NullRecorder, SpanRecorder
    from workloads import make_workload

    if args.inherited_probe:
        wl = make_workload(args.workload, args.seed, args.smoke,
                           NullRecorder(), args.scratch)
        print(repr(wl.inherited_env_solve()))
        return 0

    spec = load_spec()
    head = header(args, np, scipy)
    print("# " + json.dumps(head, sort_keys=True))

    rng = np.random.default_rng(0)
    kx, ky = rng.standard_normal(300_000), rng.standard_normal(300_000)

    def calib_kernel() -> float:
        """A fixed NumPy kernel: a slow phase of the host shows here."""
        t0 = time.perf_counter()
        for _ in range(8):
            np.dot(kx, ky + 0.5 * kx)
        return time.perf_counter() - t0

    rec = SpanRecorder() if args.trace else NullRecorder()
    wl = make_workload(args.workload, args.seed, args.smoke, rec,
                       args.scratch)
    rounds = run_rounds(args, wl, rec, calib_kernel)
    problems = check(args, wl, rounds)

    values: Dict[str, float] = {}
    detail: Dict[str, Dict[str, Any]] = {}
    budget = None
    if rounds.plain or rounds.traced:
        values, detail = end_to_end(rounds)
        if args.trace:
            budget = rec.budget("solve")
            values.update(
                per_layer(wl, rec, rounds, values["solve_s"], budget))
            if values["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
                problems.append(
                    f"trace leaves {values['trace.unattributed_frac']:.0%} of "
                    f"solve_s unattributed; at most {MAX_UNATTRIBUTED:.0%} "
                    f"is allowed")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(
        set(values) - {m["name"] for m in spec["per_layer"]}
        - {m["name"] for m in spec["end_to_end"]})
    if undeclared:
        problems.append(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    report(args, wl, rounds, units, values, detail, budget)
    if budget is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(rec.chrome_trace(), fh)
        print(f"\n  Chrome trace: {os.path.relpath(path, ROOT)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems and wl.failed == 0
    with open(os.path.join(args.scratch, "result.json"), "w") as fh:
        json.dump({
            "header": head, "correct": correct,
            "attempted": wl.attempted, "failed": wl.failed,
            "problems": problems, "metrics": metrics, "detail": detail,
        }, fh)
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--scratch", required=True,
                    help="directory for result.json and temporary files; "
                         "run.py creates and removes it")
    ap.add_argument("--inherited-probe", action="store_true")
    return measure(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
