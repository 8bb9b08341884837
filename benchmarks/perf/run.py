#!/usr/bin/env python3
"""The repository's one benchmark: five pinned workloads, layer by layer.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--selfcheck] [--smoke]

Each workload is measured by ``measure.py`` in a subprocess of its own,
started in a new session with BLAS threads pinned to one and a hard
timeout, so that ``peak_rss_mib`` is that workload's own high-water mark
and nothing a workload starts can outlive it: the runner kills the
session's process group on timeout or error, and its last act is to scan
for survivors of any child session and to fail loudly if one exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` for an untraced run, its per-layer metrics
for a traced one.  The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

# measure.py imports NumPy and the program only inside its functions
from measure import (BLAS_VARS, HERE, INHERITED_ENV, OUT, ROOT, load_spec,
                     print_table)

#: a child that has not finished by then is killed with its whole session
HARD_TIMEOUT_S = 150.0
SMOKE_SECONDS = 3.0


class BenchError(RuntimeError):
    """The benchmark cannot vouch for its numbers; exit non-zero."""


def child_env() -> Dict[str, str]:
    """The caller's environment with BLAS pinned to one thread.

    With the inherited default, two BLAS threads in each of two ranks on
    two cores measure spin-waits, not the program.  The caller's own
    values travel along for the ``backend.inherited_env_solve_s`` probe.
    """
    env = dict(os.environ)
    env.setdefault(INHERITED_ENV, json.dumps(
        {var: os.environ.get(var) for var in BLAS_VARS}))
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def session_members(sid: int) -> List[int]:
    """Pids of live processes in session ``sid`` (Linux ``/proc`` scan)."""
    members = []
    try:
        pids = [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return members
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(pid)
    return members


def kill_session(sid: int) -> None:
    try:
        os.killpg(sid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pid in session_members(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


class Runner:
    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.sessions: List[int] = []

    def run_workload(self, workload: str, seed: int, seconds: float,
                     trace: int, smoke: bool) -> Dict[str, Any]:
        """Measure one workload in a subprocess of its own session."""
        os.makedirs(OUT, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        cmd = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
        if smoke:
            cmd.append("--smoke")
        sys.stdout.flush()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        self.sessions.append(proc.pid)
        try:
            try:
                code = proc.wait(timeout=HARD_TIMEOUT_S)
            except BaseException as exc:  # timeout, Ctrl-C: leave nothing
                kill_session(proc.pid)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchError(
                        f"{workload}: no result after {HARD_TIMEOUT_S:g} s; "
                        f"session killed") from None
                raise
            leaked = session_members(proc.pid)
            if leaked:
                kill_session(proc.pid)
                raise BenchError(
                    f"{workload}: left processes running: {leaked}")
            try:
                with open(os.path.join(scratch, "result.json")) as fh:
                    result = json.load(fh)
            except (OSError, ValueError):
                raise BenchError(
                    f"{workload}: measure.py exited {code} without a "
                    f"result") from None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if code != 0:
            result["correct"] = False
        return result

    def survivors(self) -> List[int]:
        return [pid for sid in self.sessions for pid in session_members(sid)]


def final_line(results: Dict[str, Dict[str, Any]]) -> str:
    """The contract's result object; metric names carry the workload when
    more than one was run."""
    single = len(results) == 1
    metrics = {
        (name if single else f"{workload}/{name}"): value
        for workload, res in results.items()
        for name, value in res["metrics"].items()
    }
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    })


def selfcheck(runner: Runner, workloads: List[str], seed: int,
              seconds: float) -> bool:
    """Run the untraced benchmark twice on the same code and hold the two
    passes to the bounds of ``BENCHMARK.json`` (the A/A criterion)."""
    rows = [["workload", "metric", "pass A", "pass B", "B worse by", "bound",
             ""]]
    ok = True
    for workload in workloads:
        a = runner.run_workload(workload, seed, seconds, 0, False)
        b = runner.run_workload(workload, seed, seconds, 0, False)
        ok &= a["correct"] and b["correct"]
        for m in runner.spec["end_to_end"]:
            va = a["metrics"][m["name"]]["value"]
            vb = b["metrics"][m["name"]]["value"]
            worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            within = abs(worse) <= m["bound"]
            ok &= within
            rows.append([workload, m["name"], f"{va:.6g}", f"{vb:.6g}",
                         f"{100 * worse:+.1f} %", f"{100 * m['bound']:.0f} %",
                         "ok" if within else "MISS"])
    print_table("selfcheck: two passes over the same code", rows)
    print(f"\nselfcheck {'passed' if ok else 'FAILED'}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the matrix, right-hand sides and job draws")
    ap.add_argument("--seconds", type=float,
                    help=f"measuring time per workload (default "
                         f"{spec['run_seconds']}, {SMOKE_SECONDS:g} with "
                         f"--smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0, help="report the per-layer metrics and the "
                    "budget table from span recorders")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two untraced passes, compared against the bounds")
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, same checks, no bounds")
    args = ap.parse_args(argv)
    if args.selfcheck and (args.smoke or args.trace):
        ap.error("--selfcheck runs the full untraced benchmark")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: the program under src/repro is missing; nothing to "
              "measure", file=sys.stderr)
        return 2
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else float(spec["run_seconds"]))
    workloads = [args.workload] if args.workload else names

    runner = Runner(spec)
    results: Dict[str, Dict[str, Any]] = {}
    ok = True
    try:
        if args.selfcheck:
            ok = selfcheck(runner, workloads, args.seed, seconds)
        else:
            for workload in workloads:
                results[workload] = runner.run_workload(
                    workload, args.seed, seconds, args.trace, args.smoke)
            ok = all(r["correct"] for r in results.values())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        ok, results = False, {}
    finally:
        survivors = runner.survivors()
        for sid in runner.sessions:
            kill_session(sid)
    if survivors:
        print(f"run.py: PROCESSES SURVIVED THEIR WORKLOAD: {survivors} "
              f"(killed now)", file=sys.stderr)
        return 3
    if results:
        print(final_line(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
