#!/usr/bin/env python
"""Fail CI if the resilient-HPCG guarantees or overhead regress.

Benchmark E26 writes ``BENCH_e26.json`` with the fault-tolerant
stencil27 path's deterministic metrics.  Three absolute checks always
apply -- they are the subsystem's contract, not a trajectory:

* every fault-free resilient run must reproduce the plain solve
  **bitwise** at every checkpoint interval (resilience is overhead,
  never perturbation);
* the durable checkpoint store must be observationally identical to the
  in-memory dict store (same bits, same iterations, same checkpoint
  set, zero leftover tmp files);
* the seeded chaos sweep over stencil27/mg with ABFT and reproducible
  reductions must hold the contract on every run, with bitwise
  reference equality on converged outcomes.

The trajectory check guards the simulated-time overhead ratio at every
checkpoint interval of the sweep: the simulated cost of checkpoints and
audits is deterministic, so if a change makes any freshly generated
ratio exceed its last *committed* ratio by more than 20%, or drops an
interval the committed sweep has, exit 1.  An interval the committed
sweep lacks is seeded, not judged.

Baseline = ``git show HEAD:BENCH_e26.json``.  No committed baseline
(first run, or file renamed) is a clean pass for the trajectory check --
the job seeds it -- but the absolute checks always apply.

Usage: run E26 first so BENCH_e26.json reflects the checked-out code,
then ``python scripts/check_e26_regression.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "BENCH_e26.json"
TOLERANCE = 1.20  # >20% worse than the committed baseline fails


def load_current() -> dict:
    if not BENCH.exists():
        print(f"FAIL: {BENCH} missing -- run benchmark E26 first "
              "(python -m pytest benchmarks/bench_e26_resilient_hpcg.py "
              "--benchmark-disable)")
        sys.exit(1)
    return json.loads(BENCH.read_text(encoding="utf-8"))


def load_baseline() -> dict | None:
    proc = subprocess.run(
        ["git", "show", "HEAD:BENCH_e26.json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def main() -> int:
    current = load_current()
    try:
        sweep = current["overhead_by_interval"]
        ratios = {k: row["sim_time_ratio"] for k, row in sweep.items()}
        durable_ok = current["durable_store_matches_memory"]
        chaos = current["chaos"]
    except KeyError as missing:
        print(f"FAIL: BENCH_e26.json is missing {missing} -- regenerate it")
        return 1

    failed = False

    bitwise = all(row["bitwise_equal_to_plain"] for row in sweep.values())
    verdict = "OK" if bitwise else "REGRESSION"
    failed |= not bitwise
    print("fault-free resilient solves bitwise-equal to plain "
          f"(intervals {sorted(sweep, key=int)}): {bitwise} {verdict}")

    verdict = "OK" if durable_ok else "REGRESSION"
    failed |= not durable_ok
    print(f"durable store matches in-memory store: {durable_ok} {verdict}")

    contract = (
        chaos["ok_runs"] == chaos["total_runs"] and chaos["bitwise"]
    )
    verdict = "OK" if contract else "REGRESSION"
    failed |= not contract
    print(f"chaos contract ({chaos['scenario']}/{chaos['precond']}, "
          f"bitwise): {chaos['ok_runs']}/{chaos['total_runs']} {verdict}")

    baseline = load_baseline()
    if baseline is None:
        print("no committed BENCH_e26.json baseline -- seeding the "
              "trajectory with the current run.")
    else:
        committed = baseline.get("overhead_by_interval", {})
        for interval in sorted(set(committed) | set(ratios), key=int):
            base = committed.get(interval, {}).get("sim_time_ratio")
            if base is None:
                print(f"trajectory: interval-{interval} is new -- seeding "
                      f"it with {ratios[interval]:.3f}")
                continue
            if interval not in ratios:
                failed = True
                print(f"trajectory: interval-{interval} is committed but "
                      "missing from the current sweep REGRESSION")
                continue
            limit = base * TOLERANCE
            verdict = "OK" if ratios[interval] <= limit else "REGRESSION"
            failed |= verdict == "REGRESSION"
            print(f"trajectory: interval-{interval} overhead "
                  f"{ratios[interval]:.3f} vs committed {base:.3f} "
                  f"(limit {limit:.3f}) {verdict}")

    if failed:
        print("\nFAIL: resilience perturbed the solution, the durable "
              "store diverged, the chaos contract broke, or checkpoint "
              "overhead regressed.")
        return 1
    print("\nPASS: resilient-HPCG guarantees and overhead hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
