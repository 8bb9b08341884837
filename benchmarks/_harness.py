"""Shared infrastructure for the experiment benchmarks (E1..E27).

Each benchmark module reproduces one figure or claim of the paper and
renders a paper-style table.  Tables are registered here; the conftest's
``pytest_terminal_summary`` hook prints every registered table after the
pytest-benchmark results, and each table is also written to
``benchmarks/results/<name>.txt`` so the harness output is durable.

A regression check lives in one of three places.  Deterministic
contracts are pinned in the tier-1 tests (and every figure of a table CI
regenerates is pinned by its byte-diff); each table's absolute floor (a
count identity, a speed-up, an overhead gate) is an assert in its
benchmark module, which CI runs; performance across commits is judged by
the layered benchmark under ``benchmarks/perf/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from repro.analysis import Table

RESULTS_DIR = Path(__file__).parent / "results"

_REGISTERED: List[Tuple[str, str]] = []


def record_table(name: str, table: Table, notes: str = "") -> str:
    """Render, persist and register an experiment table."""
    text = table.render()
    if notes:
        text = text + "\n" + notes
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    _REGISTERED.append((name, text))
    return text


def registered_tables() -> List[Tuple[str, str]]:
    return list(_REGISTERED)


def clear_registry() -> None:
    _REGISTERED.clear()
