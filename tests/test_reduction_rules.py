"""The reduction rules every CG rank program follows, checked on the wire.

One rule set covers the row-block and the subcube programs alike:

* a ``Reducer.reduce`` call is one ``allreduce_vec`` tree on tag 3, so a
  Chronopoulos--Gear iteration issues exactly one tree (plus one for the
  setup trip) and no other reduction tag is used;
* a Gear step reduces 2 slots without a preconditioner (``u`` is ``r``)
  and 3 with one, plus ``b.b`` on the setup trip;
* every reduced element is charged ``2`` flops, plus the superaccumulator
  surcharge ``kernel._REPRO_FLOPS`` when the dots are reproducible;
* a resilient audit charges its mat-vec and its one dot, once.

Each case runs on the simulated backend at p = 2.
"""

import numpy as np
import pytest

from repro.backend import kernel
from repro.backend.kernel import Guard, Reducer
from repro.backend.programs import (
    CGRankProgram,
    PCGRankProgram,
    ResilientCGProgram,
)
from repro.backend.simulated import SimulatedBackend
from repro.core.preconditioners import JacobiPreconditioner
from repro.core.stopping import StoppingCriterion
from repro.hpcg.program import HPCGRankProgram, ResilientHPCGProgram
from repro.machine.events import Compute, Send, payload_words
from repro.sparse.generators import nas_cg_style, rhs_for_solution, stencil27

CRIT = StoppingCriterion(rtol=1e-10, atol=0.0)
SHAPE = (6, 6, 6)
GUARD = dict(checkpoint_interval=4, sanity_interval=3)


def _system(kind):
    A = nas_cg_style(48) if kind == "rowblock" else stencil27(*SHAPE)
    return A, rhs_for_solution(A, np.ones(A.nrows))


def _rowblock(cls, fused, jacobi=False, **kw):
    def build(reproducible):
        A, b = _system("rowblock")
        program = cls(A, b, criterion=CRIT, fused=fused,
                      reproducible=reproducible, **kw)
        if jacobi:  # the HPF solvers' fault mode: resilient Jacobi PCG
            program.inv_diag = JacobiPreconditioner(A).inv_diag
        return program
    return build


def _hpcg(cls, precond, **kw):
    def build(reproducible):
        A, b = _system("hpcg")
        return cls(A, b, SHAPE, criterion=CRIT, precond=precond,
                   reproducible=reproducible, **kw)
    return build


#: id -> (build, preconditioned, Chronopoulos--Gear, guarded)
CASES = {
    "CGRankProgram/classic": (_rowblock(CGRankProgram, False), False,
                              False, False),
    "CGRankProgram/fused": (_rowblock(CGRankProgram, True), False, True,
                            False),
    "PCGRankProgram/classic": (_rowblock(PCGRankProgram, False), True,
                               False, False),
    "PCGRankProgram/fused": (_rowblock(PCGRankProgram, True), True, True,
                             False),
    "ResilientCGProgram/classic": (
        _rowblock(ResilientCGProgram, False, **GUARD), False, False, True),
    "ResilientCGProgram/fused": (
        _rowblock(ResilientCGProgram, True, **GUARD), False, True, True),
    "ResilientCGProgram/fused/jacobi": (
        _rowblock(ResilientCGProgram, True, jacobi=True, **GUARD), True,
        True, True),
}
for _precond in ("none", "jacobi", "mg"):
    CASES[f"HPCGRankProgram/{_precond}"] = (
        _hpcg(HPCGRankProgram, _precond), _precond != "none", True, False)
    CASES[f"ResilientHPCGProgram/{_precond}"] = (
        _hpcg(ResilientHPCGProgram, _precond, **GUARD), _precond != "none",
        True, True)

GEAR = sorted(cid for cid, case in CASES.items() if case[2])
GUARDED = sorted(cid for cid, case in CASES.items() if case[3])


class _SendLog:
    """Wrap a rank program; return ``(result, [(tag, words), ...])``."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, rank, size):
        gen = self.inner(rank, size)
        sends = []
        reply = None
        while True:
            try:
                op = gen.send(reply)
            except StopIteration as stop:
                return stop.value, sends
            if isinstance(op, Send):
                sends.append((op.tag, payload_words(op.payload)))
            reply = yield op


def _metered(fn, log):
    """Wrap generator method ``fn``: log ``(self, args, flops charged)``."""
    def wrapper(self, *args, **kw):
        gen = fn(self, *args, **kw)
        flops = 0.0
        reply = None
        while True:
            try:
                op = gen.send(reply)
            except StopIteration as stop:
                log.append((self, args, flops))
                return stop.value
            if isinstance(op, Compute):
                flops += op.flops
            reply = yield op
    return wrapper


def _run(cid, reproducible):
    run = SimulatedBackend().run(_SendLog(CASES[cid][0](reproducible)), 2)
    (result, _), (_, sends) = run.results
    return result, sends


@pytest.mark.parametrize("reproducible", [False, True])
@pytest.mark.parametrize("cid", GEAR)
def test_one_reduction_tree_per_gear_iteration(cid, reproducible):
    result, sends = _run(cid, reproducible)
    tags = {tag for tag, _ in sends}
    # dots on 3/4, allgathers on 7/8, audits on 21-24, halo on 31
    assert tags <= {3, 4, 7, 8, 21, 22, 23, 24, 31}
    trees = sum(1 for tag, _ in sends if tag == 3)
    assert trees == result[3] + 1  # the setup trip, then one per iteration


@pytest.mark.parametrize("cid", GEAR)
def test_gear_step_reduces_two_slots_or_three(cid):
    result, sends = _run(cid, False)
    slots = 3 if CASES[cid][1] else 2
    sizes = [words for tag, words in sends if tag == 3]
    assert sizes == [slots + 1] + [slots] * result[3]  # b.b rides trip 0


@pytest.mark.parametrize("reproducible", [False, True])
@pytest.mark.parametrize("cid", sorted(CASES))
def test_every_reduced_element_pays_the_same(cid, reproducible,
                                             monkeypatch):
    log = []
    monkeypatch.setattr(Reducer, "reduce", _metered(Reducer.reduce, log))
    _run(cid, reproducible)
    per_element = 2.0 + (kernel._REPRO_FLOPS if reproducible else 0.0)
    assert log
    for _, (pairs, *_), flops in log:
        assert flops == per_element * sum(a.size for a, _, _ in pairs)


@pytest.mark.parametrize("reproducible", [False, True])
@pytest.mark.parametrize("cid", GUARDED)
def test_an_audit_charges_its_dot_once(cid, reproducible, monkeypatch):
    log = []
    monkeypatch.setattr(Guard, "audit", _metered(Guard.audit, log))
    _run(cid, reproducible)
    per_element = 2.0 + (kernel._REPRO_FLOPS if reproducible else 0.0)
    assert log
    for guard, _, flops in log:
        assert flops == guard.op.flops + per_element * guard.b.size
